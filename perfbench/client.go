package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"

	"lfi/internal/pool"
	"lfi/internal/serve"
)

// server is an in-process lfi-serve behind real loopback sockets: the
// HTTP API on one listener, the binary protocol on another.
type server struct {
	srv      *serve.Server
	http     *http.Server
	binLn    net.Listener
	httpAddr string
	binAddr  string
	wg       sync.WaitGroup
}

// serverConfig is the serving configuration every workload uses: one
// shard (a single hot image would only use one shard's workers anyway)
// with one worker per CPU, and the two weighted tenants.
func serverConfig(workers int, pc pool.Config) serve.Config {
	pc.Workers = workers
	return serve.Config{
		Shards: 1,
		Pool:   pc,
		Tenants: []serve.TenantConfig{
			{Name: tenants[0], Weight: 4},
			{Name: tenants[1], Weight: 1},
		},
	}
}

func startServer(cfg serve.Config) (*server, error) {
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen http: %w", err)
	}
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		return nil, fmt.Errorf("listen binary: %w", err)
	}
	s := &server{srv: serve.New(cfg), binLn: bl, httpAddr: hl.Addr().String(), binAddr: bl.Addr().String()}
	s.http = &http.Server{Handler: s.srv.Mux()}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.http.Serve(hl) // returns http.ErrServerClosed at close
	}()
	go func() {
		defer s.wg.Done()
		s.srv.ServeBinary(bl) // returns nil once the server closes
	}()
	return s, nil
}

// close stops both listeners, drains the server and waits for its
// goroutines.
func (s *server) close() {
	s.http.Close()
	s.srv.Close()
	// serve.Server.Close closes only the listeners ServeBinary has already
	// registered. A server closed before that goroutine first ran would
	// leave it accepting forever, so the listener is closed here too.
	s.binLn.Close()
	s.wg.Wait()
}

// binResult is one decoded terminal response frame.
type binResult struct {
	kind   string
	status int64
	instrs uint64
	stdout []byte
	err    error // transport failure
}

// binClient is a binary-protocol connection that keeps several requests
// in flight: callers share it, each waiting for the response carrying
// its own request id.
type binClient struct {
	c  net.Conn
	bw *bufio.Writer

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan binResult
	nextID  uint64
	dead    error // set once the reader stops

	readerDone chan struct{}
}

func dialBinary(addr string) (*binClient, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	bc := &binClient{
		c:          c,
		bw:         bufio.NewWriterSize(c, 64<<10),
		pending:    make(map[uint64]chan binResult),
		readerDone: make(chan struct{}),
	}
	go bc.reader()
	return bc, nil
}

// Wire constants mirror internal/serve/frame.go.
const (
	frameMagic   = 0x4C46
	frameVersion = 1
	frameReq     = 1
	frameRes     = 2
	headerSize   = 16
)

func (bc *binClient) reader() {
	defer close(bc.readerDone)
	br := bufio.NewReaderSize(bc.c, 64<<10)
	var hdr [headerSize]byte
	var err error
	for {
		if _, err = io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		if binary.BigEndian.Uint16(hdr[0:]) != frameMagic || hdr[2] != frameVersion {
			err = fmt.Errorf("bad frame header % x", hdr[:4])
			break
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[4:]))
		if _, err = io.ReadFull(br, body); err != nil {
			break
		}
		if hdr[3] != frameRes {
			continue // output chunks only arrive for streamed requests
		}
		res := parseBinRes(body)
		bc.mu.Lock()
		ch := bc.pending[binary.BigEndian.Uint64(hdr[8:])]
		delete(bc.pending, binary.BigEndian.Uint64(hdr[8:]))
		bc.mu.Unlock()
		if ch != nil {
			ch <- res
		}
	}
	bc.mu.Lock()
	bc.dead = fmt.Errorf("binary connection: %w", err)
	for id, ch := range bc.pending {
		ch <- binResult{err: bc.dead}
		delete(bc.pending, id)
	}
	bc.mu.Unlock()
}

func parseBinRes(p []byte) binResult {
	var r binResult
	d := p
	fail := func() binResult { return binResult{err: errors.New("malformed response frame")} }
	if len(d) < 1 {
		return fail()
	}
	r.kind = serve.KindName(d[0])
	d = d[1:]
	status, n := binary.Varint(d)
	if n <= 0 {
		return fail()
	}
	r.status, d = status, d[n:]
	for i := 0; i < 3; i++ { // instrs, shard, worker
		v, n := binary.Uvarint(d)
		if n <= 0 {
			return fail()
		}
		if i == 0 {
			r.instrs = v
		}
		d = d[n:]
	}
	if len(d) < 1 {
		return fail()
	}
	d = d[1:]                // warm flag
	for i := 0; i < 2; i++ { // errmsg, stdout
		l, n := binary.Uvarint(d)
		if n <= 0 || uint64(len(d)-n) < l {
			return fail()
		}
		if i == 1 {
			r.stdout = d[n : n+int(l)]
		}
		d = d[n+int(l):]
	}
	return r
}

// do sends one job and waits for its terminal response.
func (bc *binClient) do(tenant, image string) binResult {
	ch := make(chan binResult, 1)
	bc.mu.Lock()
	if bc.dead != nil {
		bc.mu.Unlock()
		return binResult{err: bc.dead}
	}
	bc.nextID++
	id := bc.nextID
	bc.pending[id] = ch
	bc.mu.Unlock()

	var payload []byte
	payload = appendLP(payload, []byte(tenant))
	payload = appendLP(payload, []byte(image))
	payload = binary.AppendUvarint(payload, 0) // budget: pool default
	payload = append(payload, 0)               // flags
	payload = appendLP(payload, nil)           // input
	var hdr [headerSize]byte
	binary.BigEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = frameVersion
	hdr[3] = frameReq
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[8:], id)
	bc.wmu.Lock()
	bc.bw.Write(hdr[:])
	bc.bw.Write(payload)
	err := bc.bw.Flush()
	bc.wmu.Unlock()
	if err != nil {
		bc.mu.Lock()
		delete(bc.pending, id)
		bc.mu.Unlock()
		return binResult{err: err}
	}
	return <-ch
}

// close shuts the connection and waits for the reader to exit.
func (bc *binClient) close() {
	bc.c.Close()
	<-bc.readerDone
}

func appendLP(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// httpClient is one keep-alive HTTP connection (a gateway's client).
type httpClient struct {
	addr string
	c    *http.Client
}

func newHTTPClient(addr string) *httpClient {
	return &httpClient{addr: addr, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// httpJob is the part of a JobResponse the benchmark checks.
type httpJob struct {
	ErrorKind string `json:"error_kind"`
	Error     string `json:"error"`
	Status    int    `json:"status"`
	Stdout    string `json:"stdout"`
	Instrs    uint64 `json:"instrs"`
}

// job submits one synchronous job through POST /v1/jobs.
func (h *httpClient) job(tenant, image string) (*httpJob, error) {
	body, _ := json.Marshal(map[string]string{"tenant": tenant, "image": image})
	resp, err := h.c.Post("http://"+h.addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc httpJob
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode job response (HTTP %d): %w", resp.StatusCode, err)
	}
	if doc.ErrorKind == "" {
		return nil, fmt.Errorf("job response without error_kind (HTTP %d)", resp.StatusCode)
	}
	return &doc, nil
}

// errUploadStatus reports an upload answered with anything but 201.
type errUploadStatus struct {
	code int
	body string
}

func (e *errUploadStatus) Error() string { return fmt.Sprintf("upload: HTTP %d: %s", e.code, e.body) }

// upload registers an image through POST /v1/images and returns its key.
func (h *httpClient) upload(name string, u upload) (string, error) {
	req := map[string]string{"name": name}
	if u.wasm != nil {
		req["wasm"] = base64.StdEncoding.EncodeToString(u.wasm)
	} else {
		req["source"] = u.src
	}
	body, _ := json.Marshal(req)
	resp, err := h.c.Post("http://"+h.addr+"/v1/images", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", &errUploadStatus{code: resp.StatusCode, body: string(bytes.TrimSpace(raw))}
	}
	var doc serve.ImageResponse
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Key == "" {
		return "", fmt.Errorf("upload: bad response %q", raw)
	}
	return doc.Key, nil
}
