package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/lfirt"
	"lfi/internal/pool"
	"lfi/internal/progs"
	"lfi/internal/wasmfront"
)

// workload is one named traffic mix. Every workload reports every
// end-to-end metric; README.md says which stream each one reads. The
// primary phase (binary-protocol jobs, or model's fig-3 runs) and the
// HTTP phase each get half the window, alternating in slices.
type workload struct {
	name string
	// setups is how many times the set-up is repeated; setup_s is the
	// median and the last set-up's server is the one measured. Where
	// uploads happen only at set-up, each image's registration latency
	// is its median over the set-ups, taken over a few seconds rather
	// than one burst.
	setups int
	// churn uploads a fixed count of fresh images beside the jobs.
	churn bool
	// served builds the images the workload serves. directProgs, when
	// set, builds the programs the primary phase runs outside the
	// server (model's fig-3 runs) instead of serving jobs.
	served      func() []*program
	directProgs func() ([]*program, error)
}

var allWorkloads = []*workload{
	{
		name:   "tiny",
		setups: 100,
		served: func() []*program { return []*program{{name: "tiny", src: tinySource()}} },
	},
	{
		name:   "compute",
		setups: 16,
		served: func() []*program { return append(kernelPrograms(), wasmPrograms()...) },
	},
	{
		name:   "churn",
		setups: 50,
		churn:  true,
		served: func() []*program { return []*program{{name: "tiny", src: tinySource()}} },
	},
	{
		name:        "model",
		setups:      20,
		served:      kernelPrograms,
		directProgs: modelPrograms,
	},
}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sliceLen is the length a phase's slices aim at, and minSlices the
// fewest a phase is cut into. Rates and latency percentiles are medians
// over the slices.
const (
	sliceLen  = 500 * time.Millisecond
	minSlices = 5
)

// refBudget bounds every reference run; the largest job retires ~600k.
const refBudget = 50_000_000

// build compiles p to its LFI O2 ELF exactly as the image cache does.
func (p *program) build() error {
	src := p.src
	if p.wasm != nil {
		asm, _, err := wasmfront.Translate(p.wasm)
		if err != nil {
			return fmt.Errorf("%s: translate: %w", p.name, err)
		}
		src = asm
	}
	res, err := progs.Build(src, core.Options{Opt: core.O2})
	if err != nil {
		return fmt.Errorf("%s: build: %w", p.name, err)
	}
	p.elf = res.ELF
	return nil
}

// runOnce loads elf into a fresh runtime configured by rc and runs it to
// completion. fast selects the emulator's block fast path; the reference
// outcome uses the per-step interpreter.
func runOnce(elf []byte, rc lfirt.Config, fast bool) (outcome, error) {
	rt := lfirt.New(rc)
	rt.CPU.SetFastpath(fast)
	p, err := rt.Load(elf)
	if err != nil {
		return outcome{}, err
	}
	status, err := rt.RunProcDeadline(p, refBudget)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{status: status, stdout: append([]byte(nil), p.Stdout()...), instrs: rt.CPU.Instrs}
	if rt.Tim != nil {
		out.cycles = rt.Tim.Cycles()
	}
	return out, nil
}

// poolConfig is the configuration of the pool every workload serves
// from: lfi-serve's, with nproc workers and no timing model.
func poolConfig(nproc int) pool.Config {
	return pool.Config{Workers: nproc}
}

// prepare builds the served images and their per-step references, and
// the programs the primary phase runs directly.
func (w *workload) prepare(nproc int) ([]*program, []*program, error) {
	served := w.served()
	rc := poolConfig(nproc).RuntimeConfig()
	for _, p := range served {
		if err := p.build(); err != nil {
			return nil, nil, err
		}
		ref, err := runOnce(p.elf, rc, false)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: reference run: %w", p.name, err)
		}
		p.want = ref
		if p.src == tinySource() && (ref.status != 0 || string(ref.stdout) != tinyMsg) {
			return nil, nil, fmt.Errorf("tiny reference: status %d stdout %q", ref.status, ref.stdout)
		}
	}
	var direct []*program
	if w.directProgs != nil {
		var err error
		if direct, err = w.directProgs(); err != nil {
			return nil, nil, err
		}
	}
	return served, direct, nil
}

// modelPrograms builds every kernel native and at LFI O2 and records the
// per-step interpreter's outcome under the M1 model as the reference.
// The native build's checksum must equal the O2 build's.
func modelPrograms() ([]*program, error) {
	var out []*program
	for _, k := range kernelPrograms() {
		nat, err := progs.BuildNative(k.src)
		if err != nil {
			return nil, fmt.Errorf("%s native: %w", k.name, err)
		}
		if err := k.build(); err != nil {
			return nil, err
		}
		pn := &program{name: k.name + "/native", src: k.src, elf: nat.ELF, native: true}
		po := &program{name: k.name + "/O2", src: k.src, elf: k.elf}
		for _, p := range []*program{pn, po} {
			ref, err := runOnce(p.elf, fig3Config(p), false)
			if err != nil {
				return nil, fmt.Errorf("%s: reference run: %w", p.name, err)
			}
			p.want = ref
		}
		if !bytes.Equal(pn.want.stdout, po.want.stdout) {
			return nil, fmt.Errorf("%s: native and O2 checksums differ", k.name)
		}
		out = append(out, pn, po)
	}
	return out, nil
}

// fig3Config is the runtime lfi-bench -fig 3 runs a build in: a fresh
// default runtime with the M1 model, verifying LFI builds only.
func fig3Config(p *program) lfirt.Config {
	rc := lfirt.DefaultConfig()
	rc.Model = emu.ModelM1()
	rc.Verify = !p.native
	return rc
}

// env is one benchmark invocation's settings.
type env struct {
	seed     int64
	seconds  float64
	nproc    int
	inflight int // requests kept in flight on a binary connection
}

// result is what one run measured, before formatting.
type result struct {
	metrics   map[string]float64
	wall      map[string]float64 // untraced wall-clock figures, not metrics
	samples   map[string]int
	params    map[string]any
	attempted int
	failed    int
	wrong     int
	kinds     map[string]map[string]int
	// problems are failed checks on the run as a whole; any makes the
	// run incorrect.
	problems []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{},
		params: map[string]any{}, kinds: map[string]map[string]int{}}
}

// add folds a stream's tally into the result.
func (r *result) add(name string, st *stream) {
	a, f, w := st.tally()
	r.attempted += a
	r.failed += f
	r.wrong += w
	r.kinds[name] = st.kindCounts()
}

// checkJob classifies one served job against its program's reference.
// viaHTTP compares stdout in the form the JSON door delivers it. A
// non-ok kind is passed through; the stream decides whether it is a
// load rejection or a wrong answer.
func checkJob(p *program, kind string, status int64, stdout []byte, instrs uint64, viaHTTP bool) opResult {
	if kind != "ok" {
		return opResult{kind: kind}
	}
	want := p.want.stdout
	if viaHTTP {
		want = jsonForm(want)
	}
	if status != int64(p.want.status) || instrs != p.want.instrs || !bytes.Equal(stdout, want) {
		return opResult{kind: "mismatch"}
	}
	return opResult{kind: "ok", instrs: instrs}
}

// jsonForm is b after a trip through a JSON string: the HTTP door
// replaces each byte that is not valid UTF-8 with U+FFFD.
func jsonForm(b []byte) []byte {
	enc, _ := json.Marshal(string(b))
	var s string
	json.Unmarshal(enc, &s) // enc is a valid JSON string by construction
	return []byte(s)
}

// closedLoop opens a slice of st lasting dur and runs one goroutine per
// op, each calling its op back to back until the slice's deadline or
// until the op reports no work left (an empty kind). It returns once
// every issued operation has completed.
func closedLoop(st *stream, dur time.Duration, ops []func() opResult) {
	deadline := st.begin(dur)
	var wg sync.WaitGroup
	for _, op := range ops {
		wg.Add(1)
		go func(op func() opResult) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				r := op()
				if r.kind == "" {
					return
				}
				st.record(t0, r)
			}
		}(op)
	}
	wg.Wait()
	st.end()
}

// repeated is n callers sharing one op.
func repeated(n int, op func() opResult) []func() opResult {
	ops := make([]func() opResult, n)
	for i := range ops {
		ops[i] = op
	}
	return ops
}

// sequencer hands out a job sequence's entries in order, cyclically,
// starting at entry off and stopping after limit jobs when limit is set.
type sequencer struct {
	seq   []job
	off   uint64
	limit uint64
	n     atomic.Uint64
}

func (s *sequencer) next() (job, bool) {
	i := s.n.Add(1) - 1
	if s.limit > 0 && i >= s.limit {
		return job{}, false
	}
	return s.seq[(s.off+i)%uint64(len(s.seq))], true
}

// issued is how many jobs next has handed out.
func (s *sequencer) issued() uint64 {
	n := s.n.Load()
	if s.limit > 0 {
		n = min(n, s.limit)
	}
	return n
}

// binOp returns a closed-loop operation submitting the next job of seq
// over bc.
func binOp(bc *binClient, seq *sequencer, served []*program) func() opResult {
	return func() opResult {
		j, ok := seq.next()
		if !ok {
			return opResult{}
		}
		p := served[j.prog]
		r := bc.do(j.tenant, p.name)
		if r.err != nil {
			return opResult{kind: "transport"}
		}
		return checkJob(p, r.kind, r.status, r.stdout, r.instrs, false)
	}
}

// httpOp is binOp for the HTTP door.
func httpOp(hc *httpClient, seq *sequencer, served []*program) func() opResult {
	return func() opResult {
		j, ok := seq.next()
		if !ok {
			return opResult{}
		}
		p := served[j.prog]
		doc, err := hc.job(j.tenant, p.name)
		if err != nil {
			return opResult{kind: "transport"}
		}
		return checkJob(p, doc.ErrorKind, int64(doc.Status), []byte(doc.Stdout), doc.Instrs, true)
	}
}

// binaryCallers dials the binary door and returns e.inflight closed-loop
// callers sharing the connection, with the function that closes it. A
// failed dial is recorded on st as one failed operation and yields no
// callers.
func binaryCallers(e *env, addr string, seq *sequencer, served []*program, st *stream) ([]func() opResult, func()) {
	bc, err := dialBinary(addr)
	if err != nil {
		st.record(time.Now(), opResult{kind: "dial"})
		return nil, func() {}
	}
	return repeated(e.inflight, binOp(bc, seq, served)), bc.close
}

// httpClients opens n keep-alive HTTP clients; close them with
// closeAll.
func httpClients(addr string, n int) []*httpClient {
	cs := make([]*httpClient, n)
	for i := range cs {
		cs[i] = newHTTPClient(addr)
	}
	return cs
}

func closeAll(cs []*httpClient) {
	for _, c := range cs {
		c.close()
	}
}

// httpOps is one closed-loop caller per client, one request in flight
// on each.
func httpOps(cs []*httpClient, seq *sequencer, served []*program) []func() opResult {
	ops := make([]func() opResult, len(cs))
	for i, c := range cs {
		ops[i] = httpOp(c, seq, served)
	}
	return ops
}

// uploadRate is how many uploads churn starts per second of its window.
// It fixes the count per run, so the images the cache holds at the end,
// and with them peak_rss_mb, do not grow with build speed. It is set
// above the rate a 2-core host builds them (about 50 per second), so the
// uploads run back to back past the end of the window: were they to end
// inside it, the jobs after them would run without contention and the
// job figures would jump with how early that was.
const uploadRate = 80

// uploadLoop uploads the next n images of the seed's upload stream over
// one HTTP connection, starting one every pace (back to back while an
// upload takes longer than that), and stops early if stop closes. Every
// upload must return 201 with a key not seen before (a fresh build, not
// a cache hit).
func uploadLoop(addr string, gen *uploadGen, st *stream, n int, pace time.Duration, stop <-chan struct{}) {
	hc := newHTTPClient(addr)
	defer hc.close()
	seen := map[string]bool{}
	start := time.Now()
	for i := 0; i < n; i++ {
		select {
		case <-stop:
			return
		case <-time.After(time.Until(start.Add(time.Duration(i) * pace))):
		}
		u := gen.next()
		t0 := time.Now()
		key, err := hc.upload("", u)
		var bad *errUploadStatus
		switch {
		case errors.As(err, &bad):
			st.record(t0, opResult{kind: fmt.Sprintf("http_%d", bad.code)})
		case err != nil:
			st.record(t0, opResult{kind: "transport"})
		case seen[key]:
			st.record(t0, opResult{kind: "mismatch"})
		default:
			seen[key] = true
			st.record(t0, opResult{kind: "ok"})
		}
	}
}

// setUp starts a server and registers the served images through
// POST /v1/images, returning the server and each upload's latency (ms).
func setUp(e *env, served []*program) (*server, []float64, error) {
	srv, err := startServer(serverConfig(e.nproc, poolConfig(e.nproc)))
	if err != nil {
		return nil, nil, err
	}
	hc := newHTTPClient(srv.httpAddr)
	defer hc.close()
	var lat []float64
	for _, p := range served {
		t0 := time.Now()
		if _, err := hc.upload(p.name, upload{src: p.src, wasm: p.wasm}); err != nil {
			srv.close()
			return nil, nil, fmt.Errorf("register %s: %w", p.name, err)
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return srv, lat, nil
}

// warmUp runs every served image a few times on every worker so the
// measured window starts with warm clones parked.
func warmUp(e *env, srv *server, served []*program) error {
	bc, err := dialBinary(srv.binAddr)
	if err != nil {
		return err
	}
	defer bc.close()
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < e.inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for _, p := range served {
					r := bc.do(tenants[0], p.name)
					if r.err != nil || checkJob(p, r.kind, r.status, r.stdout, r.instrs, false).kind != "ok" {
						bad.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d jobs failed or were wrong", n)
	}
	return nil
}

// directOps are model's primary callers: e.nproc of them, each running
// the fig-3 programs in its own seeded order, each run in a fresh timed
// runtime checked for instructions, modelled cycles and output.
func directOps(e *env, direct []*program) []func() opResult {
	ops := make([]func() opResult, e.nproc)
	for i := range ops {
		rng := rand.New(rand.NewSource(e.seed + int64(i)))
		var order []int
		ops[i] = func() opResult {
			if len(order) == 0 {
				order = rng.Perm(len(direct))
			}
			p := direct[order[0]]
			order = order[1:]
			return checkModel(p)
		}
	}
	return ops
}

func checkModel(p *program) opResult {
	got, err := runOnce(p.elf, fig3Config(p), true)
	switch {
	case err != nil:
		return opResult{kind: "run_error"}
	case got.instrs != p.want.instrs || got.cycles != p.want.cycles ||
		got.status != p.want.status || !bytes.Equal(got.stdout, p.want.stdout):
		return opResult{kind: "mismatch"}
	}
	return opResult{kind: "ok", instrs: got.instrs}
}

// runE2E is the untraced run: set up (several times), warm up, then the
// primary phase and the HTTP phase, with churn's uploads running beside
// both. Churn's uploads are spread over the window and the run waits for
// the last of them, so the cache ends up holding the same images
// however fast they build.
func runE2E(w *workload, e *env) (*result, error) {
	res := newResult()
	served, direct, err := w.prepare(e.nproc)
	if err != nil {
		return nil, err
	}
	var setups []float64
	regLat := make([][]float64, len(served)) // per image, one per set-up
	var setupCPU []float64
	setUpOnce := func() (*server, error) {
		t0, c0 := time.Now(), processCPU()
		s, lat, err := setUp(e, served)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (processCPU() - c0).Seconds())
		for k, v := range lat {
			regLat[k] = append(regLat[k], v)
		}
		return s, nil
	}
	srv, err := setUpOnce()
	if err != nil {
		return nil, err
	}
	defer srv.close()
	// Set-up time is process CPU time, so no set-up may run beside
	// churn's uploads; elsewhere they run between the slices below.
	for w.churn && len(setups) < w.setups {
		s, err := setUpOnce()
		if err != nil {
			return nil, err
		}
		s.close()
	}
	if err := warmUp(e, srv, served); err != nil {
		return nil, err
	}

	window := time.Duration(e.seconds * float64(time.Second))
	primaryDur := window / 2
	httpDur := window - primaryDur
	nSlices := max(minSlices, int(primaryDur/sliceLen))
	seq := &sequencer{seq: jobSequence(e.seed, len(served), seqLen)}

	var up *stream
	var upWG sync.WaitGroup
	httpConns := e.nproc
	nUploads := max(1, int(e.seconds*uploadRate))
	var uploadTime time.Duration
	if w.churn {
		up = newStream(window)
		upWG.Add(1)
		go func() {
			defer upWG.Done()
			t0 := time.Now()
			uploadLoop(srv.httpAddr, newUploadGen(e.seed), up, nUploads, window/time.Duration(nUploads), nil)
			uploadTime = time.Since(t0)
		}()
		// The upload connection is one of the nproc connections.
		httpConns = max(1, e.nproc-1)
	}

	primary, hst := newStream(primaryDur), newStream(httpDur)
	var primaryOps []func() opResult
	if w.directProgs != nil {
		primaryOps = directOps(e, direct)
	} else {
		var closeBin func()
		primaryOps, closeBin = binaryCallers(e, srv.binAddr, seq, served, primary)
		defer closeBin()
	}
	cs := httpClients(srv.httpAddr, httpConns)
	defer closeAll(cs)
	hops := httpOps(cs, seq, served)
	// The phases alternate in slices so that each samples the whole run
	// rather than one half of it: the host's speed drifts over seconds.
	// The other set-ups run between slices, spread over the run for the
	// same reason; each closes its server at once. (Churn's have run.)
	for i := 0; i < nSlices; i++ {
		for len(setups) < 1+(w.setups-1)*(i+1)/nSlices {
			s, err := setUpOnce()
			if err != nil {
				return nil, err
			}
			s.close()
		}
		if primaryOps != nil {
			closedLoop(primary, primaryDur/time.Duration(nSlices), primaryOps)
		}
		closedLoop(hst, httpDur/time.Duration(nSlices), hops)
	}
	upWG.Wait()

	// The rates are per second of process CPU time. On a shared host the
	// hypervisor steals a varying share of the guest's time (steal_pct
	// in the host record), and wall-clock rates move with it.
	ops, minstr := primary.sliceRates(true)
	res.metrics["jobs_per_cpu_s"] = ops
	res.metrics["minstr_per_cpu_s"] = minstr
	res.metrics["http_jobs_per_cpu_s"], _ = hst.sliceRates(true)
	res.metrics["p50_ms"] = primary.slicePercentile(0.50)
	res.metrics["setup_s"] = median(setupCPU)
	res.samples["jobs"] = len(primary.latencies())
	res.samples["http_jobs"] = len(hst.latencies())
	// Upload percentiles are over distinct images. Churn uploads each
	// image once; elsewhere an image's latency is its median over the
	// set-ups, so a percentile that falls between two images' latencies
	// (mcf's large data segment makes its registration an outlier)
	// does not flip with noise.
	var ulat []float64
	if up != nil {
		ulat = up.latencies()
	} else {
		for _, l := range regLat {
			ulat = append(ulat, median(l))
		}
	}
	res.samples["uploads"] = len(ulat)
	// The wall-clock figures go in the record beside the metrics.
	wops, wminstr := primary.sliceRates(false)
	whttp, _ := hst.sliceRates(false)
	res.wall = map[string]float64{
		"jobs_per_s":      wops,
		"minstr_per_s":    wminstr,
		"p99_ms":          primary.slicePercentile(0.99),
		"http_jobs_per_s": whttp,
		"http_p99_ms":     hst.slicePercentile(0.99),
		"upload_p50_ms":   percentile(ulat, 0.50),
		"upload_p95_ms":   percentile(ulat, 0.95),
		"setup_s":         median(setups),
	}
	res.samples["setups"] = len(setups)

	res.add("primary", primary)
	res.add("http", hst)
	if up != nil {
		res.add("uploads", up)
	}
	res.metrics["peak_rss_mb"] = peakRSSMiB()

	res.params["served_images"] = len(served)
	res.params["direct_programs"] = len(direct)
	res.params["primary_s"] = primaryDur.Seconds()
	res.params["http_s"] = httpDur.Seconds()
	res.params["http_conns"] = httpConns
	res.params["setups"] = w.setups
	res.params["slices"] = nSlices
	if w.churn {
		res.params["uploads"] = nUploads
		res.params["uploads_s"] = uploadTime.Seconds()
	}
	return res, nil
}
