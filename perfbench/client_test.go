package main

import (
	"net"
	"testing"
	"time"
)

// binPhase drives seq through the binary door as one slice of length dur.
func binPhase(e *env, addr string, seq *sequencer, served []*program, dur time.Duration) *stream {
	st := newStream(dur)
	ops, done := binaryCallers(e, addr, seq, served, st)
	defer done()
	if ops != nil {
		closedLoop(st, dur, ops)
	}
	return st
}

// httpPhase drives seq through conns HTTP connections as one slice.
func httpPhase(addr string, conns int, seq *sequencer, served []*program, dur time.Duration) *stream {
	st := newStream(dur)
	cs := httpClients(addr, conns)
	defer closeAll(cs)
	closedLoop(st, dur, httpOps(cs, seq, served))
	return st
}

// tinyServer starts a served tiny image and returns the server and the
// program with its reference outcome.
func tinyServer(t *testing.T) (*server, *program) {
	t.Helper()
	w := findWorkload("tiny")
	served, _, err := w.prepare(2)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := setUp(&env{nproc: 2, inflight: 4}, served)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.close)
	return srv, served[0]
}

func TestDoorsCountOutcomes(t *testing.T) {
	srv, tiny := tinyServer(t)
	e := &env{nproc: 2, inflight: 4}
	unknown := &program{name: "no-such-image", want: tiny.want}
	wrong := &program{name: tiny.name, want: outcome{stdout: []byte("other\n"), instrs: tiny.want.instrs}}
	served := []*program{tiny, unknown, wrong}
	seq := func(prog int) *sequencer {
		s := make([]job, 10)
		for i := range s {
			s[i] = job{prog: prog, tenant: tenants[i%2]}
		}
		return &sequencer{seq: s, limit: 10}
	}
	// Every outcome but ok is a failure; one that is not a load
	// rejection (here an unknown image or a wrong stdout) is also wrong.
	for _, c := range []struct {
		prog  int
		kind  string
		wrong int
	}{{0, "ok", 0}, {1, "unknown_image", 10}, {2, "mismatch", 10}} {
		for door, st := range map[string]*stream{
			"bin":  binPhase(e, srv.binAddr, seq(c.prog), served, 5*time.Second),
			"http": httpPhase(srv.httpAddr, 2, seq(c.prog), served, 5*time.Second),
		} {
			a, f, w := st.tally()
			wantFailed := 10
			if c.kind == "ok" {
				wantFailed = 0
			}
			if a != 10 || f != wantFailed || w != c.wrong || st.kindCounts()[c.kind] != 10 {
				t.Errorf("%s %s: attempted/failed/wrong %d/%d/%d, kinds %v", door, c.kind, a, f, w, st.kindCounts())
			}
		}
	}
}

// A server closed straight after it starts must still stop: ServeBinary
// may not have registered its listener with the server yet.
func TestServerCloseRightAfterStart(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s, err := startServer(serverConfig(1, poolConfig(1)))
			if err != nil {
				t.Error(err)
				return
			}
			s.close()
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("closing a just-started server hung")
	}
}

func TestDialErrorCountsAsFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens there now
	st := binPhase(&env{inflight: 2}, addr, &sequencer{seq: []job{{}}}, []*program{{name: "x"}}, time.Second)
	if a, f, _ := st.tally(); a != 1 || f != 1 || st.kindCounts()["dial"] != 1 {
		t.Errorf("dial failure tallied as %d attempted, %d failed, kinds %v", a, f, st.kindCounts())
	}
}

func TestTransportErrorCountsAsFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close() // hang up on every request
		}
	}()
	seq := &sequencer{seq: []job{{tenant: "pro"}}, limit: 5}
	st := binPhase(&env{inflight: 1}, ln.Addr().String(), seq, []*program{{name: "x"}}, 5*time.Second)
	if a, f, _ := st.tally(); a != 5 || f != 5 || st.kindCounts()["transport"] != 5 {
		t.Errorf("hang-ups tallied as %d attempted, %d failed, kinds %v", a, f, st.kindCounts())
	}
}

func TestUploadsAreFreshBuilds(t *testing.T) {
	srv, _ := tinyServer(t)
	st := newStream(time.Minute)
	uploadLoop(srv.httpAddr, newUploadGen(1), st, 6, 0, nil)
	if a, f, _ := st.tally(); a != 6 || f != 0 {
		t.Fatalf("uploads: %d attempted, %d failed, kinds %v", a, f, st.kindCounts())
	}
}

// Uploads start on their pace, and a closed stop ends the stream early.
func TestUploadsArePaced(t *testing.T) {
	srv, _ := tinyServer(t)
	st := newStream(time.Minute)
	t0 := time.Now()
	uploadLoop(srv.httpAddr, newUploadGen(2), st, 3, 200*time.Millisecond, nil)
	if d := time.Since(t0); d < 400*time.Millisecond {
		t.Errorf("3 uploads 200ms apart took %v", d)
	}
	stop := make(chan struct{})
	close(stop)
	uploadLoop(srv.httpAddr, newUploadGen(3), st, 100, 0, stop)
	if a, f, _ := st.tally(); a != 3 || f != 0 {
		t.Errorf("uploads: %d attempted, %d failed, want the 3 paced ones; kinds %v", a, f, st.kindCounts())
	}
}
