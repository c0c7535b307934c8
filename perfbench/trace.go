package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/elfobj"
	"lfi/internal/emu"
	"lfi/internal/lfirt"
	"lfi/internal/obs"
	"lfi/internal/pool"
	"lfi/internal/rewrite"
	"lfi/internal/serve"
	"lfi/internal/verifier"
	"lfi/internal/wasmbase"
	"lfi/internal/wasmfront"
)

// The traced run sends the workload's seeded job sequence down a ladder
// of rungs, each one layer further from the sandbox, in rounds that run
// the same jobs through every rung:
//
//	lfirt  Restore → Start → RunProcDeadline on worker-configured runtimes
//	pool   Pool.Do with the same number of callers as the binary door
//	doors  the binary protocol and HTTP POST /v1/jobs of a served run
//
// A rung's cost is core-microseconds per job (wall time × cores ÷ jobs),
// the quantity jobs_per_s is the inverse of, so a layer's self time is
// its rung's cost minus the rung below and the self times add up to the
// top rung. The lfirt rung is split further into its timed restore and
// run spans; what those do not cover is the ladder's residual. The run
// also times each compile stage, the timing model's retire cost and
// Cache.Lookup under concurrent builds, and reads the programs' public
// counters as before/after deltas. All spans stay in memory.

// residualBoundPct is the largest share of the top rung the lfirt rung's
// unattributed time may take; a traced run whose ladder leaves more
// unaccounted for is incorrect.
const residualBoundPct = 10

// ladder holds the per-job costs of each rung, in core-µs.
type ladder struct {
	lfirt, pool float64
	doors       map[string]float64
	// restore and run are the lfirt rung's timed parts, µs per job.
	restore, run float64
}

// selfTimes splits a door's rung into the self time of each layer:
// serve (door minus pool), pool (pool minus lfirt) and lfirt.
func (l *ladder) selfTimes(door string) (serveSelf, poolSelf, lfirtSelf float64) {
	return l.doors[door] - l.pool, l.pool - l.lfirt, l.lfirt
}

// residualPct is the lfirt rung's time not covered by its restore and
// run spans, as a percentage of door's rung.
func (l *ladder) residualPct(door string) float64 {
	top := l.doors[door]
	if top == 0 {
		return 0
	}
	return 100 * (l.lfirt - l.restore - l.run) / top
}

// check fails if the lfirt rung's time differs from the sum of its
// spans by more than residualBoundPct of either door's rung.
func (l *ladder) check() error {
	for _, d := range []string{"bin", "http"} {
		if r := l.residualPct(d); math.Abs(r) > residualBoundPct {
			return fmt.Errorf("ladder: %.1f%% of the %s rung is unaccounted for (bound %d%%)", r, d, residualBoundPct)
		}
	}
	return nil
}

// rungCost is the per-job cost in core-µs of jobs done in wall time on
// cores cores.
func rungCost(wall time.Duration, cores, jobs int) float64 {
	if jobs == 0 {
		return 0
	}
	return float64(wall.Nanoseconds()) / 1e3 * float64(cores) / float64(jobs)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// tracer accumulates the traced run's metrics and its step budget.
type tracer struct {
	w      *workload
	e      *env
	res    *result
	step   time.Duration // time given to each timed step
	served []*program
	direct []*program
	rc     lfirt.Config
	imgs   []*pool.Image
	seq    []job
}

// rounds is how many times the ladder is climbed. Each round runs a new
// segment of the job sequence through every rung in turn, so the host's
// drifting speed falls on all rungs alike.
const rounds = 5

func runTrace(w *workload, e *env) (*result, error) {
	served, direct, err := w.prepare(e.nproc)
	if err != nil {
		return nil, err
	}
	t := &tracer{
		w: w, e: e, res: newResult(), served: served, direct: direct,
		rc:   poolConfig(e.nproc).RuntimeConfig(),
		seq:  jobSequence(e.seed, len(served), seqLen),
		step: time.Duration(e.seconds * float64(time.Second) / 8),
	}
	cache := pool.NewCache(t.rc)
	for _, p := range served {
		var img *pool.Image
		if p.wasm != nil {
			img, err = cache.BuildWasm(p.wasm, core.Options{Opt: core.O2})
		} else {
			img, err = cache.Build(p.src, core.Options{Opt: core.O2})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		t.imgs = append(t.imgs, img)
	}
	l, err := t.climb(cache)
	if err != nil {
		return nil, err
	}
	if err := t.compileStages(); err != nil {
		return nil, err
	}
	if err := t.retire(); err != nil {
		return nil, err
	}
	if err := t.lookupContention(); err != nil {
		return nil, err
	}

	m := t.res.metrics
	m["ladder.lfirt_us"] = l.lfirt
	m["ladder.pool_us"] = l.pool
	m["ladder.bin_us"] = l.doors["bin"]
	m["ladder.http_us"] = l.doors["http"]
	binSelf, poolSelf, _ := l.selfTimes("bin")
	httpSelf, _, _ := l.selfTimes("http")
	m["serve.bin_self_us"] = binSelf
	m["serve.http_self_us"] = httpSelf
	m["pool.self_us"] = poolSelf
	m["ladder.residual_pct"] = l.residualPct("bin")
	if err := l.check(); err != nil {
		t.res.problems = append(t.res.problems, err.Error())
	}
	m["traced.peak_rss_mb"] = peakRSSMiB()
	t.res.params["residual_bound_pct"] = residualBoundPct
	t.res.params["step_s"] = t.step.Seconds()
	t.res.params["ladder_rounds"] = rounds
	printLadder(l)
	return t.res, nil
}

func printLadder(l *ladder) {
	fmt.Fprintf(os.Stderr, "ladder (core-µs per job)   rung       self\n")
	fmt.Fprintf(os.Stderr, "  lfirt                %8.2f   %8.2f  (restore %.2f + run %.2f + residual %.2f)\n",
		l.lfirt, l.lfirt, l.restore, l.run, l.lfirt-l.restore-l.run)
	fmt.Fprintf(os.Stderr, "  pool                 %8.2f   %8.2f\n", l.pool, l.pool-l.lfirt)
	for _, d := range []string{"bin", "http"} {
		fmt.Fprintf(os.Stderr, "  serve %-14s %8.2f   %8.2f  residual %.1f%% of rung (bound %d%%)\n",
			d, l.doors[d], l.doors[d]-l.pool, l.residualPct(d), residualBoundPct)
	}
}

// rungCap bounds each count-limited rung's time in a round. A rung that
// hits it (churn's doors, slowed by the uploads beside them) runs fewer
// jobs than the lfirt rung; its cost is still per job.
func (t *tracer) rungCap() time.Duration { return 2 * t.step / rounds }

// lfirtWorker is one core's runtime on the lfirt rung, with its span
// totals. Only its own goroutine touches it while the rung runs.
type lfirtWorker struct {
	rt               *lfirt.Runtime
	before           lfirt.RuntimeStats
	restoreNS, runNS int64
	pages            int
}

// lfirtOp restores the next job's snapshot on w's runtime, starts it and
// runs it to exit, timing the restore and the run.
func (t *tracer) lfirtOp(w *lfirtWorker, seq *sequencer) func() opResult {
	return func() opResult {
		j, ok := seq.next()
		if !ok {
			return opResult{}
		}
		p, img := t.served[j.prog], t.imgs[j.prog]
		t0 := time.Now()
		proc, err := w.rt.Restore(img.Snap)
		if err != nil {
			return opResult{kind: "restore_error"}
		}
		t1 := time.Now()
		w.rt.Start(proc)
		i0 := w.rt.CPU.Instrs
		status, err := w.rt.RunProcDeadline(proc, refBudget)
		t2 := time.Now()
		w.restoreNS += t1.Sub(t0).Nanoseconds()
		w.runNS += t2.Sub(t1).Nanoseconds()
		w.pages += img.Snap.Pages()
		return checkJob(p, kindOf(err), int64(status), proc.Stdout(), w.rt.CPU.Instrs-i0, false)
	}
}

// poolOp submits the next job through Pool.Do.
func (t *tracer) poolOp(p *pool.Pool, seq *sequencer) func() opResult {
	return func() opResult {
		j, ok := seq.next()
		if !ok {
			return opResult{}
		}
		res, err := p.Do(pool.Job{Image: t.imgs[j.prog]})
		if err != nil {
			return opResult{kind: kindOf(err)}
		}
		return checkJob(t.served[j.prog], kindOf(res.Err), int64(res.Status), res.Stdout, res.Instrs, false)
	}
}

// climb runs the ladder. In each round the lfirt rung runs for its share
// of a step, on one runtime per core; the pool rung (Pool.Do with as
// many callers as the binary door keeps in flight) and then each served
// door run exactly the jobs it ran. Churn's uploads run beside the doors
// only. The server's counters are read before and after.
func (t *tracer) climb(cache *pool.Cache) (*ladder, error) {
	workers := make([]*lfirtWorker, t.e.nproc)
	for i := range workers {
		rt := lfirt.New(t.rc)
		workers[i] = &lfirtWorker{rt: rt, before: rt.Stats()}
	}
	pc := poolConfig(t.e.nproc)
	pc.SharedCache = cache
	pl := pool.New(pc)
	defer pl.Close()
	srv, _, err := setUp(t.e, t.served)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	if err := warmUp(t.e, srv, t.served); err != nil {
		return nil, err
	}
	bc, err := dialBinary(srv.binAddr)
	if err != nil {
		return nil, fmt.Errorf("dial binary door: %w", err)
	}
	defer bc.close()
	conns := t.e.nproc
	if t.w.churn {
		conns = max(1, t.e.nproc-1) // the upload connection is one of nproc
	}
	cs := httpClients(srv.httpAddr, conns)
	defer closeAll(cs)

	total := t.step * rounds
	lst, pst, bst, hst := newStream(total), newStream(total), newStream(total), newStream(total)
	up := newStream(total)
	uploads := newUploadGen(t.e.seed)
	m0, s0, q0 := srv.srv.MetricsSnapshot(), srv.srv.ShardStats(0), tenantTotals(srv.srv)
	var off uint64
	for r := 0; r < rounds; r++ {
		lseq := &sequencer{seq: t.seq, off: off}
		ops := make([]func() opResult, len(workers))
		for i, w := range workers {
			ops[i] = t.lfirtOp(w, lseq)
		}
		closedLoop(lst, t.step/rounds, ops)
		n := lseq.issued()
		if n == 0 {
			return nil, fmt.Errorf("ladder round %d: the lfirt rung finished no job in %v", r, t.step/rounds)
		}
		segment := func() *sequencer { return &sequencer{seq: t.seq, off: off, limit: n} }
		closedLoop(pst, t.rungCap(), repeated(t.e.inflight, t.poolOp(pl, segment())))

		stop := make(chan struct{})
		var upWG sync.WaitGroup
		if t.w.churn {
			upWG.Add(1)
			go func() {
				defer upWG.Done()
				uploadLoop(srv.httpAddr, uploads, up, math.MaxInt, time.Second/uploadRate, stop)
			}()
		}
		closedLoop(bst, t.rungCap(), repeated(t.e.inflight, binOp(bc, segment(), t.served)))
		closedLoop(hst, t.rungCap(), httpOps(cs, segment(), t.served))
		close(stop)
		upWG.Wait()
		off += n
	}
	m1, s1, q1 := srv.srv.MetricsSnapshot(), srv.srv.ShardStats(0), tenantTotals(srv.srv)
	for name, st := range map[string]*stream{"lfirt": lst, "pool": pst, "bin": bst, "http": hst} {
		t.res.add(name, st)
	}
	if t.w.churn {
		t.res.add("uploads", up)
	}

	cost := func(st *stream) float64 { return rungCost(st.measured(), t.e.nproc, st.inWindow()) }
	l := &ladder{
		lfirt: cost(lst),
		pool:  cost(pst),
		doors: map[string]float64{"bin": cost(bst), "http": cost(hst)},
	}
	jobs := len(lst.latencies())
	var restoreNS, runNS int64
	var pages int
	var hostCalls, preempts uint64
	var st emu.Stats
	for _, w := range workers {
		after := w.rt.Stats()
		restoreNS += w.restoreNS
		runNS += w.runNS
		pages += w.pages
		hostCalls += after.HostCalls - w.before.HostCalls
		preempts += after.Preempts - w.before.Preempts
		st.Add(statsDelta(after.Emu, w.before.Emu))
	}
	perJob := func(v float64) float64 { return v / float64(max(jobs, 1)) }
	l.restore = perJob(float64(restoreNS) / 1e3)
	l.run = perJob(float64(runNS) / 1e3)

	m := t.res.metrics
	m["lfirt.restore_us"] = l.restore
	m["lfirt.run_us"] = l.run
	m["lfirt.snapshot_pages"] = perJob(float64(pages))
	m["lfirt.host_calls_per_job"] = ratio(hostCalls, uint64(jobs))
	m["lfirt.preempts_per_job"] = ratio(preempts, uint64(jobs))
	m["emu.block_misses_per_job"] = ratio(st.BlockMisses, uint64(jobs))
	m["emu.block_hit_ratio"] = ratio(st.BlockHits, st.BlockHits+st.BlockMisses)
	m["emu.chain_hit_ratio"] = ratio(st.ChainHits, st.ChainHits+st.ChainMisses)
	m["emu.sb_side_exit_ratio"] = ratio(st.SBSideExits, st.SBEnters)
	lookups := st.TCReadHits + st.TCReadMisses + st.TCWriteHits + st.TCWriteMisses
	m["emu.fused_access_ratio"] = ratio(st.FusedAccesses, st.FusedAccesses+lookups)
	m["emu.tc_read_hit_ratio"] = ratio(st.TCReadHits, st.TCReadHits+st.TCReadMisses)
	m["emu.tc_write_hit_ratio"] = ratio(st.TCWriteHits, st.TCWriteHits+st.TCWriteMisses)
	t.res.samples["ladder_jobs"] = jobs

	us := func(name string, q float64) float64 {
		h := histDelta(m1.Histograms[name], m0.Histograms[name])
		return float64(h.Quantile(q)) / 1e3
	}
	m["serve.queue_wait_p50_us"] = us("serve.latency.queue_wait_ns", 0.50)
	m["serve.queue_wait_p99_us"] = us("serve.latency.queue_wait_ns", 0.99)
	// The pool's latency quantiles come from the pool rung's own pool,
	// whole: its first job per worker and image restores inline, so the
	// restore histogram has samples even where every served job hits a
	// warm clone.
	pm := pl.Metrics()
	poolUS := func(name string) float64 {
		h := pm.Histograms[name]
		return float64(h.Quantile(0.50)) / 1e3
	}
	m["pool.queue_wait_p50_us"] = poolUS("pool.latency.queue_wait_ns")
	m["pool.restore_p50_us"] = poolUS("pool.latency.restore_ns")
	m["pool.run_p50_us"] = poolUS("pool.latency.run_ns")
	done := s1.Completed - s0.Completed
	m["pool.warm_hit_ratio"] = ratio(s1.WarmHits-s0.WarmHits, done)
	m["pool.restores_per_job"] = ratio(s1.Restores-s0.Restores, done)
	m["pool.evictions_per_job"] = ratio(s1.Evictions-s0.Evictions, done)
	m["serve.shed"] = float64(q1.shed - q0.shed)
	m["serve.quota"] = float64(q1.quota - q0.quota)

	primary := bst
	if t.w.directProgs != nil {
		primary = newStream(t.step)
		closedLoop(primary, t.step, directOps(t.e, t.direct))
		t.res.add("direct", primary)
	}
	ops, minstr := primary.rates()
	lat := primary.latencies()
	m["traced.jobs_per_s"] = ops
	m["traced.minstr_per_s"] = minstr
	m["traced.p50_ms"] = percentile(lat, 0.50)
	m["traced.p99_ms"] = percentile(lat, 0.99)
	cops, cminstr := primary.sliceRates(true)
	m["traced.jobs_per_cpu_s"] = cops
	m["traced.minstr_per_cpu_s"] = cminstr
	m["traced.http_jobs_per_cpu_s"], _ = hst.sliceRates(true)
	hrate, _ := hst.rates()
	m["traced.http_jobs_per_s"] = hrate
	m["traced.http_p99_ms"] = percentile(hst.latencies(), 0.99)
	return l, nil
}

// kindOf names a run error the way the serving layer would.
func kindOf(err error) string {
	kind, _ := serve.ErrorKind(err)
	return kind
}

func statsDelta(a, b emu.Stats) emu.Stats {
	return emu.Stats{
		BlockHits: a.BlockHits - b.BlockHits, BlockMisses: a.BlockMisses - b.BlockMisses,
		TCReadHits: a.TCReadHits - b.TCReadHits, TCReadMisses: a.TCReadMisses - b.TCReadMisses,
		TCWriteHits: a.TCWriteHits - b.TCWriteHits, TCWriteMisses: a.TCWriteMisses - b.TCWriteMisses,
		ChainHits: a.ChainHits - b.ChainHits, ChainMisses: a.ChainMisses - b.ChainMisses,
		SBEnters: a.SBEnters - b.SBEnters, SBSideExits: a.SBSideExits - b.SBSideExits,
		FusedAccesses: a.FusedAccesses - b.FusedAccesses,
	}
}

type tenantCounts struct{ shed, quota uint64 }

func tenantTotals(s *serve.Server) tenantCounts {
	var c tenantCounts
	for _, ts := range s.Status().Tenants {
		c.shed += ts.Shed
		c.quota += ts.QuotaRejects
	}
	return c
}

// histDelta is the histogram of the observations made between two
// snapshots of one histogram.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i, b := range after.Buckets {
		if i < len(before.Buckets) {
			b.Count -= before.Buckets[i].Count
		}
		d.Buckets = append(d.Buckets, b)
	}
	return d
}

// compileItem is one image body for the compile-stage ladder.
type compileItem struct {
	src  string
	wasm []byte
}

// compileCorpus is what the compile stages are timed on: the churn
// upload stream for churn, the served images otherwise. Workloads
// without a Wasm image time the three Wasm samples too, so the Wasm
// stages are measured on every workload.
func (t *tracer) compileCorpus() []compileItem {
	var items []compileItem
	hasWasm := false
	if t.w.churn {
		gen := newUploadGen(t.e.seed)
		for i := 0; i < 64; i++ {
			u := gen.next()
			items = append(items, compileItem{src: u.src, wasm: u.wasm})
			hasWasm = hasWasm || u.wasm != nil
		}
	} else {
		for _, p := range t.served {
			items = append(items, compileItem{src: p.src, wasm: p.wasm})
			hasWasm = hasWasm || p.wasm != nil
		}
	}
	if !hasWasm {
		for _, p := range wasmPrograms() {
			items = append(items, compileItem{wasm: p.wasm})
		}
	}
	return items
}

// compileStages times each stage of an image build, one call after
// another, over the compile corpus until the step is spent. The load
// stage includes the runtime's load-time verification.
func (t *tracer) compileStages() error {
	items := t.compileCorpus()
	var parse, rw, asm, marshal, verify, validate, translate, load, snap, build time.Duration
	var srcKB, textMB float64
	var nImg, nWasm, nBuild int
	deadline := time.Now().Add(t.step)
	// Every corpus holds a Wasm module, so the loop ends.
	for i := 0; nWasm == 0 || time.Now().Before(deadline); i++ {
		it := items[i%len(items)]
		src := it.src
		if it.wasm != nil {
			t0 := time.Now()
			if _, err := wasmbase.ValidateModule(it.wasm); err != nil {
				return fmt.Errorf("validate: %w", err)
			}
			t1 := time.Now()
			out, _, err := wasmfront.Translate(it.wasm)
			if err != nil {
				return fmt.Errorf("translate: %w", err)
			}
			validate += t1.Sub(t0)
			translate += time.Since(t1)
			nWasm++
			src = out
		}
		t0 := time.Now()
		f, err := arm64.ParseFile(src)
		if err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		t1 := time.Now()
		nf, _, err := rewrite.Rewrite(f, core.Options{Opt: core.O2})
		if err != nil {
			return fmt.Errorf("rewrite: %w", err)
		}
		t2 := time.Now()
		img, err := arm64.Assemble(nf, arm64.Layout{TextBase: core.MinCodeOffset, PageSize: 16 * 1024})
		if err != nil {
			return fmt.Errorf("assemble: %w", err)
		}
		t3 := time.Now()
		elfBytes, err := elfobj.FromImage(img).Marshal()
		if err != nil {
			return fmt.Errorf("marshal: %w", err)
		}
		t4 := time.Now()
		exe, err := elfobj.Unmarshal(elfBytes)
		if err != nil {
			return fmt.Errorf("unmarshal: %w", err)
		}
		text, err := exe.TextSegment()
		if err != nil {
			return err
		}
		vc := t.rc.VerifierCfg
		vc.TextOff = text.Vaddr
		t5 := time.Now()
		if _, err := verifier.Verify(text.Data, vc); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		t6 := time.Now()
		rt := lfirt.New(t.rc)
		t7 := time.Now()
		proc, err := rt.LoadExecutable(exe)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		t8 := time.Now()
		if _, err := rt.Snapshot(proc); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		t9 := time.Now()
		parse += t1.Sub(t0)
		rw += t2.Sub(t1)
		asm += t3.Sub(t2)
		marshal += t4.Sub(t3)
		verify += t6.Sub(t5)
		load += t8.Sub(t7)
		snap += t9.Sub(t8)
		srcKB += float64(len(src)) / 1024
		textMB += float64(len(text.Data)) / (1 << 20)
		nImg++

		// The whole build, as the image cache runs it on a miss.
		c := pool.NewCache(t.rc)
		t10 := time.Now()
		if it.wasm != nil {
			_, err = c.BuildWasm(it.wasm, core.Options{Opt: core.O2})
		} else {
			_, err = c.Build(it.src, core.Options{Opt: core.O2})
		}
		if err != nil {
			return fmt.Errorf("cache build: %w", err)
		}
		build += time.Since(t10)
		nBuild++
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	m := t.res.metrics
	m["arm64.parse_us_per_kb"] = us(parse) / srcKB
	m["rewrite.us_per_kb"] = us(rw) / srcKB
	m["arm64.assemble_us_per_kb"] = us(asm) / srcKB
	m["elfobj.marshal_us"] = us(marshal) / float64(nImg)
	m["verifier.mb_per_s"] = textMB / verify.Seconds()
	m["wasmbase.validate_us"] = us(validate) / float64(max(nWasm, 1))
	m["wasmfront.translate_us"] = us(translate) / float64(max(nWasm, 1))
	m["lfirt.load_ms"] = us(load) / 1e3 / float64(nImg)
	m["lfirt.snapshot_ms"] = us(snap) / 1e3 / float64(nImg)
	m["pool.cache_build_ms"] = us(build) / 1e3 / float64(nBuild)
	t.res.samples["compiled_images"] = nImg
	t.res.attempted += nImg
	return nil
}

// retire runs instruction-heavy programs with and without the M1 timing
// model on the fast path and attributes the difference per instruction
// to timing-model retire: the workload's own programs, or the 14 kernels
// when its jobs retire too few instructions to time (tiny, churn).
func (t *tracer) retire() error {
	var progsToRun []*program
	for _, p := range append(append([]*program(nil), t.served...), t.direct...) {
		if !p.native && p.want.instrs >= minTimedInstrs {
			progsToRun = append(progsToRun, p)
		}
	}
	if len(progsToRun) == 0 {
		for _, p := range kernelPrograms() {
			if err := p.build(); err != nil {
				return err
			}
			progsToRun = append(progsToRun, p)
		}
	}
	untimed := poolConfig(t.e.nproc).RuntimeConfig()
	untimed.Model = nil
	timed := untimed
	var plainNS, timedNS int64
	var instrs uint64
	deadline := time.Now().Add(t.step)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, p := range progsToRun {
			timed.Model = emu.ModelM1()
			a, na, err := runTimed(p.elf, untimed)
			if err != nil {
				return err
			}
			b, nb, err := runTimed(p.elf, timed)
			if err != nil {
				return err
			}
			if na != nb {
				return fmt.Errorf("%s: timed run retired %d instructions, untimed %d", p.name, nb, na)
			}
			plainNS += a.Nanoseconds()
			timedNS += b.Nanoseconds()
			instrs += na
		}
	}
	t.res.metrics["emu.ns_per_instr"] = float64(plainNS) / float64(instrs)
	t.res.metrics["emu.retire_ns_per_instr"] = float64(timedNS-plainNS) / float64(instrs)
	return nil
}

// minTimedInstrs is the smallest run the retire measurement times.
const minTimedInstrs = 10_000

// runTimed loads elf into a fresh runtime and times its run alone.
func runTimed(elf []byte, rc lfirt.Config) (time.Duration, uint64, error) {
	rt := lfirt.New(rc)
	p, err := rt.Load(elf)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if _, err := rt.RunProcDeadline(p, refBudget); err != nil {
		return 0, 0, err
	}
	return time.Since(t0), rt.CPU.Instrs, nil
}

// lookupContention times Cache.Lookup of a hot image while another
// goroutine builds the churn upload stream into the same cache, the
// lock every job's image resolution takes. Every build must succeed.
func (t *tracer) lookupContention() error {
	c := pool.NewCache(t.rc)
	hot, err := c.Build(tinySource(), core.Options{Opt: core.O2})
	if err != nil {
		return err
	}
	var stop atomic.Bool
	var builds int
	var buildErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := newUploadGen(t.e.seed)
		for !stop.Load() && buildErr == nil {
			u := gen.next()
			if u.wasm != nil {
				_, buildErr = c.BuildWasm(u.wasm, core.Options{Opt: core.O2})
			} else {
				_, buildErr = c.Build(u.src, core.Options{Opt: core.O2})
			}
			builds++
		}
	}()
	lat := make([]float64, 0, 1<<16)
	deadline := time.Now().Add(t.step)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		c.Lookup(hot.Key)
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		// Pace the lookups like job arrivals rather than spinning on the
		// lock, so the builder is not starved of its core.
		time.Sleep(20 * time.Microsecond)
	}
	stop.Store(true)
	wg.Wait()
	if buildErr != nil {
		return fmt.Errorf("build beside lookups: %w", buildErr)
	}
	t.res.metrics["pool.cache_lookup_p99_us"] = percentile(lat, 0.99)
	t.res.samples["lookups"] = len(lat)
	t.res.attempted += builds
	return nil
}
