package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// which it sorts in place. It returns 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads computed here match the ones a Python
// harness computes over the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// opResult is one operation's outcome as the load generator saw it.
type opResult struct {
	// kind is "ok", a server error kind, "transport", "dial", "http_<code>",
	// "run_error", "restore_error" or "mismatch".
	kind   string
	instrs uint64
}

// loadRejection reports whether kind is an operation turned away under
// load (shed, over quota, queue full, server closing) or lost on the
// network. Those count as failed. Every other outcome but "ok" is also
// wrong: the reference run of every input succeeds, so an error kind, a
// failed run or a non-201 upload is an output that differs from it.
func loadRejection(kind string) bool {
	switch kind {
	case "overloaded", "quota", "queue_full", "closed", "transport", "dial":
		return true
	}
	return false
}

// stream records the operations of one measured phase: latency of every
// successful operation and the attempted/failed tally. A phase runs as
// one or more slices; its rates count the operations that finished
// inside a slice over the slices' summed length. Safe for concurrent use.
type stream struct {
	mu         sync.Mutex
	lat        []float64 // ms, ok operations only
	sliceStart time.Time
	sliceDur   time.Duration
	open       sliceStat     // counters at the start of the open slice
	closed     []sliceStat   // one per finished slice
	window     time.Duration // summed length of the finished slices
	okIn       int           // ok operations that finished inside a slice
	instrsIn   uint64        // instructions those operations retired
	attempted  int
	failed     int
	wrong      int
	kinds      map[string]int
}

// sliceStat is what one slice of a stream measured.
type sliceStat struct {
	dur      time.Duration
	cpu      time.Duration // process CPU time used during the slice
	okIn     int
	instrsIn uint64
	lo, hi   int // the slice's latencies are lat[lo:hi]
}

// maxSampleRate sizes a stream's latency buffer up front (operations per
// second of the phase): a buffer that grew during the window would raise
// the process's live heap as it ran, so the collector would run less and
// less often and throughput would climb through the window.
const maxSampleRate = 50_000

// newStream makes the stream of a phase about dur long in all.
func newStream(dur time.Duration) *stream {
	return &stream{kinds: map[string]int{}, lat: make([]float64, 0, int(dur.Seconds()*maxSampleRate))}
}

// begin opens a measured slice of length dur and returns its deadline.
func (s *stream) begin(dur time.Duration) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sliceStart, s.sliceDur = time.Now(), dur
	s.open = sliceStat{cpu: processCPU(), okIn: s.okIn, instrsIn: s.instrsIn, lo: len(s.lat)}
	return s.sliceStart.Add(dur)
}

// end closes the slice. A slice that ran out of work before its length
// counts for the time it took.
func (s *stream) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := min(time.Since(s.sliceStart), s.sliceDur)
	s.window += d
	s.closed = append(s.closed, sliceStat{dur: d, cpu: processCPU() - s.open.cpu, okIn: s.okIn - s.open.okIn,
		instrsIn: s.instrsIn - s.open.instrsIn, lo: s.open.lo, hi: len(s.lat)})
}

// record files one completed operation that was sent at t0.
func (s *stream) record(t0 time.Time, r opResult) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	s.kinds[r.kind]++
	if r.kind != "ok" {
		s.failed++
		if !loadRejection(r.kind) {
			s.wrong++
		}
		return
	}
	s.lat = append(s.lat, float64(now.Sub(t0).Nanoseconds())/1e6)
	if now.Sub(s.sliceStart) <= s.sliceDur {
		s.okIn++
		s.instrsIn += r.instrs
	}
}

// measured is the phase's summed slice length.
func (s *stream) measured() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window
}

// inWindow is how many ok operations finished inside a slice.
func (s *stream) inWindow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.okIn
}

// rates returns ok operations per second and guest Minstr per second
// over the phase's slices. Operations still in flight when a slice
// closed finish afterwards and are not counted.
func (s *stream) rates() (ops, minstr float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.window.Seconds()
	if w <= 0 {
		return 0, 0
	}
	return float64(s.okIn) / w, float64(s.instrsIn) / w / 1e6
}

// sliceRates returns the median over the phase's slices of each slice's
// ok operations and guest Minstr per second: per second of wall-clock
// time, or of the process's CPU time when cpu is set. A stall that hits
// a few slices (the host taking the CPU away for a moment) moves the
// median little, where it would move the overall rate in full.
func (s *stream) sliceRates(cpu bool) (ops, minstr float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var o, m []float64
	for _, c := range s.closed {
		w := c.dur.Seconds()
		if cpu {
			w = c.cpu.Seconds()
		}
		if w > 0 {
			o = append(o, float64(c.okIn)/w)
			m = append(m, float64(c.instrsIn)/w/1e6)
		}
	}
	return median(o), median(m)
}

// slicePercentile returns the median over the phase's slices of each
// slice's nearest-rank q-quantile latency (ms), skipping slices with no
// ok operation.
func (s *stream) slicePercentile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ps []float64
	for _, c := range s.closed {
		if c.hi > c.lo {
			ps = append(ps, percentile(append([]float64(nil), s.lat[c.lo:c.hi]...), q))
		}
	}
	return median(ps)
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// latencies returns a copy of the ok-operation latencies (ms).
func (s *stream) latencies() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.lat...)
}

// tally returns attempted, failed and wrong counts.
func (s *stream) tally() (attempted, failed, wrong int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempted, s.failed, s.wrong
}

// kindCounts returns a copy of the per-outcome counts.
func (s *stream) kindCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.kinds))
	for k, v := range s.kinds {
		out[k] = v
	}
	return out
}
