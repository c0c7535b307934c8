package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.95, 10}, {0.99, 10}, {0.1, 1}, {0.11, 2}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || q1 != c.want[0] || q2 != c.want[1] || q3 != c.want[2] {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v", c.xs, q1, q2, q3, ok, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestRatesOverSlices(t *testing.T) {
	st := newStream(time.Second)
	for slice := 0; slice < 2; slice++ {
		deadline := st.begin(50 * time.Millisecond)
		for i := 0; i < 10; i++ {
			st.record(time.Now(), opResult{kind: "ok", instrs: 500_000})
		}
		time.Sleep(time.Until(deadline) + 10*time.Millisecond)
		st.record(time.Now(), opResult{kind: "ok", instrs: 1}) // finished after the slice closed
		st.end()
	}
	if got := st.measured(); got != 100*time.Millisecond {
		t.Fatalf("measured %v, want the two 50ms slices", got)
	}
	ops, minstr := st.rates()
	if math.Abs(ops-200) > 1e-6 || math.Abs(minstr-100) > 1e-6 {
		t.Errorf("rates = %v/s, %v Minstr/s; want 200/s, 100 Minstr/s", ops, minstr)
	}
	if n := len(st.latencies()); n != 22 {
		t.Errorf("%d latencies, want all 22 ok operations", n)
	}
}

func TestSliceMedians(t *testing.T) {
	st := newStream(time.Second)
	// Three slices of 10 ok operations; the middle one is stalled: it
	// has one slow operation and only its first half was measured.
	for slice, lats := range [][]float64{{1, 2}, {3, 90}, {2, 4}} {
		st.begin(time.Hour)
		for i := 0; i < 10; i++ {
			st.record(time.Now(), opResult{kind: "ok", instrs: 1000})
		}
		st.mu.Lock()
		n := len(st.lat)
		for i := range st.lat[n-10 : n] {
			st.lat[n-10+i] = lats[0]
		}
		st.lat[n-1] = lats[1]
		st.sliceStart = time.Now().Add(-time.Hour)
		st.sliceDur = 100 * time.Millisecond
		if slice == 1 {
			st.sliceDur = 200 * time.Millisecond
		}
		st.mu.Unlock()
		st.end()
	}
	ops, minstr := st.sliceRates(false)
	if math.Abs(ops-100) > 1e-6 || math.Abs(minstr-0.1) > 1e-9 {
		t.Errorf("slice rates = %v/s, %v Minstr/s; want the median slice's 100/s, 0.1 Minstr/s", ops, minstr)
	}
	for i, d := range []time.Duration{50, 400, 80} {
		st.closed[i].cpu = d * time.Millisecond
	}
	ops, minstr = st.sliceRates(true)
	if math.Abs(ops-125) > 1e-6 || math.Abs(minstr-0.125) > 1e-9 {
		t.Errorf("slice CPU rates = %v/s, %v Minstr/s; want 125/s, 0.125 Minstr/s", ops, minstr)
	}
	if got := st.slicePercentile(0.99); got != 4 {
		t.Errorf("slice p99 = %v, want the median slice's 4", got)
	}
	if got := st.slicePercentile(0.5); got != 2 {
		t.Errorf("slice p50 = %v, want 2", got)
	}
}

func TestSliceEndingEarly(t *testing.T) {
	st := newStream(time.Second)
	st.begin(time.Hour)
	st.record(time.Now(), opResult{kind: "ok"})
	st.end()
	if got := st.measured(); got <= 0 || got > time.Second {
		t.Errorf("a slice that ran out of work measured %v, want the time it took", got)
	}
}

func TestStreamCountsFailures(t *testing.T) {
	st := newStream(time.Second)
	now := time.Now()
	rejected := []string{"transport", "dial", "quota", "overloaded", "queue_full", "closed"}
	wrong := []string{"mismatch", "http_400", "http_503", "internal", "deadline", "verify",
		"unknown_image", "canceled", "run_error", "restore_error"}
	for _, k := range append(append([]string{"ok", "ok"}, rejected...), wrong...) {
		st.record(now, opResult{kind: k, instrs: 7})
	}
	a, f, w := st.tally()
	if a != 18 || f != 16 || w != 10 {
		t.Errorf("attempted/failed/wrong = %d/%d/%d, want 18/16/10", a, f, w)
	}
	if n := len(st.latencies()); n != 2 {
		t.Errorf("%d latencies recorded, want only the 2 ok ones", n)
	}
}
