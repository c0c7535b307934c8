package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestRungCost(t *testing.T) {
	// 1000 jobs in 50ms on 2 cores: 100 core-µs each.
	if got := rungCost(50*time.Millisecond, 2, 1000); math.Abs(got-100) > 1e-9 {
		t.Errorf("rungCost = %v, want 100", got)
	}
	if got := rungCost(time.Second, 2, 0); got != 0 {
		t.Errorf("rungCost with no jobs = %v, want 0", got)
	}
}

func TestLadderSelfTimesAddUp(t *testing.T) {
	l := &ladder{lfirt: 60, pool: 80, doors: map[string]float64{"bin": 130, "http": 180}, restore: 35, run: 24}
	for door, top := range l.doors {
		s, p, r := l.selfTimes(door)
		if math.Abs(s+p+r-top) > 1e-9 {
			t.Errorf("%s: self times %v+%v+%v do not add up to the rung %v", door, s, p, r, top)
		}
		if s <= 0 || p <= 0 || r <= 0 {
			t.Errorf("%s: self times %v %v %v should all be positive here", door, s, p, r)
		}
	}
	// The lfirt rung's spans cover 59 of its 60 µs: 1 µs of 130 unattributed.
	if got := l.residualPct("bin"); math.Abs(got-100.0/130) > 1e-9 {
		t.Errorf("residual = %v%%, want %v%%", got, 100.0/130)
	}
	if got := l.residualPct("bin"); got > residualBoundPct {
		t.Errorf("residual %v%% exceeds the %d%% bound", got, residualBoundPct)
	}
	if got := (&ladder{doors: map[string]float64{}}).residualPct("bin"); got != 0 {
		t.Errorf("empty ladder residual = %v", got)
	}
}

func TestLadderCheckFailsOnLargeResidual(t *testing.T) {
	l := &ladder{lfirt: 60, pool: 80, doors: map[string]float64{"bin": 130, "http": 180}, restore: 35, run: 24}
	if err := l.check(); err != nil {
		t.Errorf("a 0.8%% residual failed the check: %v", err)
	}
	// Spans covering 40 of the lfirt rung's 60 µs leave 20 of 130: 15%.
	l.run = 5
	if err := l.check(); err == nil {
		t.Error("a 15% residual passed the check")
	}
	// Spans adding up to more than the rung are as far off.
	l.run = 45
	if err := l.check(); err == nil {
		t.Error("a -15% residual passed the check")
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program runs and emits, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, allWorkloads[i].name)
		}
	}
	check := func(kind string, names, units, better []string, specs []metricSpec) {
		if len(names) != len(specs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(names), len(specs))
			return
		}
		for i, s := range specs {
			if names[i] != s.name || units[i] != s.unit || better[i] != s.better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, program %s %s %s",
					kind, i, names[i], units[i], better[i], s.name, s.unit, s.better)
			}
		}
	}
	var n, u, b []string
	for _, m := range doc.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", n, u, b, e2eMetrics)
	n, u, b = nil, nil, nil
	for _, m := range doc.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", n, u, b, layerMetrics)
}
