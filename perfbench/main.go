// Command perfbench is the repository's benchmark. It serves seeded
// workloads from an in-process lfi-serve over loopback sockets (or, for
// model, runs the paper's timed fig-3 path), checks every output against
// a per-step-interpreter reference, and prints the end-to-end metrics;
// with -trace 1 it instead walks each workload down a ladder of layers
// and prints per-layer metrics. See README.md.
//
// Usage, from the repository root (run.py builds the module, which has
// its own go.mod, and passes its arguments through):
//
//	python3 perfbench/run.py -workload tiny -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong output, any failure
// other than a load rejection, or a failed ladder check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	wname := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured window, seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	repeat := flag.Int("repeat", 1, "run this many seeds from -seed up, each in its own process, and summarize")
	flag.Parse()

	w := findWorkload(*wname)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	if *repeat > 1 {
		if err := summarize(w.name, *seed, *repeat, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}
	nproc := runtime.NumCPU()
	e := &env{seed: *seed, seconds: *seconds, nproc: nproc, inflight: 2 * nproc}

	var res *result
	var err error
	steal := startSteal()
	if *trace == 1 {
		res, err = runTrace(w, e)
	} else {
		res, err = runE2E(w, e)
	}
	if err != nil {
		fatal(err)
	}
	if res.attempted == 0 {
		fatal(fmt.Errorf("no operation was attempted"))
	}
	specs := e2eMetrics
	if *trace == 1 {
		specs = layerMetrics
	}
	if len(res.metrics) != len(specs) {
		fatal(fmt.Errorf("emitted %d metrics, expected %d", len(res.metrics), len(specs)))
	}
	for _, s := range specs {
		if _, ok := res.metrics[s.name]; !ok {
			fatal(fmt.Errorf("metric %s not measured", s.name))
		}
	}

	rec := record{
		Workload: w.name,
		Trace:    *trace == 1,
		Seed:     *seed,
		Seconds:  *seconds,
		Host:     probeHost("."),
		Params: map[string]any{
			"workers":            nproc,
			"shards":             1,
			"binary_inflight":    e.inflight,
			"tenants":            tenants,
			"kernel_scale":       kernelScale,
			"wasm_iters":         wasmIters,
			"upload_stmts_range": []int{minStmts, maxStmts},
			"upload_rate_per_s":  uploadRate,
			"upload_round":       []int{uploadRound, uploadWasm},
		},
		Wall:      res.wall,
		Samples:   res.samples,
		Outcomes:  res.kinds,
		Attempted: res.attempted,
		Failed:    res.failed,
	}
	for k, v := range res.params {
		rec.Params[k] = v
	}
	rec.Host.StealPct = steal.pct()
	final := finalLine{
		Correct:   res.wrong == 0 && len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		final.Metrics[k] = metricValue{Value: res.metrics[k], Unit: unitOf[k]}
	}
	rec.Metrics = final.Metrics

	out, _ := json.MarshalIndent(rec, "", "  ")
	fmt.Println(string(out))
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-28s %14.4f %s\n", k, res.metrics[k], unitOf[k])
	}
	line, _ := json.Marshal(final)
	fmt.Println(string(line))
	if !final.Correct {
		if res.wrong > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d operations failed other than by load rejection or did not match the reference\n", res.wrong)
		}
		for _, p := range res.problems {
			fmt.Fprintln(os.Stderr, "perfbench:", p)
		}
		os.Exit(1)
	}
}

// record is the full result document printed before the final line.
type record struct {
	Workload  string                    `json:"workload"`
	Trace     bool                      `json:"trace"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Host      hostInfo                  `json:"host"`
	Params    map[string]any            `json:"params"`
	Metrics   map[string]metricValue    `json:"metrics"`
	Wall      map[string]float64        `json:"wall_clock,omitempty"`
	Samples   map[string]int            `json:"samples"`
	Outcomes  map[string]map[string]int `json:"outcomes"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() string {
	var n []string
	for _, w := range allWorkloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
