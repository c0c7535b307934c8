package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// summarize runs the workload once per seed in seed..seed+n-1, each run
// in a fresh process, and prints every metric's median, quartiles and
// spread (interquartile distance over the median) across the runs.
func summarize(workload string, seed int64, n int, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var attempted, failed int
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var last finalLine
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		attempted += last.Attempted
		failed += last.Failed
		for k, v := range last.Metrics {
			values[k] = append(values[k], v.Value)
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs, seeds %d..%d, %d attempted, %d failed\n", workload, n, seed, seed+int64(n)-1, attempted, failed)
	fmt.Printf("%-28s %14s %14s %14s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range names {
		q1, q2, q3, _ := quartiles(values[k])
		fmt.Printf("%-28s %14.4f %14.4f %14.4f %8.3f %s\n", k, q1, q2, q3, spread(values[k]), unitOf[k])
	}
	return nil
}
