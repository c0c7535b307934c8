package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies where and on what code a result was measured.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit and Dirty come from git when the tree is a work tree;
	// otherwise Commit is "unknown" and Dirty is null.
	Commit string `json:"commit"`
	Dirty  *bool  `json:"dirty"`
	// SourceDigest hashes every Go source and go.mod under the tree, so
	// results from a checkout without git history still name their code.
	SourceDigest string `json:"source_digest"`
	// StealPct is the share of CPU time the hypervisor stole during the
	// run; where it is more than a few percent, tails reflect the host.
	StealPct float64 `json:"steal_pct"`
}

func probeHost(root string) hostInfo {
	h := hostInfo{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		SourceDigest: sourceDigest(root),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			dirty := len(strings.TrimSpace(string(st))) > 0
			h.Dirty = &dirty
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest is a SHA-256 over the paths and contents of every .go and
// go.mod file below root, skipping dot-directories (version control,
// build output).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes reads the aggregate CPU line of /proc/stat: total and steal
// ticks (zero where it cannot be read).
func cpuTimes() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so the first eight add up.
	for _, v := range f[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64) // a malformed field reads as 0
		total += n
	}
	steal, _ = strconv.ParseUint(f[8], 10, 64)
	return total, steal
}

// stealMeter measures the share of CPU time the hypervisor took from
// this machine's vCPUs over an interval. Stolen time stalls whatever
// runs on the vCPU, so tail latencies measured during it say more about
// the host than about the program.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s := cpuTimes()
	return stealMeter{t, s}
}

// pct is the stolen share of CPU time since start, in percent.
func (m stealMeter) pct() float64 {
	t, s := cpuTimes()
	if t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

// processCPU returns the CPU time (user plus system) this process has
// used so far. Time the hypervisor steals from the guest is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(f[0], 64) // a malformed line reads as 0
			return kb / 1024
		}
	}
	return 0
}
