package main

import (
	"fmt"
	"math"
	"math/rand"

	"lfi/internal/core"
	"lfi/internal/fuzz"
	"lfi/internal/progs"
	"lfi/internal/wasmfront"
	"lfi/internal/workloads"
)

// Everything the served program receives is made here from the seed: the
// same seed gives byte-identical images, job sequences and uploads.

const (
	// tinyMsg is what the tiny program writes before exiting 0.
	tinyMsg = "loadgen\n"
	// kernelScale sizes the 14 kernels so one job retires about 25k–600k
	// instructions (0.3–6 ms on a 2-core Xeon).
	kernelScale = 0.05
	// wasmIters sizes the three Wasm samples into the same range.
	wasmIters = 4000
	// seqLen is the length of a job sequence; callers cycle through it.
	seqLen = 1 << 14
	// minStmts and maxStmts bound the statement count of an uploaded
	// fuzz program; counts are drawn log-uniformly between them.
	minStmts, maxStmts = 200, 10000
)

// tenants are the two weighted tenants jobs alternate between.
var tenants = [2]string{"pro", "free"}

// program is one image the benchmark serves or runs, with the
// per-step-interpreter reference outcome it must reproduce.
type program struct {
	name string
	src  string // assembly source; empty for a Wasm module
	wasm []byte
	elf  []byte // the LFI O2 build, or the unguarded one when native
	// native marks model's unguarded baseline build (loaded unverified).
	native bool
	want   outcome
}

// outcome is what one run of a program produced.
type outcome struct {
	status int
	stdout []byte
	instrs uint64
	cycles float64
}

// tinySource is the lfi-loadgen program: write tinyMsg, exit 0.
func tinySource() string {
	return fmt.Sprintf(`
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	mov x2, #%d
%s%s
.rodata
msg:
	.ascii %q
`, len(tinyMsg), progs.RTCall(core.RTWrite), progs.ExitCode(0), tinyMsg)
}

// kernelPrograms returns the 14 kernels at kernelScale.
func kernelPrograms() []*program {
	var out []*program
	for _, w := range workloads.All() {
		out = append(out, &program{name: w.Name, src: w.Source(kernelScale)})
	}
	return out
}

// wasmPrograms returns the three Wasm samples at wasmIters.
func wasmPrograms() []*program {
	var out []*program
	for _, s := range wasmfront.SampleWorkloads() {
		out = append(out, &program{name: s.Name, wasm: s.Build(wasmIters)})
	}
	return out
}

// job is one request of a job sequence.
type job struct {
	prog   int // index into the workload's programs
	tenant string
}

// jobSequence draws n jobs over nprogs programs. Requests alternate
// between the two tenants; the seed picks which goes first and the order
// of the programs. The programs come in rounds, each a seeded
// permutation of all of them, so every stretch of the sequence has the
// same mix whatever the seed: the rates of a slice then do not move with
// how many long jobs happened to fall in it.
func jobSequence(seed int64, nprogs, n int) []job {
	rng := rand.New(rand.NewSource(seed))
	first := rng.Intn(2)
	seq := make([]job, n)
	var round []int
	for i := range seq {
		if len(round) == 0 {
			round = rng.Perm(nprogs)
		}
		seq[i] = job{prog: round[0], tenant: tenants[(first+i)%2]}
		round = round[1:]
	}
	return seq
}

// upload is one image body sent to POST /v1/images.
type upload struct {
	src   string // assembly source, or empty
	wasm  []byte // Wasm module, or nil
	stmts int    // statements in src (0 for Wasm)
}

// uploadGen produces the churn workload's upload stream: mostly fresh
// fuzz programs, the rest Wasm samples with distinct iteration counts,
// so every upload misses the content-hashed image cache. The stream
// comes in rounds of uploadRound uploads: uploadWasm Wasm modules and
// one fuzz program from each of the other uploadRound-uploadWasm
// log-spaced bands of statement counts, in seeded order. Every stretch
// of the stream then costs about the same to build whatever the seed.
type uploadGen struct {
	rng   *rand.Rand
	gen   *fuzz.Gen
	n     int
	round []int // what the rest of the current round uploads: a band, or -1 for Wasm
}

const (
	uploadRound = 10
	uploadWasm  = 2
)

func newUploadGen(seed int64) *uploadGen {
	return &uploadGen{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), gen: fuzz.NewGen(seed)}
}

// next returns the next upload of the stream.
func (u *uploadGen) next() upload {
	u.n++
	if len(u.round) == 0 {
		u.round = u.rng.Perm(uploadRound)
	}
	band := u.round[0] - uploadWasm
	u.round = u.round[1:]
	if band < 0 {
		samples := wasmfront.SampleWorkloads()
		s := samples[u.rng.Intn(len(samples))]
		// Strictly increasing iteration counts keep every module distinct.
		iters := uint32(1000 + 131*u.n + u.rng.Intn(131))
		return upload{wasm: s.Build(iters)}
	}
	lo, hi := math.Log(minStmts), math.Log(maxStmts)
	width := (hi - lo) / (uploadRound - uploadWasm)
	n := int(math.Round(math.Exp(lo + (float64(band)+u.rng.Float64())*width)))
	return upload{src: u.gen.Generate(n), stmts: n}
}
