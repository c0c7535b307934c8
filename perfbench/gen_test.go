package main

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"
)

func TestJobSequenceDeterministic(t *testing.T) {
	a := jobSequence(7, 17, 1000)
	b := jobSequence(7, 17, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different job sequences")
	}
	if reflect.DeepEqual(a, jobSequence(8, 17, 1000)) {
		t.Error("different seeds gave the same job sequence")
	}
	seen := map[int]bool{}
	for i, j := range a {
		if j.tenant != a[i%2].tenant || (i > 0 && j.tenant == a[i-1].tenant) {
			t.Fatalf("job %d: tenants do not alternate", i)
		}
		if i%17 == 0 {
			seen = map[int]bool{}
		}
		if seen[j.prog] {
			t.Fatalf("job %d: program %d twice in one round of 17", i, j.prog)
		}
		seen[j.prog] = true
	}
}

func TestUploadStreamDeterministic(t *testing.T) {
	a, b := newUploadGen(3), newUploadGen(3)
	other := newUploadGen(4)
	differs := false
	wasm, seen := 0, map[string]bool{}
	for i := 0; i < 40; i++ {
		ua, ub, uo := a.next(), b.next(), other.next()
		if ua.src != ub.src || !bytes.Equal(ua.wasm, ub.wasm) {
			t.Fatalf("upload %d differs between two streams of one seed", i)
		}
		if ua.src != uo.src || !bytes.Equal(ua.wasm, uo.wasm) {
			differs = true
		}
		if ua.wasm != nil {
			wasm++
		} else if ua.stmts < minStmts || ua.stmts > maxStmts {
			t.Errorf("upload %d: %d statements outside [%d, %d]", i, ua.stmts, minStmts, maxStmts)
		}
		body := ua.src + string(ua.wasm)
		if seen[body] {
			t.Errorf("upload %d repeats an earlier body; it would hit the image cache", i)
		}
		seen[body] = true
	}
	if !differs {
		t.Error("different seeds gave the same upload stream")
	}
	if want := 40 / uploadRound * uploadWasm; wasm != want {
		t.Errorf("%d of 40 uploads are Wasm, want %d", wasm, want)
	}
}

func TestUploadRoundsCoverEveryBand(t *testing.T) {
	g := newUploadGen(5)
	for r := 0; r < 4; r++ {
		var stmts []int
		for i := 0; i < uploadRound; i++ {
			if u := g.next(); u.wasm == nil {
				stmts = append(stmts, u.stmts)
			}
		}
		sort.Ints(stmts)
		if len(stmts) != uploadRound-uploadWasm {
			t.Fatalf("round %d: %d fuzz programs, want %d", r, len(stmts), uploadRound-uploadWasm)
		}
		// One program per log-spaced band: each is at least the band's floor.
		ratio := math.Pow(float64(maxStmts)/minStmts, 1/float64(len(stmts)))
		for b, n := range stmts {
			if floor := minStmts * math.Pow(ratio, float64(b)); float64(n) < floor-1 {
				t.Errorf("round %d: band %d program has %d statements, below %.0f", r, b, n, floor)
			}
		}
	}
}

func TestImagesByteIdentical(t *testing.T) {
	build := func() [][]byte {
		var out [][]byte
		ps := append(append([]*program{{name: "tiny", src: tinySource()}}, kernelPrograms()...), wasmPrograms()...)
		for _, p := range ps {
			if err := p.build(); err != nil {
				t.Fatal(err)
			}
			out = append(out, p.elf)
		}
		return out
	}
	if !reflect.DeepEqual(build(), build()) {
		t.Error("two builds of the served images differ")
	}
}
