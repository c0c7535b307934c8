package main

import "testing"

func TestStealShareInRange(t *testing.T) {
	m := startSteal()
	x := 0
	for i := 0; i < 1e7; i++ {
		x += i
	}
	if p := m.pct(); p < 0 || p > 100 {
		t.Errorf("steal share %v%% outside [0, 100] (%d)", p, x)
	}
}

func TestSourceDigestStable(t *testing.T) {
	a, b := sourceDigest("."), sourceDigest(".")
	if a != b || len(a) != 16 {
		t.Errorf("digests %q and %q of one tree", a, b)
	}
}
