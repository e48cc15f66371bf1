package snapstore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// CountPairsCongested is the plain blocked pair-count kernel, kept as the
// test oracle of CountPairsCongestedWS: one 512-word block at a time, a
// fused OR+POPCNT per pair, no summaries and no skips.
func (s *Store) CountPairsCongested(pairs []Pair, out []int) {
	if len(out) < len(pairs) {
		panic(fmt.Sprintf("snapstore: CountPairsCongested out has %d slots for %d pairs", len(out), len(pairs)))
	}
	for i, p := range pairs {
		if p.A < 0 || p.A >= len(s.cols) || p.B < 0 || p.B >= len(s.cols) {
			panic(fmt.Sprintf("snapstore: pair (%d,%d) out of range (%d series)", p.A, p.B, len(s.cols)))
		}
		out[i] = 0
	}
	words := s.Words()
	for lo := 0; lo < words; lo += pairBlockWords {
		hi := min(lo+pairBlockWords, words)
		for i, p := range pairs {
			out[i] += bitset.OrPopCountWords(s.cols[p.A][lo:hi], s.cols[p.B][lo:hi])
		}
	}
}

// CountPairsGood is the oracle's all-good form.
func (s *Store) CountPairsGood(pairs []Pair, out []int) {
	s.CountPairsCongested(pairs, out)
	for i := range pairs {
		out[i] = s.n - out[i]
	}
}

// randomPairStore builds a streaming store with random observations.
func randomPairStore(rng *rand.Rand, series, snapshots int) *Store {
	s := New(series)
	row := bitset.New(series)
	for t := 0; t < snapshots; t++ {
		row.Clear()
		for i := 0; i < series; i++ {
			if rng.Intn(3) == 0 {
				row.Add(i)
			}
		}
		s.Append(row)
	}
	return s
}

// TestCountPairsGoodMatchesPerPair pins the blocked batch kernel against the
// per-pair reference (CountAnyCongested) on random stores of many shapes,
// including stores larger than one cache block.
func TestCountPairsGoodMatchesPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ series, snapshots int }{
		{1, 1},
		{5, 63},
		{8, 64},
		{17, 1000},
		{9, pairBlockWords*64 + 129}, // spans multiple blocks
		{13, 700},
	}
	for _, sh := range shapes {
		s := randomPairStore(rng, sh.series, sh.snapshots)
		var pairs []Pair
		for a := 0; a < sh.series; a++ {
			for b := 0; b < sh.series; b++ {
				if rng.Intn(2) == 0 {
					pairs = append(pairs, Pair{A: a, B: b})
				}
			}
		}
		out := make([]int, len(pairs))
		s.CountPairsGood(pairs, out)
		scratch := make([]uint64, s.Words())
		for i, p := range pairs {
			want := s.CountAllGood([]int{p.A, p.B}, scratch)
			if p.A == p.B {
				want = s.CountAllGood([]int{p.A}, scratch)
			}
			if out[i] != want {
				t.Fatalf("store %dx%d pair %v: batched count %d, per-pair %d",
					sh.series, sh.snapshots, p, out[i], want)
			}
		}
	}
}

// TestCountPairsCongestedValidation pins the kernel's misuse panics.
func TestCountPairsCongestedValidation(t *testing.T) {
	s := NewFixed(3, 10)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("short out", func() { s.CountPairsCongested(make([]Pair, 2), make([]int, 1)) })
	mustPanic("series out of range", func() { s.CountPairsCongested([]Pair{{A: 0, B: 3}}, make([]int, 1)) })
	mustPanic("negative series", func() { s.CountPairsCongested([]Pair{{A: -1, B: 0}}, make([]int, 1)) })
}
