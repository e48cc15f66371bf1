package snapstore

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// sparsePairStore builds a store where some columns are entirely untouched
// and others are congested only inside a narrow block range — the shapes
// that exercise the block-summary skip paths (both-zero, one-zero) rather
// than the fused sweep.
func sparsePairStore(rng *rand.Rand, series, snapshots int) *Store {
	s := New(series)
	// Series i is active only if i%3 != 2, and only inside a random
	// contiguous snapshot span, so most (series, block) cells are all-zero.
	type span struct{ lo, hi int }
	spans := make([]span, series)
	for i := range spans {
		lo := rng.Intn(snapshots)
		spans[i] = span{lo: lo, hi: lo + rng.Intn(snapshots-lo) + 1}
	}
	row := bitset.New(series)
	for t := 0; t < snapshots; t++ {
		row.Clear()
		for i := 0; i < series; i++ {
			if i%3 != 2 && t >= spans[i].lo && t < spans[i].hi && rng.Intn(4) == 0 {
				row.Add(i)
			}
		}
		s.Append(row)
	}
	return s
}

// TestCountPairsWSMatchesSerial pins the workspace kernels bit-identical to
// the plain blocked oracle on dense and sparse stores (the sparse ones
// drive the block-summary skip paths), including stores spanning many
// 512-word blocks. Counts are exact integers, so "bit-identical" is plain
// equality.
func TestCountPairsWSMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		series, snapshots int
		sparse            bool
	}{
		{1, 1, false},
		{5, 63, false},
		{8, 64, true},
		{17, 1000, false},
		{9, pairBlockWords*64 + 129, false}, // spans multiple blocks
		{7, pairBlockWords*64 + 129, true},  // multi-block, mostly zero
		{13, 700, false},
		{11, 900, true},
	}
	ws := &CountWorkspace{}
	for _, sh := range shapes {
		var s *Store
		if sh.sparse {
			s = sparsePairStore(rng, sh.series, sh.snapshots)
		} else {
			s = randomPairStore(rng, sh.series, sh.snapshots)
		}
		var pairs []Pair
		for a := 0; a < sh.series; a++ {
			for b := 0; b < sh.series; b++ {
				if rng.Intn(2) == 0 {
					pairs = append(pairs, Pair{A: a, B: b})
				}
			}
		}
		want := make([]int, len(pairs))
		s.CountPairsCongested(pairs, want)
		wantGood := make([]int, len(pairs))
		s.CountPairsGood(pairs, wantGood)
		got := make([]int, len(pairs))
		s.CountPairsCongestedWS(ws, pairs, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("store %dx%d sparse=%v pair %v: WS congested %d, oracle %d",
					sh.series, sh.snapshots, sh.sparse, pairs[i], got[i], want[i])
			}
		}
		s.CountPairsGoodWS(ws, pairs, got)
		for i := range wantGood {
			if got[i] != wantGood[i] {
				t.Fatalf("store %dx%d sparse=%v pair %v: WS good %d, oracle %d",
					sh.series, sh.snapshots, sh.sparse, pairs[i], got[i], wantGood[i])
			}
		}
	}
}

// TestCountPairsWSWorkspaceReuse pins that one workspace survives reuse
// across stores of different shapes, growing and shrinking.
func TestCountPairsWSWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := &CountWorkspace{}
	big := randomPairStore(rng, 6, pairBlockWords*64*2+65)
	small := randomPairStore(rng, 3, 100)
	pairsBig := []Pair{{0, 1}, {2, 5}, {4, 4}}
	pairsSmall := []Pair{{0, 2}, {1, 1}}

	check := func(s *Store, pairs []Pair) {
		t.Helper()
		want := make([]int, len(pairs))
		s.CountPairsCongested(pairs, want)
		got := make([]int, len(pairs))
		s.CountPairsCongestedWS(ws, pairs, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pair %v: got %d, want %d", pairs[i], got[i], want[i])
			}
		}
	}

	check(big, pairsBig)
	check(small, pairsSmall) // shrink store between calls
	check(big, pairsBig)
}

// TestCountPairsWSValidation pins that the workspace kernel panics on the
// same misuse as the oracle and stays reusable after the panic.
func TestCountPairsWSValidation(t *testing.T) {
	s := NewFixed(3, 10)
	ws := &CountWorkspace{}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("short out", func() { s.CountPairsCongestedWS(ws, make([]Pair, 2), make([]int, 1)) })
	mustPanic("series out of range", func() { s.CountPairsCongestedWS(ws, []Pair{{A: 0, B: 3}}, make([]int, 1)) })
	mustPanic("negative series", func() { s.CountPairsCongestedWS(ws, []Pair{{A: -1, B: 0}}, make([]int, 1)) })

	// The panic paths must leave the column registry clean for reuse.
	rng := rand.New(rand.NewSource(3))
	st := randomPairStore(rng, 4, 200)
	pairs := []Pair{{0, 1}, {2, 3}}
	want := make([]int, len(pairs))
	st.CountPairsCongested(pairs, want)
	got := make([]int, len(pairs))
	st.CountPairsCongestedWS(ws, pairs, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after panic: pair %v got %d, want %d", pairs[i], got[i], want[i])
		}
	}
}

// TestCountPairsWSSteadyStateAllocs is the kernel's 0 allocs/op gate: once
// the workspace has grown, a count must not allocate.
func TestCountPairsWSSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := randomPairStore(rng, 8, pairBlockWords*64+200)
	pairs := []Pair{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {1, 6}}
	out := make([]int, len(pairs))
	ws := &CountWorkspace{}
	s.CountPairsCongestedWS(ws, pairs, out) // grow the scratch
	if allocs := testing.AllocsPerRun(20, func() { s.CountPairsCongestedWS(ws, pairs, out) }); allocs != 0 {
		t.Fatalf("steady-state CountPairsCongestedWS: %.1f allocs/op, want 0", allocs)
	}
}
