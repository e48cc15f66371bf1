package measure

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/topology"
)

// TestPrimePairsMatchesPerPairLookups pins the batched pair fill: priming a
// pair set and then reading ProbPairGood must be bit-identical to querying a
// fresh estimator pair by pair, on both unbounded and sliding-window
// estimators, including self-pairs and unordered duplicates.
func TestPrimePairsMatchesPerPairLookups(t *testing.T) {
	const paths, snapshots, window = 23, 900, 256
	rng := rand.New(rand.NewSource(9))
	rows := make([]*bitset.Set, snapshots)
	for ti := range rows {
		rows[ti] = bitset.New(paths)
		for i := 0; i < paths; i++ {
			if rng.Intn(4) == 0 {
				rows[ti].Add(i)
			}
		}
	}

	var pairs []Pair
	for q := 0; q < 300; q++ {
		pairs = append(pairs, Pair{A: rng.Intn(paths), B: rng.Intn(paths)})
	}

	build := func(windowed bool) *Empirical {
		var e *Empirical
		if windowed {
			var err error
			e, err = NewSlidingWindow(paths, window)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			e = NewStreaming(paths)
		}
		for _, r := range rows {
			e.Append(r)
		}
		return e
	}

	for _, windowed := range []bool{false, true} {
		primed := build(windowed)
		primed.PrimePairs(pairs)
		fresh := build(windowed)
		for _, p := range pairs {
			got := primed.ProbPairGood(topology.PathID(p.A), topology.PathID(p.B))
			want := fresh.ProbPairGood(topology.PathID(p.A), topology.PathID(p.B))
			if got != want {
				t.Fatalf("windowed=%v pair %v: primed %v != per-pair %v", windowed, p, got, want)
			}
		}
	}
}

// TestPrimePairsEmpty pins the no-op edges: an empty estimator and an empty
// pair list must not disturb anything.
func TestPrimePairsEmpty(t *testing.T) {
	e := NewStreaming(4)
	e.PrimePairs([]Pair{{A: 0, B: 1}}) // zero snapshots: no-op
	if got := e.ProbPairGood(0, 1); got != 0 {
		t.Fatalf("empty-stream pair probability = %v, want 0", got)
	}
	e.Append(bitset.FromIndices(0))
	e.PrimePairs(nil)
	if got := e.ProbPairGood(0, 1); got != 0 {
		t.Fatalf("pair probability after congesting path 0 = %v, want 0", got)
	}
}
