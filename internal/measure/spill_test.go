package measure

import (
	"math"
	"testing"

	"repro/internal/bitset"
	"repro/internal/segstore"
	"repro/internal/topology"
)

// TestSpillWindowMatchesRAM drives a RAM sliding-window estimator and a
// spill-backed one through the same append/evict/batch sequence and
// requires every probability surface to agree to the bit
// (math.Float64bits) at every checkpoint — the estimator-level half of the
// tiered-store bit-identity contract, covering windows whose head sits
// mid-segment, fully sealed windows, and the pattern histogram.
func TestSpillWindowMatchesRAM(t *testing.T) {
	const (
		paths   = 40
		window  = 300 // not a multiple of segRows
		segRows = 128
		steps   = 900
	)
	ram, err := NewSlidingWindow(paths, window)
	if err != nil {
		t.Fatal(err)
	}
	defer ram.Close()
	spill, err := NewSlidingWindowSpill(paths, window, segstore.Options{
		Dir: t.TempDir(), SegmentRows: segRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()

	var pairs []Pair
	for i := 0; i < paths; i += 3 {
		for j := i + 1; j < paths; j += 5 {
			pairs = append(pairs, Pair{A: i, B: j})
		}
	}
	set := bitset.FromIndices(1, 2, 7, 33)
	pattern := bitset.New(paths)

	check := func(step int) {
		t.Helper()
		if ram.Snapshots() != spill.Snapshots() {
			t.Fatalf("step %d: RAM %d snapshots, spill %d", step, ram.Snapshots(), spill.Snapshots())
		}
		for i := 0; i < paths; i++ {
			a := ram.ProbPathGood(topology.PathID(i))
			b := spill.ProbPathGood(topology.PathID(i))
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d: P(path %d good) RAM %v, spill %v", step, i, a, b)
			}
		}
		ram.PrimePairs(pairs)
		spill.PrimePairs(pairs)
		for _, p := range pairs {
			a := ram.ProbPairGood(topology.PathID(p.A), topology.PathID(p.B))
			b := spill.ProbPairGood(topology.PathID(p.A), topology.PathID(p.B))
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d: P(pair %v good) RAM %v, spill %v", step, p, a, b)
			}
		}
		if a, b := ram.ProbPathsGood(set), spill.ProbPathsGood(set); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("step %d: P(set good) RAM %v, spill %v", step, a, b)
		}
		fa, fb := ram.PathCongestionFrequency(), spill.PathCongestionFrequency()
		for i := range fa {
			if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
				t.Fatalf("step %d: congestion frequency[%d] RAM %v, spill %v", step, i, fa[i], fb[i])
			}
		}
		if a, b := ram.ProbExactCongestedPaths(pattern), spill.ProbExactCongestedPaths(pattern); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("step %d: P(exact pattern) RAM %v, spill %v", step, a, b)
		}
	}

	row := bitset.New(paths)
	var batch []*bitset.Set
	for step := 0; step < steps; step++ {
		switch {
		case step%151 == 150:
			// Batch append spanning a seal boundary.
			batch = batch[:0]
			for k := 0; k < 73; k++ {
				r := bitset.New(paths)
				for i := 0; i < paths; i++ {
					if (step+k*13+i*29)%7 == 0 {
						r.Add(i)
					}
				}
				batch = append(batch, r)
			}
			appendBatch(ram, batch)
			appendBatch(spill, batch)
		case step%67 == 66:
			if ram.Evict() != spill.Evict() {
				t.Fatalf("step %d: Evict disagreed", step)
			}
		default:
			row.Clear()
			for i := 0; i < paths; i++ {
				if (step*31+i*17+step*i)%9 == 0 {
					row.Add(i)
				}
			}
			pattern.CopyFrom(row) // query a pattern that actually occurs
			ram.Append(row)
			spill.Append(row)
		}
		if step%29 == 0 || step == steps-1 {
			check(step)
		}
	}
	if spill.SpillStore() == nil || spill.SpillStore().SealedSegments() == 0 {
		t.Fatal("spill estimator never sealed a segment")
	}
	if ram.SpillStore() != nil {
		t.Fatal("SpillStore() returns a store for a RAM window")
	}
}
