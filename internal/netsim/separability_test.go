package netsim

import (
	"context"
	"testing"

	"repro/internal/bitset"
	"repro/internal/congestion"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// diurnalFixture is the registry's diurnal scenario: a PlanetLab-style mesh
// whose path and link sets both span several words.
func diurnalFixture(t *testing.T) *scenario.Scenario {
	t.Helper()
	s, err := scenario.BuildNamed("diurnal", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Topology.NumPaths() <= 64 || s.Topology.NumLinks() <= 64 {
		t.Fatalf("diurnal has %d paths and %d links, want both past one word",
			s.Topology.NumPaths(), s.Topology.NumLinks())
	}
	return s
}

// checkSeparable fails unless every path row equals the per-path
// separability definition over its snapshot's link row, and reports how
// many snapshots saw congestion so a vacuous run cannot pass.
func checkSeparable(t *testing.T, name string, top *topology.Topology, paths, links []*bitset.Set) {
	t.Helper()
	congested := 0
	for ts := range paths {
		want := separableRow(top, links[ts])
		if !paths[ts].Equal(want) {
			t.Fatalf("%s snapshot %d: paths %v, separability implies %v", name, ts, paths[ts], want)
		}
		if !want.IsEmpty() {
			congested++
		}
	}
	if congested == 0 {
		t.Fatalf("%s: no snapshot saw a congested path", name)
	}
}

// TestStateLevelSeparabilityMultiWord pins every state-level producer —
// RunDynamic at any Workers, RunDynamicStream and RunContext — to
// Assumption 2 on a topology with more than 64 paths and links: each
// snapshot's congested paths are exactly those that traverse a congested
// link.
func TestStateLevelSeparabilityMultiWord(t *testing.T) {
	s := diurnalFixture(t)
	top := s.Topology
	const snapshots = 3000
	for _, workers := range []int{1, 4} {
		cfg := DynamicConfig{
			Topology: top, Process: s.Process, Snapshots: snapshots, Seed: 3,
			RecordLinkStates: true, Workers: workers,
		}
		rec, err := RunDynamic(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var paths, links []*bitset.Set
		for ts := 0; ts < snapshots; ts++ {
			paths = append(paths, rec.PathSnapshot(ts))
			links = append(links, rec.LinkSnapshot(ts))
		}
		checkSeparable(t, "RunDynamic", top, paths, links)

		// The stream realizes the same process path, so the record's link
		// rows are its link states.
		cfg.RecordLinkStates = false
		var streamed []*bitset.Set
		cfg.OnSnapshot = func(_ int, congested *bitset.Set) { streamed = append(streamed, congested.Clone()) }
		if err := RunDynamicStream(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		checkSeparable(t, "RunDynamicStream", top, streamed, links)
	}

	p := make([]float64, top.NumLinks())
	for k := range p {
		p[k] = 0.02
	}
	model, err := congestion.NewIndependent(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RunContext(context.Background(), Config{
		Topology: top, Model: model, Snapshots: snapshots, Seed: 3, RecordLinkStates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var paths, links []*bitset.Set
	for ts := 0; ts < snapshots; ts++ {
		paths = append(paths, rec.PathSnapshot(ts))
		links = append(links, rec.LinkSnapshot(ts))
	}
	checkSeparable(t, "RunContext", top, paths, links)
}

// TestRunDynamicStateLevelAllocsFlat pins that a warm state-level
// RunDynamic allocates nothing per snapshot: its allocation count is the
// same at 2000 and at 4000 snapshots, whatever Workers asks for.
func TestRunDynamicStateLevelAllocsFlat(t *testing.T) {
	s := diurnalFixture(t)
	allocs := func(snapshots int) float64 {
		cfg := DynamicConfig{Topology: s.Topology, Process: s.Process, Snapshots: snapshots, Seed: 5, Workers: 4}
		return testing.AllocsPerRun(3, func() {
			if _, err := RunDynamic(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(2000), allocs(4000); short != long {
		t.Fatalf("RunDynamic allocates %.0f at 2000 snapshots and %.0f at 4000, want equal", short, long)
	}
}
