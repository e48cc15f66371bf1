package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/congestion"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// briteFixture builds a randomized Brite topology with a correlated
// congestion scenario and an empirical source over a short simulation.
func briteFixture(t *testing.T, seed int64) (*topology.Topology, *measure.Empirical) {
	t.Helper()
	top, rec := briteRecord(t, seed)
	return top, mustEmpirical(t, rec)
}

// briteRecord is briteFixture's topology and simulation record.
func briteRecord(t testing.TB, seed int64) (*topology.Topology, *netsim.Record) {
	t.Helper()
	net, err := brite.Generate(brite.Config{ASes: 25, EdgesPerAS: 2, Paths: 80, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Brite(scenario.BriteConfig{
		Net: net, FracCongested: 0.12, Level: scenario.HighCorrelation, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: s.Topology, Model: s.Model, Snapshots: 800, Seed: seed + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s.Topology, rec
}

// TestCompileEvaluateMatchesBuildEquations pins the compile/evaluate split
// bit-identical to the fused selection across randomized topologies and the
// structural option variants.
func TestCompileEvaluateMatchesBuildEquations(t *testing.T) {
	ws := NewWorkspace() // reused across seeds, variants and rounds
	for _, seed := range []int64{3, 17, 91} {
		top, src := briteFixture(t, seed)
		for _, v := range selectorVariants {
			fused, err := BuildEquations(top, src, v.identity, v.opts, v.gf2)
			if err != nil {
				t.Fatal(err)
			}
			st, err := compileStructure(top, v.identity, v.opts, newRankTracker(top.NumLinks(), v.gf2))
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				sys, err := st.EvaluateIn(ws, src)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fused, sys) {
					t.Fatalf("seed %d %s round %d: compiled evaluation differs from fused BuildEquations", seed, v.name, round)
				}
			}
		}
	}
}

// TestLinearPlanMatchesAlgorithms pins CompileLinear+RunIn bit-identical to
// the fused reference: BuildEquations followed by the solve, on a separate
// workspace. RunIn reuses one workspace across rounds.
func TestLinearPlanMatchesAlgorithms(t *testing.T) {
	top, src := briteFixture(t, 7)
	cases := []struct {
		name     string
		identity bool
		opts     Options
	}{
		{"correlation", false, Options{}},
		{"correlation-pairs-off", false, Options{DisablePairs: true}},
		{"independence", true, Options{}},
		{"independence-all-eq", true, Options{UseAllEquations: true}},
	}
	ws := NewWorkspace()
	for _, c := range cases {
		sys, err := BuildEquations(top, src, c.identity, c.opts, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solveSystemIn(NewWorkspace(), sys, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := CompileLinear(top, c.identity, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			got, err := lp.RunIn(ws, src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s round %d: plan result differs from BuildEquations + solve", c.name, round)
			}
		}
	}
}

// TestEvaluateFallbackOnZeroProb forces the data-dependent path — a
// compiled row with zero measured probability — and checks the resumed
// selection matches the fused one exactly.
func TestEvaluateFallbackOnZeroProb(t *testing.T) {
	top := topology.Figure1A()
	model, err := congestion.NewTable(4, []congestion.GroupTable{
		{Links: []int{0, 1}, States: []congestion.SubsetProb{
			{Links: bitset.New(0), P: 0.7},
			{Links: bitset.FromIndices(0, 1), P: 0.3},
		}},
		{Links: []int{2}, States: []congestion.SubsetProb{
			{Links: bitset.FromIndices(2), P: 1}, // e3 always congested
		}},
		{Links: []int{3}, States: []congestion.SubsetProb{
			{Links: bitset.New(0), P: 0.9}, {Links: bitset.FromIndices(3), P: 0.1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := exactSource(t, top, model)
	fused, err := BuildEquations(top, src, false, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if fused.SkippedZeroProb == 0 {
		t.Fatal("fixture must trigger zero-probability skips")
	}
	st, err := CompileStructure(top, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := st.EvaluateIn(NewWorkspace(), src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fused, sys) {
		t.Fatal("resumed evaluation differs from fused BuildEquations")
	}
}

// TestEvaluateSourceMismatch mirrors BuildEquations' path-count validation.
func TestEvaluateSourceMismatch(t *testing.T) {
	top, _ := briteFixture(t, 5)
	src := exactSource(t, topology.Figure1A(), fig1aTable(t)) // 3 paths vs 80
	st, err := CompileStructure(top, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.EvaluateIn(NewWorkspace(), src); err == nil {
		t.Fatal("mismatched source accepted")
	}
}
