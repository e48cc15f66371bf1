package core

import (
	"math"
	"testing"

	"repro/internal/congestion"
	"repro/internal/netsim"
	"repro/internal/topology"
)

func TestDisablePairsLimitsRank(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aTable(t)
	src := exactSource(t, top, model)

	full, err := BuildEquations(top, src, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noPairs, err := BuildEquations(top, src, BuildOptions{DisablePairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if noPairs.PairEqs != 0 {
		t.Fatalf("pairs formed despite DisablePairs: %d", noPairs.PairEqs)
	}
	if noPairs.Rank >= full.Rank {
		t.Fatalf("rank without pairs (%d) not below full rank (%d)", noPairs.Rank, full.Rank)
	}
	// Figure 1(a): singles give rank 3, the pair equation closes rank 4.
	if noPairs.Rank != 3 || full.Rank != 4 {
		t.Fatalf("ranks = %d/%d, want 3/4", noPairs.Rank, full.Rank)
	}
}

func TestForceMinNormSolver(t *testing.T) {
	top, model := chainCorr(t)
	src := exactSource(t, top, model)
	res, err := correlation(top, src, Options{ForceMinNorm: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != SolverMinNorm {
		t.Fatalf("solver = %s, want min-norm", res.Solver)
	}
	// The constraints the system kept must still be satisfied (path P2 =
	// links b, c).
	xbc := res.LogGoodProb[1] + res.LogGoodProb[2]
	want := math.Log(model.ProbAllGood(top.PathLinkSet(1)))
	if math.Abs(xbc-want) > 1e-5 {
		t.Fatalf("x_b+x_c = %v, want %v", xbc, want)
	}
}

func TestPathFilterExcludesPaths(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aTable(t)
	src := exactSource(t, top, model)

	// Exclude P1: no equation may reference it, and link e1 (only on P1)
	// must be uncovered.
	sys, err := BuildEquations(top, src, BuildOptions{
		PathFilter: func(id topology.PathID) bool { return id != 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eq := range sys.Equations {
		for _, pid := range eq.Paths {
			if pid == 0 {
				t.Fatal("equation references the filtered path")
			}
		}
	}
	if sys.Covered.Contains(0) {
		t.Fatal("link e1 covered despite its only path being filtered")
	}
}

func TestGF2ThresholdPath(t *testing.T) {
	// Forcing the GF(2) tracker (threshold 1) must produce the same
	// system rank on Figure 1(a) as the float tracker.
	top := topology.Figure1A()
	model := fig1aTable(t)
	src := exactSource(t, top, model)
	gf2, err := BuildEquations(top, src, BuildOptions{GF2RankThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	flt, err := BuildEquations(top, src, BuildOptions{GF2RankThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if gf2.Rank != flt.Rank {
		t.Fatalf("GF2 rank %d != float rank %d", gf2.Rank, flt.Rank)
	}
	// And inference through the GF(2) path stays exact.
	res, err := correlation(top, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := congestion.Marginals(model)
	for k, w := range want {
		if math.Abs(res.CongestionProb[k]-w) > 1e-9 {
			t.Fatalf("link %d: %v vs %v", k, res.CongestionProb[k], w)
		}
	}
}

func TestCorrelationOnPacketLevelMeasurements(t *testing.T) {
	if testing.Short() {
		t.Skip("slow convergence test; run without -short")
	}
	// End-to-end through the full packet-level data path. Probe count
	// matters: with few probes the binomial noise of a good path's measured
	// loss fraction straddles the threshold tp and inflates the estimates
	// (quantified in BenchmarkAblationPacketLevel); 2000 probes/path push
	// that misclassification probability to negligible levels.
	top := topology.Figure1A()
	model := fig1aTable(t)
	rec, err := netsim.Run(netsim.Config{
		Topology: top, Model: model, Snapshots: 20000, Seed: 41,
		Mode: netsim.PacketLevel, PacketsPerPath: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := correlation(top, mustEmpirical(t, rec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := congestion.Marginals(model)
	for k, w := range want {
		if math.Abs(res.CongestionProb[k]-w) > 0.05 {
			t.Fatalf("link %d: packet-level inference %v, truth %v", k, res.CongestionProb[k], w)
		}
	}
}
