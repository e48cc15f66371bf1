package mle

import (
	"context"
	"math"
	"testing"

	"repro/internal/bitset"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/trace"
)

func simulate(t *testing.T, top *topology.Topology, model congestion.Model, n int, seed int64) *measure.Empirical {
	t.Helper()
	rec, err := netsim.Run(context.Background(), netsim.Config{Topology: top, Model: model, Snapshots: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// estimate compiles the estimator and runs it once on a fresh workspace.
func estimate(top *topology.Topology, src measure.Source, opts Options) (*Result, error) {
	p, err := Compile(top)
	if err != nil {
		return nil, err
	}
	return p.EstimateIn(NewWorkspace(), src, opts)
}

// runLinearOnce runs one of core's linear algorithms once on a fresh workspace.
func runLinearOnce(top *topology.Topology, src measure.Source, identity bool, opts core.Options) (*core.Result, error) {
	lp, err := core.CompileLinear(top, identity, opts)
	if err != nil {
		return nil, err
	}
	return lp.RunIn(core.NewWorkspace(), src)
}

func TestEstimateRecoversIndependentTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("slow convergence test; run without -short")
	}
	top := topology.Figure1A()
	model, err := congestion.NewIndependent([]float64{0.25, 0.15, 0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	src := simulate(t, top, model, 150000, 3)
	res, err := estimate(top, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := congestion.Marginals(model)
	for k, w := range truth {
		if math.Abs(res.CongestionProb[k]-w) > 0.02 {
			t.Fatalf("link %d: mle %v, truth %v", k, res.CongestionProb[k], w)
		}
	}
	if res.Iters == 0 {
		t.Fatal("optimizer did not iterate")
	}
	for _, x := range res.LogGoodProb {
		if x > 0 {
			t.Fatalf("positive log-probability %v", x)
		}
	}
}

func TestEstimateValidation(t *testing.T) {
	top := topology.Figure1A()
	other := topology.Figure1B()
	model, _ := congestion.NewIndependent([]float64{0.1, 0.1, 0.1})
	src := simulate(t, other, model, 1000, 1)
	if _, err := estimate(top, src, Options{}); err == nil {
		t.Fatal("path-count mismatch accepted")
	}
}

// Like every independence-based estimator, the MLE is biased when links are
// correlated: on the Figure-1(a) correlated table it must misestimate at
// least one of e1/e2/e3/e4 noticeably, where the correlation algorithm is
// exact.
func TestEstimateBiasedUnderCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow convergence test; run without -short")
	}
	top := topology.Figure1A()
	model, err := congestion.NewTable(4, []congestion.GroupTable{
		{
			Links: []int{0, 1},
			States: []congestion.SubsetProb{
				{Links: bitset.New(0), P: 0.60},
				{Links: bitset.FromIndices(0), P: 0.05},
				{Links: bitset.FromIndices(1), P: 0.05},
				{Links: bitset.FromIndices(0, 1), P: 0.30},
			},
		},
		{Links: []int{2}, States: []congestion.SubsetProb{
			{Links: bitset.New(0), P: 0.8}, {Links: bitset.FromIndices(2), P: 0.2},
		}},
		{Links: []int{3}, States: []congestion.SubsetProb{
			{Links: bitset.New(0), P: 0.9}, {Links: bitset.FromIndices(3), P: 0.1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := simulate(t, top, model, 200000, 5)
	res, err := estimate(top, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := congestion.Marginals(model)
	worst := 0.0
	for k, w := range truth {
		if d := math.Abs(res.CongestionProb[k] - w); d > worst {
			worst = d
		}
	}
	// The composite likelihood sees P(P1 good)·P(P2 good) structure that no
	// independent q can match exactly; the bias must be material.
	if worst < 0.02 {
		t.Fatalf("expected visible bias under correlation, worst error %v", worst)
	}
	// And the correlation algorithm on the same measurements is accurate.
	corr, err := runLinearOnce(top, src, false, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	worstCorr := 0.0
	for k, w := range truth {
		if d := math.Abs(corr.CongestionProb[k] - w); d > worstCorr {
			worstCorr = d
		}
	}
	if worstCorr > worst/2 {
		t.Fatalf("correlation algorithm (worst %v) not clearly better than MLE (worst %v)", worstCorr, worst)
	}
}

// On a larger independent scenario, the MLE should be competitive with the
// independence log-linear solver (same assumption, same data).
func TestEstimateCompetitiveWithLinearOnIndependentScenario(t *testing.T) {
	net, err := trace.Discover(trace.Config{
		Elements: 80, HiddenFrac: 0.05, VantagePoints: 14, Paths: 80, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := net.Logical
	s, err := scenario.FromTopology(scenario.FromTopologyConfig{
		Topology: top, FracCongested: 0.15, Level: scenario.LooseCorrelation, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := netsim.Run(context.Background(), netsim.Config{Topology: top, Model: s.Model, Snapshots: 4000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}

	mleRes, err := estimate(top, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	linRes, err := runLinearOnce(top, src, true, core.Options{UseAllEquations: true})
	if err != nil {
		t.Fatal(err)
	}
	mleErr := eval.Mean(eval.AbsErrors(s.Truth, mleRes.CongestionProb, s.PotentiallyCongested))
	linErr := eval.Mean(eval.AbsErrors(s.Truth, linRes.CongestionProb, s.PotentiallyCongested))
	t.Logf("mle mean-err %.4f, linear mean-err %.4f", mleErr, linErr)
	if mleErr > linErr+0.05 {
		t.Fatalf("MLE (%.4f) much worse than the linear solver (%.4f) on its home turf", mleErr, linErr)
	}
}

func TestEstimateMonotoneLikelihood(t *testing.T) {
	// Convergence sanity: running with more iterations never lowers the
	// final likelihood.
	top := topology.Figure1A()
	model, _ := congestion.NewIndependent([]float64{0.3, 0.2, 0.25, 0.15})
	src := simulate(t, top, model, 20000, 7)
	short, err := estimate(top, src, Options{MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	long, err := estimate(top, src, Options{MaxIters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if long.LogLikelihood < short.LogLikelihood-1e-9 {
		t.Fatalf("likelihood decreased with more iterations: %v -> %v",
			short.LogLikelihood, long.LogLikelihood)
	}
}
