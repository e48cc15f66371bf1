package locate

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// snapshotRows materializes snapshots [0, n) through at, oldest first.
func snapshotRows(n int, at func(t int) *bitset.Set) []*bitset.Set {
	rows := make([]*bitset.Set, n)
	for t := range rows {
		rows[t] = at(t)
	}
	return rows
}

func fig1aModel(t *testing.T) congestion.Model {
	t.Helper()
	m, err := congestion.NewTable(4, []congestion.GroupTable{
		{
			Links: []int{0, 1},
			States: []congestion.SubsetProb{
				{Links: bitset.New(0), P: 0.60},
				{Links: bitset.FromIndices(0), P: 0.10},
				{Links: bitset.FromIndices(1), P: 0.12},
				{Links: bitset.FromIndices(0, 1), P: 0.18},
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
	return m
}

func TestIndependentSimpleCases(t *testing.T) {
	top := topology.Figure1A()
	probs := []float64{0.28, 0.30, 0.20, 0.10}

	// Nothing congested → nothing reported.
	res, err := Independent(top, probs, bitset.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Congested.IsEmpty() || !res.Feasible {
		t.Fatalf("empty observation: %+v", res)
	}

	// Only P1 congested → e1 is the only feasible explanation (e3 also lies
	// on good path P2).
	res, err = Independent(top, probs, bitset.FromIndices(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Congested.Equal(bitset.FromIndices(0)) {
		t.Fatalf("P1-congested: inferred %v, want {e1}", res.Congested)
	}

	// P1 and P2 congested, P3 good: e3 explains both with one link; e1+e2
	// would need two. Greedy must pick e3.
	res, err = Independent(top, probs, bitset.FromIndices(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Congested.Equal(bitset.FromIndices(2)) {
		t.Fatalf("P1,P2-congested: inferred %v, want {e3}", res.Congested)
	}
}

func TestIndependentValidation(t *testing.T) {
	top := topology.Figure1A()
	if _, err := Independent(top, []float64{0.1}, bitset.New(3)); err == nil {
		t.Fatal("bad probability vector accepted")
	}
}

func TestCorrelatedPrefersJointExplanation(t *testing.T) {
	top := topology.Figure1A()
	// All three paths congested. Feasible explanations include {e3, e4}
	// and {e1, e2, ...}. With a joint that makes {e1,e2} likely (0.18) and
	// independent e3, e4 unlikely (0.2·0.1 = 0.02), the correlated locator
	// should report e1, e2 over e3∧e4... but {e1,e2} covers all three paths
	// already.
	states := []SetStates{{
		Set: top.SetOf(0),
		States: []SubsetState{
			{Links: bitset.New(0), P: 0.60},
			{Links: bitset.FromIndices(0), P: 0.10},
			{Links: bitset.FromIndices(1), P: 0.12},
			{Links: bitset.FromIndices(0, 1), P: 0.18},
		},
	}}
	probs := []float64{0.28, 0.30, 0.20, 0.10}
	res, err := Correlated(top, probs, states, bitset.FromIndices(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("infeasible result")
	}
	if !res.Congested.Contains(0) || !res.Congested.Contains(1) {
		t.Fatalf("correlated locator missed the joint {e1,e2} explanation: %v", res.Congested)
	}
	// An independence-based locator, in contrast, prefers {e3, e4}:
	// two "cheap" links each covering the paths.
	resI, err := Independent(top, []float64{0.05, 0.05, 0.2, 0.1}, bitset.FromIndices(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !resI.Congested.Equal(bitset.FromIndices(2, 3)) {
		t.Fatalf("independent locator: %v, want {e3,e4}", resI.Congested)
	}
}

func TestFeasibilityInvariant(t *testing.T) {
	// Property: on simulated snapshots, both locators return feasible sets
	// whose coverage equals the observation.
	top := topology.Figure1A()
	model := fig1aModel(t)
	rec, err := netsim.Run(netsim.Config{
		Topology: top, Model: model, Snapshots: 500, Seed: 3,
		Mode: netsim.StateLevel, RecordLinkStates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	probs := congestion.Marginals(model)
	states := []SetStates{{
		Set: top.SetOf(0),
		States: []SubsetState{
			{Links: bitset.New(0), P: 0.60},
			{Links: bitset.FromIndices(0), P: 0.10},
			{Links: bitset.FromIndices(1), P: 0.12},
			{Links: bitset.FromIndices(0, 1), P: 0.18},
		},
	}}
	for snap, obs := range snapshotRows(rec.Snapshots(), rec.PathSnapshot) {
		for name, run := range map[string]func() (*Result, error){
			"independent": func() (*Result, error) { return Independent(top, probs, obs) },
			"correlated":  func() (*Result, error) { return Correlated(top, probs, states, obs) },
		} {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Feasible {
				t.Fatalf("snapshot %d %s: infeasible", snap, name)
			}
			if got := top.Coverage(res.Congested); !got.Equal(obs) {
				t.Fatalf("snapshot %d %s: explanation covers %v, observed %v", snap, name, got, obs)
			}
		}
	}
}

// End-to-end: tomography learns the probabilities, localization uses them;
// the correlation-aware pipeline must detect more truly congested links on
// the correlated scenario.
func TestCorrelatedLocalizationBeatsIndependent(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aModel(t)
	rec, err := netsim.Run(netsim.Config{
		Topology: top, Model: model, Snapshots: 30000, Seed: 5,
		Mode: netsim.StateLevel, RecordLinkStates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}

	// Learn with the theorem algorithm (joints) and the independence
	// baseline (marginals only).
	tp, err := core.CompileTheorem(top)
	if err != nil {
		t.Fatal(err)
	}
	thm, err := tp.RunIn(core.NewWorkspace(), src)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := core.CompileLinear(top, true, core.Options{UseAllEquations: true})
	if err != nil {
		t.Fatal(err)
	}
	indep, err := lp.RunIn(core.NewWorkspace(), src)
	if err != nil {
		t.Fatal(err)
	}

	var states []SetStates
	for p := 0; p < top.NumSets(); p++ {
		ss := SetStates{Set: p}
		// Reconstruct each set's state distribution from the theorem output.
		links := top.CorrelationSet(p).Indices()
		bitset.EnumerateSubsets(links, func(s *bitset.Set) bool {
			if prob, ok := thm.JointProb[s.Key()]; ok {
				ss.States = append(ss.States, SubsetState{Links: s.Clone(), P: prob})
			}
			return true
		})
		ss.States = append(ss.States, SubsetState{Links: bitset.New(0), P: thm.ProbSetEmpty[p]})
		states = append(states, ss)
	}

	eval := func(run func(obs *bitset.Set) (*Result, error)) Metrics {
		var inferred []*bitset.Set
		for _, obs := range snapshotRows(rec.Snapshots(), rec.PathSnapshot) {
			res, err := run(obs)
			if err != nil {
				t.Fatal(err)
			}
			inferred = append(inferred, res.Congested)
		}
		m, err := Evaluate(snapshotRows(rec.Snapshots(), rec.LinkSnapshot), inferred)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	mCorr := eval(func(obs *bitset.Set) (*Result, error) {
		return Correlated(top, thm.CongestionProb, states, obs)
	})
	mIndep := eval(func(obs *bitset.Set) (*Result, error) {
		return Independent(top, indep.CongestionProb, obs)
	})

	if mCorr.DetectionRate <= mIndep.DetectionRate-0.01 {
		t.Fatalf("correlated DR %.3f not better than independent DR %.3f",
			mCorr.DetectionRate, mIndep.DetectionRate)
	}
	if mCorr.DetectionRate < 0.7 {
		t.Fatalf("correlated detection rate %.3f too low", mCorr.DetectionRate)
	}
	t.Logf("correlated: DR=%.3f FPR=%.3f | independent: DR=%.3f FPR=%.3f",
		mCorr.DetectionRate, mCorr.FalsePositiveRate, mIndep.DetectionRate, mIndep.FalsePositiveRate)
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(make([]*bitset.Set, 2), make([]*bitset.Set, 3)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	m, err := Evaluate(nil, nil)
	if err != nil || m.Snapshots != 0 {
		t.Fatalf("empty evaluate: %+v, %v", m, err)
	}
}

var _ = rand.Int // keep math/rand available for future property tests
