package measure

import (
	"context"
	"math"
	"testing"

	"repro/internal/bitset"
	"repro/internal/congestion"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// fig1aTable builds the Figure-1(a) ground truth as an explicit joint table:
// correlation set {e1,e2} with a correlated joint, singletons e3 and e4.
func fig1aTable(t *testing.T) congestion.Model {
	t.Helper()
	m, err := congestion.NewTable(4, []congestion.GroupTable{
		{
			Links: []int{0, 1},
			States: []congestion.SubsetProb{
				{Links: bitset.New(0), P: 0.60},
				{Links: bitset.FromIndices(0), P: 0.10},
				{Links: bitset.FromIndices(1), P: 0.12},
				{Links: bitset.FromIndices(0, 1), P: 0.18}, // >> 0.10·0.12: correlated
			},
		},
		{
			Links: []int{2},
			States: []congestion.SubsetProb{
				{Links: bitset.New(0), P: 0.8},
				{Links: bitset.FromIndices(2), P: 0.2},
			},
		},
		{
			Links: []int{3},
			States: []congestion.SubsetProb{
				{Links: bitset.New(0), P: 0.9},
				{Links: bitset.FromIndices(3), P: 0.1},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExactProbPathsGood(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aTable(t)
	ex, err := NewExact(top, model)
	if err != nil {
		t.Fatal(err)
	}
	// P(P1 good) = P(e1, e3 good) = P(S¹ ∌ e1)·P(e3 good) = (0.60+0.12)·0.8.
	want := 0.72 * 0.8
	if got := ex.ProbPathsGood(bitset.FromIndices(0)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("P(P1 good) = %v, want %v", got, want)
	}
	// P(all paths good) = P(all links good) = 0.60·0.8·0.9.
	all := bitset.FromIndices(0, 1, 2)
	if got, want := ex.ProbPathsGood(all), 0.6*0.8*0.9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("P(all good) = %v, want %v", got, want)
	}
	if got := ex.ProbPathsGood(bitset.New(0)); got != 1 {
		t.Fatalf("P(∅ good) = %v, want 1", got)
	}
}

// TestExactPatternMatchesAppendixExample verifies the Appendix-A worked
// example: P(ψ(S) = {P1,P2,P3}) — all paths congested — is the sum over the
// eight listed network states.
func TestExactPatternMatchesAppendixExample(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aTable(t)
	ex, err := NewExact(top, model)
	if err != nil {
		t.Fatal(err)
	}
	// Per-set state probabilities from fig1aTable:
	s1 := map[string]float64{"": 0.60, "e1": 0.10, "e2": 0.12, "e1e2": 0.18}
	s2 := map[string]float64{"": 0.8, "e3": 0.2}
	s3 := map[string]float64{"": 0.9, "e4": 0.1}
	// The eight states of the appendix illustration:
	want := s1["e1e2"]*s2[""]*s3[""] +
		s1["e1e2"]*s2["e3"]*s3[""] +
		s1["e1e2"]*s2[""]*s3["e4"] +
		s1["e1e2"]*s2["e3"]*s3["e4"] +
		s1[""]*s2["e3"]*s3["e4"] +
		s1["e1"]*s2["e3"]*s3["e4"] +
		s1["e2"]*s2["e3"]*s3["e4"] +
		s1["e2"]*s2["e3"]*s3[""]
	got := ex.ProbExactCongestedPaths(bitset.FromIndices(0, 1, 2))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("P(all paths congested) = %v, want %v", got, want)
	}
}

func TestExactPatternDistributionSumsToOne(t *testing.T) {
	top := topology.Figure1A()
	ex, err := NewExact(top, fig1aTable(t))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for mask := 0; mask < 8; mask++ {
		q := bitset.New(3)
		for b := 0; b < 3; b++ {
			if mask&(1<<b) != 0 {
				q.Add(b)
			}
		}
		sum += ex.ProbExactCongestedPaths(q)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pattern probabilities sum to %v", sum)
	}
}

func TestEmpiricalConvergesToExact(t *testing.T) {
	if testing.Short() {
		t.Skip("slow convergence test; run without -short")
	}
	top := topology.Figure1A()
	model := fig1aTable(t)
	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: top, Model: model, Snapshots: 200000, Seed: 5, Mode: netsim.StateLevel,
	})
	if err != nil {
		t.Fatal(err)
	}
	emp, err := NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := NewExact(top, model)

	if emp.NumPaths() != 3 || emp.Snapshots() != 200000 {
		t.Fatalf("empirical shape: %d paths, %d snapshots", emp.NumPaths(), emp.Snapshots())
	}
	queries := []*bitset.Set{
		bitset.FromIndices(0),
		bitset.FromIndices(1),
		bitset.FromIndices(2),
		bitset.FromIndices(0, 1),
		bitset.FromIndices(1, 2),
		bitset.FromIndices(0, 1, 2),
		bitset.New(0),
	}
	for _, q := range queries {
		got, want := emp.ProbPathsGood(q), ex.ProbPathsGood(q)
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("ProbPathsGood(%v): empirical %v, exact %v", q, got, want)
		}
	}
	for mask := 0; mask < 8; mask++ {
		q := bitset.New(3)
		for b := 0; b < 3; b++ {
			if mask&(1<<b) != 0 {
				q.Add(b)
			}
		}
		got, want := emp.ProbExactCongestedPaths(q), ex.ProbExactCongestedPaths(q)
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("pattern %v: empirical %v, exact %v", q, got, want)
		}
	}
}

func TestEmpiricalHelpers(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aTable(t)
	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: top, Model: model, Snapshots: 50000, Seed: 6, Mode: netsim.StateLevel,
	})
	if err != nil {
		t.Fatal(err)
	}
	emp, err := NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := emp.ProbPathGood(0), emp.ProbPathsGood(bitset.FromIndices(0)); got != want {
		t.Fatalf("ProbPathGood mismatch: %v vs %v", got, want)
	}
	if got, want := emp.ProbPairGood(0, 1), emp.ProbPathsGood(bitset.FromIndices(0, 1)); got != want {
		t.Fatalf("ProbPairGood mismatch: %v vs %v", got, want)
	}
	freq := emp.PathCongestionFrequency()
	for i, f := range freq {
		if math.Abs((1-f)-emp.ProbPathGood(topology.PathID(i))) > 1e-12 {
			t.Fatalf("path %d: frequency %v inconsistent with ProbPathGood", i, f)
		}
	}
}

func TestNewExactSizeMismatch(t *testing.T) {
	model, _ := congestion.NewIndependent([]float64{0.5})
	if _, err := NewExact(topology.Figure1A(), model); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestExactPatternRejectsHugeSets(t *testing.T) {
	// Build a correlation set of 16 links: the exact pattern source must
	// refuse (documented ≤15 limit) via panic from ProbExactCongestedPaths.
	b := topology.NewBuilder()
	hub := b.AddNode()
	var links []topology.LinkID
	for i := 0; i < 16; i++ {
		dst := b.AddNode()
		l := b.AddLink(hub, dst, "")
		links = append(links, l)
		src := b.AddNode()
		acc := b.AddLink(src, hub, "")
		b.AddPath("", acc, l)
	}
	b.Correlate(links...)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, top.NumLinks())
	model, err := congestion.NewIndependent(p)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExact(top, model)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized correlation set")
		}
	}()
	ex.ProbExactCongestedPaths(bitset.New(top.NumPaths()))
}
