package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/congestion"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// mustEmpirical wraps a record, failing the test on an empty record.
func mustEmpirical(t *testing.T, rec *netsim.Record) *measure.Empirical {
	t.Helper()
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// correlation, independence and theorem compile an algorithm and run it
// once on a fresh workspace, the way a one-shot caller does.
func correlation(top *topology.Topology, src measure.Source, opts Options) (*Result, error) {
	return runLinearOnce(top, src, false, opts)
}

func independence(top *topology.Topology, src measure.Source, opts Options) (*Result, error) {
	return runLinearOnce(top, src, true, opts)
}

func runLinearOnce(top *topology.Topology, src measure.Source, identity bool, opts Options) (*Result, error) {
	lp, err := CompileLinear(top, identity, opts)
	if err != nil {
		return nil, err
	}
	return lp.RunIn(NewWorkspace(), src)
}

func theorem(top *topology.Topology, src measure.PatternSource) (*TheoremResult, error) {
	pl, err := CompileTheorem(top)
	if err != nil {
		return nil, err
	}
	return pl.RunIn(NewWorkspace(), src)
}

// fig1aTable is the Figure-1(a) ground truth used across the core tests:
// correlation set {e1,e2} with a genuinely correlated joint (P(both) = 0.18
// >> 0.10·0.12), plus independent e3 and e4.
func fig1aTable(t *testing.T) congestion.Model {
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

// chainCorr builds the topology that separates the two practical algorithms:
// a path P1 that crosses BOTH links of a correlation set {a, b}.
//
//	links: a: n0→n1, b: n1→n2, c: s1→n1, d: n1→s3  (a,b correlated)
//	paths: P1 = (a,b), P2 = (c,b), P3 = (a,d)
//
// Coverages {a}:{P1,P3} {b}:{P1,P2} {a,b}:{P1,P2,P3} {c}:{P2} {d}:{P3} are
// pairwise distinct, so Assumption 4 holds and the theorem algorithm is
// exact; but the correlation algorithm must discard P1 (correlated links),
// while the independence baseline happily uses it — and errs.
func chainCorr(t *testing.T) (*topology.Topology, congestion.Model) {
	t.Helper()
	b := topology.NewBuilder()
	n0, n1, n2 := b.AddNode(), b.AddNode(), b.AddNode()
	s1, s3 := b.AddNode(), b.AddNode()
	la := b.AddLink(n0, n1, "a")
	lb := b.AddLink(n1, n2, "b")
	lc := b.AddLink(s1, n1, "c")
	ld := b.AddLink(n1, s3, "d")
	b.AddPath("P1", la, lb)
	b.AddPath("P2", lc, lb)
	b.AddPath("P3", la, ld)
	b.Correlate(la, lb)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := congestion.NewTable(4, []congestion.GroupTable{
		{
			Links: []int{0, 1},
			States: []congestion.SubsetProb{
				{Links: bitset.New(0), P: 0.70},
				{Links: bitset.FromIndices(0), P: 0.05},
				{Links: bitset.FromIndices(1), P: 0.05},
				{Links: bitset.FromIndices(0, 1), P: 0.20},
			},
		},
		{Links: []int{2}, States: []congestion.SubsetProb{
			{Links: bitset.New(0), P: 0.9}, {Links: bitset.FromIndices(2), P: 0.1},
		}},
		{Links: []int{3}, States: []congestion.SubsetProb{
			{Links: bitset.New(0), P: 0.85}, {Links: bitset.FromIndices(3), P: 0.15},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return top, m
}

func exactSource(t *testing.T, top *topology.Topology, m congestion.Model) *measure.Exact {
	t.Helper()
	src, err := measure.NewExact(top, m)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestBuildEquationsFigure1A(t *testing.T) {
	top := topology.Figure1A()
	src := exactSource(t, top, fig1aTable(t))
	sys, err := BuildEquations(top, src, false, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	// The Section-4 worked example: 3 single-path equations + 1 pair
	// equation (P2, P3), reaching full rank 4.
	if sys.SinglePathEqs != 3 || sys.PairEqs != 1 || sys.Rank != 4 {
		t.Fatalf("N1=%d N2=%d rank=%d, want 3/1/4", sys.SinglePathEqs, sys.PairEqs, sys.Rank)
	}
	// The pair equation must be over {e2, e3, e4} — never {e1, e2, ...}.
	pair := sys.Equations[3]
	if !pair.Links.Equal(bitset.FromIndices(1, 2, 3)) {
		t.Fatalf("pair equation links = %v, want {e2,e3,e4}", pair.Links)
	}
	if !sys.Covered.Equal(bitset.FromIndices(0, 1, 2, 3)) {
		t.Fatalf("covered = %v", sys.Covered)
	}
}

// Admissibility invariant: no equation may contain two links of one
// correlation set.
func TestEquationsAdmissibilityInvariant(t *testing.T) {
	tops := []*topology.Topology{topology.Figure1A(), gridTopology(t, 4, nil)}
	for _, top := range tops {
		p := make([]float64, top.NumLinks())
		for i := range p {
			p[i] = 0.1
		}
		model, _ := congestion.NewIndependent(p)
		src := exactSource(t, top, model)
		sys, err := BuildEquations(top, src, false, Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, eq := range sys.Equations {
			if top.LinkSetHasCorrelatedLinks(eq.Links) {
				t.Fatalf("equation %v contains correlated links", eq.Links)
			}
		}
	}
}

func TestCorrelationExactOnFigure1A(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aTable(t)
	res, err := correlation(top, exactSource(t, top, model), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != SolverSquare {
		t.Fatalf("solver = %s, want square (full rank)", res.Solver)
	}
	want := congestion.Marginals(model) // 0.28, 0.30, 0.2, 0.1
	for k, w := range want {
		if math.Abs(res.CongestionProb[k]-w) > 1e-9 {
			t.Fatalf("link %d: inferred %v, true %v", k, res.CongestionProb[k], w)
		}
	}
}

func TestIndependenceBiasedOnCorrelatedChain(t *testing.T) {
	top, model := chainCorr(t)
	src := exactSource(t, top, model)

	res, err := independence(top, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := congestion.Marginals(model) // a:0.25 b:0.25 c:0.1 d:0.15

	// Worked out by hand (see test comment above): the independence
	// algorithm recovers a and d exactly but mis-infers b (≈0.0667) and, by
	// cascading, c (≈0.2768).
	if math.Abs(res.CongestionProb[0]-0.25) > 1e-9 {
		t.Fatalf("independence P(a) = %v, want 0.25", res.CongestionProb[0])
	}
	if math.Abs(res.CongestionProb[3]-0.15) > 1e-9 {
		t.Fatalf("independence P(d) = %v, want 0.15", res.CongestionProb[3])
	}
	wantB := 1 - 0.7/0.75
	if math.Abs(res.CongestionProb[1]-wantB) > 1e-9 {
		t.Fatalf("independence P(b) = %v, want %v", res.CongestionProb[1], wantB)
	}
	if math.Abs(res.CongestionProb[1]-truth[1]) < 0.1 {
		t.Fatal("independence unexpectedly accurate on the correlated link b")
	}
	wantC := 1 - 0.675/(0.7/0.75*0.9)*0.9/0.9 // log algebra collapsed below
	_ = wantC
	// c error must cascade: |inferred − 0.1| > 0.15.
	if math.Abs(res.CongestionProb[2]-truth[2]) < 0.15 {
		t.Fatalf("independence P(c) = %v; expected a cascading error vs truth %v",
			res.CongestionProb[2], truth[2])
	}
}

func TestCorrelationAbstainsOnCorrelatedChain(t *testing.T) {
	top, model := chainCorr(t)
	src := exactSource(t, top, model)
	res, err := correlation(top, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys := res.System
	// P1 crosses two correlated links and must be discarded; no admissible
	// pair shares a link, so the system stays at rank 2 and the L1
	// completion runs.
	if sys.SinglePathEqs != 2 || sys.PairEqs != 0 || sys.Rank != 2 {
		t.Fatalf("N1=%d N2=%d rank=%d, want 2/0/2", sys.SinglePathEqs, sys.PairEqs, sys.Rank)
	}
	if res.Solver != SolverL1 {
		t.Fatalf("solver = %s, want l1", res.Solver)
	}
	// The solution must satisfy the (correct) constraints it kept:
	// x_b + x_c = log P(b,c good), x_a + x_d = log P(a,d good).
	xbc := res.LogGoodProb[1] + res.LogGoodProb[2]
	if want := math.Log(model.ProbAllGood(bitset.FromIndices(1, 2))); math.Abs(xbc-want) > 1e-6 {
		t.Fatalf("x_b+x_c = %v, want %v", xbc, want)
	}
	xad := res.LogGoodProb[0] + res.LogGoodProb[3]
	if want := math.Log(model.ProbAllGood(bitset.FromIndices(0, 3))); math.Abs(xad-want) > 1e-6 {
		t.Fatalf("x_a+x_d = %v, want %v", xad, want)
	}
}

func TestTheoremExactOnFigure1A(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aTable(t)
	src := exactSource(t, top, model)
	res, err := theorem(top, src)
	if err != nil {
		t.Fatal(err)
	}
	want := congestion.Marginals(model)
	for k, w := range want {
		if math.Abs(res.CongestionProb[k]-w) > 1e-9 {
			t.Fatalf("link %d: theorem %v, true %v", k, res.CongestionProb[k], w)
		}
	}
	// Congestion factors from the table: αA = P(S=A)/P(S=∅).
	checks := map[string]float64{
		bitset.FromIndices(0).Key():    0.10 / 0.60,
		bitset.FromIndices(1).Key():    0.12 / 0.60,
		bitset.FromIndices(0, 1).Key(): 0.18 / 0.60,
		bitset.FromIndices(2).Key():    0.20 / 0.80,
		bitset.FromIndices(3).Key():    0.10 / 0.90,
	}
	for key, w := range checks {
		if got := res.Alpha[key]; math.Abs(got-w) > 1e-9 {
			t.Fatalf("α[%s] = %v, want %v", key, got, w)
		}
	}
	// Lemma 3 joint: P(Xe1=1, Xe2=1) = P(S¹={e1,e2}) = 0.18.
	if got := res.JointProb[bitset.FromIndices(0, 1).Key()]; math.Abs(got-0.18) > 1e-9 {
		t.Fatalf("joint P(e1,e2 congested) = %v, want 0.18", got)
	}
	// Computation order must be ascending in |ψ(A)|.
	prev := 0
	for _, s := range res.Subsets {
		c := top.Coverage(s).Len()
		if c < prev {
			t.Fatalf("subsets out of coverage order")
		}
		prev = c
	}
}

// The theorem algorithm identifies even the links the practical algorithm
// cannot pin down on chainCorr — it is exact whenever Assumption 4 holds.
func TestTheoremExactOnCorrelatedChain(t *testing.T) {
	top, model := chainCorr(t)
	res, err := theorem(top, exactSource(t, top, model))
	if err != nil {
		t.Fatal(err)
	}
	want := congestion.Marginals(model)
	for k, w := range want {
		if math.Abs(res.CongestionProb[k]-w) > 1e-9 {
			t.Fatalf("link %d: theorem %v, true %v", k, res.CongestionProb[k], w)
		}
	}
}

func TestTheoremRejectsAssumption4Violation(t *testing.T) {
	top := topology.Figure1B()
	p := []float64{0.1, 0.1, 0.1}
	model, _ := congestion.NewIndependent(p)
	src := exactSource(t, top, model)
	if _, err := theorem(top, src); err == nil {
		t.Fatal("theorem accepted a topology violating Assumption 4")
	}
}

func TestTheoremRejectsHugeSets(t *testing.T) {
	// A star of 13 links, one single-link path each, all in one correlation
	// set: 2^13 subsets, one link past the cap.
	b := topology.NewBuilder()
	hub := b.AddNode()
	var links []topology.LinkID
	for i := 0; i < 13; i++ {
		l := b.AddLink(hub, b.AddNode(), fmt.Sprintf("e%d", i))
		b.AddPath(fmt.Sprintf("P%d", i), l)
		links = append(links, l)
	}
	b.Correlate(links...)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = CompileTheorem(top)
	want := "core: correlation set 0 has 13 links (2^13 subsets exceeds the cap 4096); the theorem algorithm is exponential — use Correlation instead"
	if err == nil || err.Error() != want {
		t.Fatalf("CompileTheorem error = %v, want %q", err, want)
	}
}

func TestTheoremOnEmpiricalMeasurements(t *testing.T) {
	if testing.Short() {
		t.Skip("slow convergence test; run without -short")
	}
	top := topology.Figure1A()
	model := fig1aTable(t)
	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: top, Model: model, Snapshots: 300000, Seed: 21, Mode: netsim.StateLevel,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := theorem(top, mustEmpirical(t, rec))
	if err != nil {
		t.Fatal(err)
	}
	want := congestion.Marginals(model)
	for k, w := range want {
		if math.Abs(res.CongestionProb[k]-w) > 0.01 {
			t.Fatalf("link %d: theorem-from-measurements %v, true %v", k, res.CongestionProb[k], w)
		}
	}
}

func TestCorrelationOnEmpiricalMeasurements(t *testing.T) {
	if testing.Short() {
		t.Skip("slow convergence test; run without -short")
	}
	top := topology.Figure1A()
	model := fig1aTable(t)
	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: top, Model: model, Snapshots: 200000, Seed: 22, Mode: netsim.StateLevel,
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
		if math.Abs(res.CongestionProb[k]-w) > 0.01 {
			t.Fatalf("link %d: inferred %v, true %v", k, res.CongestionProb[k], w)
		}
	}
}

// gridTopology: K sources with access links aᵢ → hub → K destinations with
// egress links bⱼ; paths Pᵢⱼ = (aᵢ, bⱼ) for all i, j. correlate lists groups
// of a-link indices (0-based source index) to correlate.
func gridTopology(t *testing.T, k int, correlate [][]int) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	hub := b.AddNode()
	var aLinks, bLinks []topology.LinkID
	for i := 0; i < k; i++ {
		s := b.AddNode()
		aLinks = append(aLinks, b.AddLink(s, hub, ""))
	}
	for j := 0; j < k; j++ {
		d := b.AddNode()
		bLinks = append(bLinks, b.AddLink(hub, d, ""))
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			b.AddPath("", aLinks[i], bLinks[j])
		}
	}
	for _, g := range correlate {
		links := make([]topology.LinkID, len(g))
		for x, i := range g {
			links[x] = aLinks[i]
		}
		b.Correlate(links...)
	}
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// Property: on grid topologies with one correlated access pair and random
// joint tables, the correlation algorithm reaches full rank (singles give
// 2K−1, one pair equation closes the gap) and recovers every marginal
// exactly from exact measurements.
func TestCorrelationExactOnRandomGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(3)
		top := gridTopology(t, k, [][]int{{0, 1}})

		// Random joint on {a0, a1}; random independent probabilities
		// elsewhere.
		j00 := 0.4 + 0.3*rng.Float64()
		j10 := 0.2 * rng.Float64()
		j01 := 0.2 * rng.Float64()
		j11 := 1 - j00 - j10 - j01
		groups := []congestion.GroupTable{{
			Links: []int{0, 1},
			States: []congestion.SubsetProb{
				{Links: bitset.New(0), P: j00},
				{Links: bitset.FromIndices(0), P: j10},
				{Links: bitset.FromIndices(1), P: j01},
				{Links: bitset.FromIndices(0, 1), P: j11},
			},
		}}
		for l := 2; l < top.NumLinks(); l++ {
			p := 0.3 * rng.Float64()
			groups = append(groups, congestion.GroupTable{
				Links: []int{l},
				States: []congestion.SubsetProb{
					{Links: bitset.New(0), P: 1 - p},
					{Links: bitset.FromIndices(l), P: p},
				},
			})
		}
		model, err := congestion.NewTable(top.NumLinks(), groups)
		if err != nil {
			t.Fatal(err)
		}
		res, err := correlation(top, exactSource(t, top, model), Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.System.Rank != top.NumLinks() {
			t.Fatalf("trial %d: rank %d < %d links", trial, res.System.Rank, top.NumLinks())
		}
		want := congestion.Marginals(model)
		for l, w := range want {
			if math.Abs(res.CongestionProb[l]-w) > 1e-8 {
				t.Fatalf("trial %d link %d: inferred %v, true %v", trial, l, res.CongestionProb[l], w)
			}
		}
	}
}

// Property: theorem algorithm is exact on the same random grids.
func TestTheoremExactOnRandomGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		k := 2 + rng.Intn(2)
		top := gridTopology(t, k, [][]int{{0, 1}})
		j00 := 0.5 + 0.2*rng.Float64()
		j10 := 0.15 * rng.Float64()
		j01 := 0.15 * rng.Float64()
		j11 := 1 - j00 - j10 - j01
		groups := []congestion.GroupTable{{
			Links: []int{0, 1},
			States: []congestion.SubsetProb{
				{Links: bitset.New(0), P: j00},
				{Links: bitset.FromIndices(0), P: j10},
				{Links: bitset.FromIndices(1), P: j01},
				{Links: bitset.FromIndices(0, 1), P: j11},
			},
		}}
		for l := 2; l < top.NumLinks(); l++ {
			p := 0.25 * rng.Float64()
			groups = append(groups, congestion.GroupTable{
				Links: []int{l},
				States: []congestion.SubsetProb{
					{Links: bitset.New(0), P: 1 - p},
					{Links: bitset.FromIndices(l), P: p},
				},
			})
		}
		model, err := congestion.NewTable(top.NumLinks(), groups)
		if err != nil {
			t.Fatal(err)
		}
		res, err := theorem(top, exactSource(t, top, model))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := congestion.Marginals(model)
		for l, w := range want {
			if math.Abs(res.CongestionProb[l]-w) > 1e-8 {
				t.Fatalf("trial %d link %d: theorem %v, true %v", trial, l, res.CongestionProb[l], w)
			}
		}
	}
}

func TestUseAllEquationsLeastSquares(t *testing.T) {
	if testing.Short() {
		t.Skip("slow convergence test; run without -short")
	}
	top := topology.Figure1A()
	model := fig1aTable(t)
	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: top, Model: model, Snapshots: 100000, Seed: 23, Mode: netsim.StateLevel,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := correlation(top, mustEmpirical(t, rec), Options{UseAllEquations: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != SolverLeastSquares {
		t.Fatalf("solver = %s, want least-squares", res.Solver)
	}
	want := congestion.Marginals(model)
	for k, w := range want {
		if math.Abs(res.CongestionProb[k]-w) > 0.02 {
			t.Fatalf("link %d: inferred %v, true %v", k, res.CongestionProb[k], w)
		}
	}
}

func TestBuildEquationsSourceMismatch(t *testing.T) {
	top := topology.Figure1A() // 3 paths
	other := topology.Figure1B()
	model, _ := congestion.NewIndependent([]float64{0.1, 0.1, 0.1})
	src := exactSource(t, other, model) // 2 paths
	if _, err := BuildEquations(top, src, false, Options{}, false); err == nil {
		t.Fatal("path-count mismatch accepted")
	}
}

func TestMinProbSkipsDeadPaths(t *testing.T) {
	// A link that is always congested makes its paths' good-probability 0;
	// those observations must be skipped, not produce log(0).
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
	sys, err := BuildEquations(top, src, false, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if sys.SkippedZeroProb == 0 {
		t.Fatal("expected zero-probability observations to be skipped")
	}
	for _, eq := range sys.Equations {
		if math.IsInf(eq.Y, 0) || math.IsNaN(eq.Y) {
			t.Fatalf("equation with non-finite Y: %v", eq.Y)
		}
	}
}
