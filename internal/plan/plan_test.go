package plan

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/mle"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/topology"
)

func briteFixture(t *testing.T, seed int64) (*topology.Topology, *measure.Empirical) {
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
	rec, err := netsim.Run(netsim.Config{
		Topology: s.Topology, Model: s.Model, Snapshots: 600, Seed: seed + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	return s.Topology, src
}

func fig1aFixture(t *testing.T) (*topology.Topology, *measure.Empirical) {
	t.Helper()
	top := topology.Figure1A()
	model, err := congestion.NewTable(4, []congestion.GroupTable{
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
	rec, err := netsim.Run(netsim.Config{Topology: top, Model: model, Snapshots: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	return top, src
}

// oneShotLinear and oneShotTheorem compile a structure outside any plan
// and run it once on a fresh workspace: the reference a memoized plan must
// reproduce.
func oneShotLinear(t *testing.T, top *topology.Topology, src measure.Source, identity bool, opts core.Options) *core.Result {
	t.Helper()
	lp, err := core.CompileLinear(top, identity, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lp.RunIn(core.NewWorkspace(), src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlanMatchesOneShotAlgorithms pins every plan-routed estimator, run
// through the plan's memoized structures on one reused workspace,
// bit-identical to a structure compiled outside the plan.
func TestPlanMatchesOneShotAlgorithms(t *testing.T) {
	top, src := briteFixture(t, 11)
	p, err := Compile(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws := p.NewWorkspace()

	wantCorr := oneShotLinear(t, top, src, false, core.Options{})
	gotCorr, err := p.CorrelationIn(ws, src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantCorr, gotCorr) {
		t.Fatal("plan CorrelationIn differs from a one-shot correlation run")
	}

	wantIndep := oneShotLinear(t, top, src, true, core.Options{UseAllEquations: true})
	gotIndep, err := p.IndependenceIn(ws, src, core.Options{UseAllEquations: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantIndep, gotIndep) {
		t.Fatal("plan IndependenceIn differs from a one-shot independence run")
	}

	mp, err := mle.Compile(top)
	if err != nil {
		t.Fatal(err)
	}
	wantMLE, err := mp.EstimateIn(mle.NewWorkspace(), src, mle.Options{MaxIters: 60})
	if err != nil {
		t.Fatal(err)
	}
	gotMLE, err := p.MLEIn(ws, src, mle.Options{MaxIters: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantMLE, gotMLE) {
		t.Fatal("plan MLEIn differs from a one-shot mle run")
	}

	ftop, fsrc := fig1aFixture(t)
	fp, err := Compile(ftop, Options{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := core.CompileTheorem(ftop, core.TheoremOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantThm, err := tp.RunIn(core.NewWorkspace(), fsrc)
	if err != nil {
		t.Fatal(err)
	}
	gotThm, err := fp.TheoremIn(ws, fsrc, core.TheoremOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantThm, gotThm) {
		t.Fatal("plan TheoremIn differs from a one-shot theorem run")
	}
}

// TestPlanMemoizesStructures checks a structural signature compiles once
// and is shared, while distinct signatures get distinct structures.
func TestPlanMemoizesStructures(t *testing.T) {
	top, _ := briteFixture(t, 13)
	p, err := Compile(top, Options{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.linearPlan(false, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.linearPlan(false, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same signature compiled twice")
	}
	c, err := p.linearPlan(false, core.Options{DisablePairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("distinct signatures shared one structure")
	}
	d, err := p.linearPlan(true, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Fatal("identity partition shared the correlation structure")
	}
	// Normalization: spelled-out defaults and the zero value are one key.
	e, err := p.linearPlan(false, core.Options{MinProb: 1e-9, MaxPairCandidates: 200000, MaxLPSize: 600})
	if err != nil {
		t.Fatal(err)
	}
	if a != e {
		t.Fatal("explicit default options compiled a duplicate structure")
	}
}

// TestPlanConcurrentUse hammers one shared plan from many goroutines (run
// under -race in CI): every result must equal the serial reference.
func TestPlanConcurrentUse(t *testing.T) {
	top, src := briteFixture(t, 17)
	p, err := Compile(top, Options{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	wantCorr := oneShotLinear(t, top, src, false, core.Options{})
	wantIndep := oneShotLinear(t, top, src, true, core.Options{UseAllEquations: true})

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := p.NewWorkspace() // one per goroutine
			for i := 0; i < 3; i++ {
				corr, err := p.CorrelationIn(ws, src, core.Options{})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(wantCorr, corr) {
					errs <- fmt.Errorf("goroutine %d: concurrent Correlation differs", g)
					return
				}
				indep, err := p.IndependenceIn(ws, src, core.Options{UseAllEquations: true})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(wantIndep, indep) {
					errs <- fmt.Errorf("goroutine %d: concurrent Independence differs", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
