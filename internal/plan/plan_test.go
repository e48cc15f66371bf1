package plan

import (
	"context"
	"fmt"
	"reflect"
	"strings"
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
	rec, err := netsim.Run(context.Background(), netsim.Config{
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
	rec, err := netsim.Run(context.Background(), netsim.Config{Topology: top, Model: model, Snapshots: 5000, Seed: 3})
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
	tp, err := core.CompileTheorem(ftop)
	if err != nil {
		t.Fatal(err)
	}
	wantThm, err := tp.RunIn(core.NewWorkspace(), fsrc)
	if err != nil {
		t.Fatal(err)
	}
	gotThm, err := fp.TheoremIn(ws, fsrc)
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

// blockingSource is a measurement source whose first query parks until
// released — it holds a workspace demonstrably mid-estimate so the
// concurrency guard can be exercised deterministically.
type blockingSource struct {
	numPaths int
	entered  chan struct{}
	release  chan struct{}
	once     sync.Once
}

func (s *blockingSource) park() {
	s.once.Do(func() {
		close(s.entered)
		<-s.release
	})
}

func (s *blockingSource) NumPaths() int                             { return s.numPaths }
func (s *blockingSource) ProbPathGood(topology.PathID) float64      { s.park(); return 0.9 }
func (s *blockingSource) ProbPairGood(_, _ topology.PathID) float64 { s.park(); return 0.9 }
func (s *blockingSource) PrimePairs([]measure.Pair)                 { s.park() }

// TestWorkspaceConcurrentUseDetected pins the misuse contract: a second
// goroutine estimating on a workspace that is mid-estimate panics with a
// diagnostic instead of silently corrupting results. Run under -race in
// CI, which would additionally flag any unsynchronized access.
func TestWorkspaceConcurrentUseDetected(t *testing.T) {
	s, err := scenario.BuildNamed("quickstart", 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(s.Topology, Options{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	src := &blockingSource{
		numPaths: s.Topology.NumPaths(),
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
	}
	ws := p.NewWorkspace()

	done := make(chan error, 1)
	go func() {
		_, err := p.CorrelationIn(ws, src, core.Options{})
		done <- err
	}()
	<-src.entered // the workspace is now provably held mid-estimate

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_, _ = p.CorrelationIn(ws, src, core.Options{})
		panicked <- nil
	}()
	r := <-panicked
	close(src.release)
	if err := <-done; err != nil {
		t.Fatalf("first CorrelationIn failed: %v", err)
	}
	if r == nil {
		t.Fatal("concurrent CorrelationIn on one workspace did not panic")
	}
	msg, ok := r.(string)
	if !ok || !strings.Contains(msg, "used concurrently") {
		t.Fatalf("concurrent use panicked with %v, want a 'used concurrently' diagnostic", r)
	}
}
