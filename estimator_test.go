package tomography_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	tomography "repro"
	"repro/internal/brite"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/mle"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// randomFixture builds a randomized Brite topology with a correlated
// scenario and an empirical source over a short simulation.
func randomFixture(t testing.TB, seed int64, paths int) (*topology.Topology, *measure.Empirical) {
	t.Helper()
	net, err := brite.Generate(brite.Config{ASes: 20 + int(seed%17), EdgesPerAS: 2, Paths: paths, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Brite(scenario.BriteConfig{
		Net: net, FracCongested: 0.10 + 0.02*float64(seed%4), Level: scenario.HighCorrelation, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := netsim.Run(netsim.Config{
		Topology: s.Topology, Model: s.Model, Snapshots: 700, Seed: seed + 2,
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

func TestEstimatorRegistry(t *testing.T) {
	names := tomography.EstimatorNames()
	want := []string{"correlation", "independence", "mle", "theorem"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("estimators = %v, want %v", names, want)
	}
	names[0] = "mutated"
	if got := tomography.EstimatorNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a caller's edit reached the fixed list: %v", got)
	}
	if _, err := tomography.Estimate("bogus", nil, nil, tomography.EstimateOptions{}); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}

// runLinearOnce, runTheoremOnce and runMLEOnce compile one estimator family
// directly in internal/core or internal/mle and run it once on a fresh
// workspace: the one-shot way to call each algorithm.
func runLinearOnce(top *topology.Topology, src measure.Source, identity bool, opts core.Options) (*core.Result, error) {
	lp, err := core.CompileLinear(top, identity, opts)
	if err != nil {
		return nil, err
	}
	return lp.RunIn(core.NewWorkspace(), src)
}

func runTheoremOnce(top *topology.Topology, src measure.PatternSource) (*core.TheoremResult, error) {
	tp, err := core.CompileTheorem(top)
	if err != nil {
		return nil, err
	}
	return tp.RunIn(core.NewWorkspace(), src)
}

func runMLEOnce(top *topology.Topology, src measure.Source, opts mle.Options) (*mle.Result, error) {
	mp, err := mle.Compile(top)
	if err != nil {
		return nil, err
	}
	return mp.EstimateIn(mle.NewWorkspace(), src, opts)
}

// legacyReference runs one estimator name as a one-shot call straight
// against internal/core and internal/mle, bypassing the facade and the
// plan's memo — the reference the facade must stay bit-identical to.
func legacyReference(name string, top *topology.Topology, src *measure.Empirical, opts tomography.EstimateOptions) ([]float64, error) {
	switch name {
	case "correlation", "independence":
		res, err := runLinearOnce(top, src, name == "independence", opts.Algorithm)
		if err != nil {
			return nil, err
		}
		return res.CongestionProb, nil
	case "theorem":
		res, err := runTheoremOnce(top, src)
		if err != nil {
			return nil, err
		}
		return res.CongestionProb, nil
	case "mle":
		res, err := runMLEOnce(top, src, opts.MLE)
		if err != nil {
			return nil, err
		}
		return res.CongestionProb, nil
	}
	return nil, fmt.Errorf("no legacy reference for %q", name)
}

// TestCompileOnceEstimateManyMatchesLegacy is the redesign's core property:
// compile a plan once, run every estimator against it many
// times, and require bit-identical output to one-shot runs —
// including identical errors where an estimator rejects the topology (the
// theorem algorithm on non-Assumption-4 random graphs).
func TestCompileOnceEstimateManyMatchesLegacy(t *testing.T) {
	opts := tomography.EstimateOptions{MLE: tomography.MLEOptions{MaxIters: 50}}
	for _, seed := range []int64{2, 29, 57, 83} {
		top, src := randomFixture(t, seed, 60+int(seed))
		plan, err := tomography.Compile(top, tomography.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range tomography.EstimatorNames() {
			wantProbs, wantErr := legacyReference(name, top, src, opts)
			for round := 0; round < 3; round++ {
				got, gotErr := tomography.Estimate(name, plan, src, opts)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d %s round %d: error mismatch: legacy %v, plan %v", seed, name, round, wantErr, gotErr)
				}
				if wantErr != nil {
					if wantErr.Error() != gotErr.Error() {
						t.Fatalf("seed %d %s: error text diverged:\nlegacy: %v\nplan:   %v", seed, name, wantErr, gotErr)
					}
					continue
				}
				if !reflect.DeepEqual(wantProbs, got.CongestionProb) {
					t.Fatalf("seed %d %s round %d: plan probabilities differ from legacy one-shot", seed, name, round)
				}
				if got.Estimator != name {
					t.Fatalf("result names estimator %q, want %q", got.Estimator, name)
				}
			}
		}
	}
}

// TestSharedPlanConcurrentEstimates runs every estimator from many
// goroutines against one shared plan (exercised under -race in CI): every
// result must be bit-identical to the serial reference.
func TestSharedPlanConcurrentEstimates(t *testing.T) {
	top, src := randomFixture(t, 41, 70)
	plan, err := tomography.Compile(top, tomography.PlanOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := tomography.EstimateOptions{MLE: tomography.MLEOptions{MaxIters: 40}}

	type ref struct {
		probs []float64
		err   error
	}
	refs := map[string]ref{}
	for _, name := range tomography.EstimatorNames() {
		probs, err := legacyReference(name, top, src, opts)
		refs[name] = ref{probs, err}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				for _, name := range tomography.EstimatorNames() {
					want := refs[name]
					got, err := tomography.Estimate(name, plan, src, opts)
					if (want.err == nil) != (err == nil) {
						errs <- fmt.Errorf("goroutine %d %s: error mismatch: %v vs %v", g, name, want.err, err)
						return
					}
					if err != nil {
						continue
					}
					if !reflect.DeepEqual(want.probs, got.CongestionProb) {
						errs <- fmt.Errorf("goroutine %d %s: concurrent estimate differs from serial reference", g, name)
						return
					}
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
