package tomography_test

import (
	"context"
	"sync"
	"testing"

	tomography "repro"
	"repro/internal/brite"
	"repro/internal/scenario"
)

// windowFixture builds a small Brite topology with a flash-crowd-style
// dynamic process and simulates a record from it.
func windowFixture(t testing.TB, snapshots int) (*tomography.Topology, *tomography.Record) {
	t.Helper()
	net, err := brite.Generate(brite.Config{ASes: 12, EdgesPerAS: 2, Paths: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Brite(scenario.BriteConfig{
		Net: net, FracCongested: 0.15, Level: scenario.HighCorrelation, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: s.Topology, Model: s.Model, Snapshots: snapshots, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s.Topology, rec
}

// TestWindowedMatchesBatch is the windowed==batch equivalence property test
// of the online inference layer: at every checkpoint of a sliding replay,
// for every estimator, the windowed estimate must be bit-identical to a
// one-shot estimate over exactly the window's rows through the same plan.
// Run with -race: the plan is shared by the window and the batch side, and
// by concurrent subtests below.
func TestWindowedMatchesBatch(t *testing.T) {
	const (
		snapshots = 700
		window    = 256
		stride    = 97
	)
	top, rec := windowFixture(t, snapshots)
	plan, err := tomography.Compile(top, tomography.PlanOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, estimator := range []string{"correlation", "independence", "mle"} {
		estimator := estimator
		t.Run(estimator, func(t *testing.T) {
			t.Parallel() // all estimators share one plan — exercised under -race
			cfg := tomography.WindowConfig{Size: window, Estimator: estimator, Plan: plan}
			pts, err := tomography.WindowedEstimate(top, rec, cfg, stride)
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) == 0 {
				t.Fatal("no checkpoints")
			}
			for _, pt := range pts {
				// The frozen window at checkpoint T holds rows (T−window, T].
				var rows []*tomography.PathSet
				for ts := pt.T - window + 1; ts <= pt.T; ts++ {
					rows = append(rows, rec.PathSnapshot(ts))
				}
				batchSrc, err := tomography.NewEmpirical(tomography.NewRecordFromRows(top.NumPaths(), rows))
				if err != nil {
					t.Fatal(err)
				}
				batch, err := tomography.Estimate(estimator, plan, batchSrc, tomography.EstimateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if len(pt.Result.CongestionProb) != len(batch.CongestionProb) {
					t.Fatalf("checkpoint %d: result lengths differ", pt.T)
				}
				for k := range batch.CongestionProb {
					if pt.Result.CongestionProb[k] != batch.CongestionProb[k] {
						t.Fatalf("checkpoint %d link %d: windowed %v != batch %v (not bit-identical)",
							pt.T, k, pt.Result.CongestionProb[k], batch.CongestionProb[k])
					}
				}
			}
		})
	}
}

// TestWindowedMatchesBatchTheorem extends the equivalence property to the
// theorem estimator, the only one that consumes the congested-pattern
// histogram — exactly the structure the sliding window's incremental
// eviction maintains. It runs on the Figure-1(a) topology (the theorem
// algorithm needs small correlation sets and Assumption 4).
func TestWindowedMatchesBatchTheorem(t *testing.T) {
	top := tomography.Figure1A()
	s, err := tomography.BuildScenario("quickstart", 5)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: top, Model: s.Model, Snapshots: 900, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	const window = 256
	w, err := tomography.NewWindow(top, tomography.WindowConfig{Size: window, Estimator: "theorem"})
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < rec.Snapshots(); ts++ {
		w.Observe(rec.PathSnapshot(ts))
		// Query the pattern histogram mid-stream so eviction maintains it
		// incrementally instead of rebuilding it lazily at each checkpoint.
		w.Source().ProbExactCongestedPaths(rec.PathSnapshot(ts))
		if ts+1 < window || (ts+1)%101 != 0 {
			continue
		}
		got, err := w.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		var rows []*tomography.PathSet
		for u := ts - window + 1; u <= ts; u++ {
			rows = append(rows, rec.PathSnapshot(u))
		}
		batchSrc, err := tomography.NewEmpirical(tomography.NewRecordFromRows(top.NumPaths(), rows))
		if err != nil {
			t.Fatal(err)
		}
		want, err := tomography.Estimate("theorem", w.Plan(), batchSrc, tomography.EstimateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.CongestionProb {
			if got.CongestionProb[k] != want.CongestionProb[k] {
				t.Fatalf("t=%d link %d: windowed theorem %v != batch %v (not bit-identical)",
					ts, k, got.CongestionProb[k], want.CongestionProb[k])
			}
		}
		for key, p := range want.Theorem.JointProb {
			if got.Theorem.JointProb[key] != p {
				t.Fatalf("t=%d: recovered joint distribution diverged at state %q", ts, key)
			}
		}
	}
}

// TestWindowObserveEstimate drives a Window by hand (partial fills, repeated
// estimates) and checks the equivalence on a half-full window too.
func TestWindowObserveEstimate(t *testing.T) {
	top, rec := windowFixture(t, 300)
	w, err := tomography.NewWindow(top, tomography.WindowConfig{Size: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Estimate(); err == nil {
		t.Fatal("estimate over an empty window succeeded")
	}
	for ts := 0; ts < rec.Snapshots(); ts++ {
		w.Observe(rec.PathSnapshot(ts))
	}
	if w.Seen() != 300 || w.Len() != 300 {
		t.Fatalf("seen %d, len %d, want 300, 300", w.Seen(), w.Len())
	}
	got, err := w.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	src, err := tomography.NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tomography.Estimate("correlation", w.Plan(), src, tomography.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.CongestionProb {
		if got.CongestionProb[k] != want.CongestionProb[k] {
			t.Fatalf("link %d: half-full window %v != batch %v", k, got.CongestionProb[k], want.CongestionProb[k])
		}
	}
}

// TestConcurrentWindowsSharePlan runs several windows over one compiled plan
// concurrently — the deployment shape of a monitor fleet — under -race.
func TestConcurrentWindowsSharePlan(t *testing.T) {
	top, rec := windowFixture(t, 400)
	plan, err := tomography.Compile(top, tomography.PlanOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			w, err := tomography.NewWindow(top, tomography.WindowConfig{Size: 128, Plan: plan})
			if err != nil {
				errs <- err
				return
			}
			for ts := offset; ts < rec.Snapshots(); ts++ {
				w.Observe(rec.PathSnapshot(ts))
				if w.Len() >= 128 && ts%50 == 0 {
					if _, err := w.Estimate(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g * 13)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestWindowConfigErrors(t *testing.T) {
	top, _ := windowFixture(t, 70)
	other := tomography.Figure1A()
	otherPlan, err := tomography.Compile(other, tomography.PlanOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		top  *tomography.Topology
		cfg  tomography.WindowConfig
	}{
		{"nil topology", nil, tomography.WindowConfig{Size: 10}},
		{"zero size", top, tomography.WindowConfig{}},
		{"unknown estimator", top, tomography.WindowConfig{Size: 10, Estimator: "nope"}},
		{"foreign plan", top, tomography.WindowConfig{Size: 10, Plan: otherPlan}},
	}
	for _, tc := range cases {
		if _, err := tomography.NewWindow(tc.top, tc.cfg); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: other, Model: mustQuickstartModel(t), Snapshots: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tomography.WindowedEstimate(other, rec, tomography.WindowConfig{Size: 10}, 0); err == nil {
		t.Error("zero stride accepted")
	}
	if _, err := tomography.WindowedEstimate(other, nil, tomography.WindowConfig{Size: 10}, 5); err == nil {
		t.Error("nil record accepted")
	}
}

// mustQuickstartModel returns the quickstart scenario's model (a convenient
// valid Figure-1A congestion model).
func mustQuickstartModel(t *testing.T) tomography.Model {
	t.Helper()
	s, err := tomography.BuildScenario("quickstart", 1)
	if err != nil {
		t.Fatal(err)
	}
	return s.Model
}

// TestEvaluateBatchDynamicScenarios feeds registry-built dynamic scenarios
// through EvaluateBatch and checks that results arrive, are deterministic
// across worker counts, and measure against stationary truth.
func TestEvaluateBatchDynamicScenarios(t *testing.T) {
	var scenarios []*tomography.Scenario
	for _, name := range []string{"flash-crowd", "link-flap", "quickstart"} {
		s, err := tomography.BuildScenario(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, s)
	}
	run := func(workers int) []tomography.BatchResult {
		res, err := tomography.EvaluateBatch(context.Background(), scenarios, tomography.BatchOptions{
			Snapshots: 400, Seed: 17, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(4)
	for i, r := range serial {
		if r.Err != nil {
			t.Fatalf("scenario %s failed: %v", r.Scenario.Name, r.Err)
		}
		if len(r.CorrErrors) == 0 {
			t.Fatalf("scenario %s produced no error samples", r.Scenario.Name)
		}
		for k := range r.Correlation.CongestionProb {
			if r.Correlation.CongestionProb[k] != parallel[i].Correlation.CongestionProb[k] {
				t.Fatalf("scenario %s link %d: serial %v != parallel %v",
					r.Scenario.Name, k, r.Correlation.CongestionProb[k], parallel[i].Correlation.CongestionProb[k])
			}
		}
	}
}

// TestScenarioRegistryFacade sanity-checks the facade surface of the named
// registry.
func TestScenarioRegistryFacade(t *testing.T) {
	specs := tomography.Scenarios()
	names := tomography.ScenarioNames()
	if len(specs) != len(names) || len(specs) < 6 {
		t.Fatalf("Scenarios()/ScenarioNames() disagree or too small: %d vs %d", len(specs), len(names))
	}
	for _, want := range []string{"quickstart", "worm", "flash-crowd", "diurnal", "link-flap", "planetlab-replay"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry is missing %q (have %v)", want, names)
		}
	}
	if _, err := tomography.BuildScenario("nope", 1); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestWindowTracksShift injects a forced congestion-state shift and checks
// the window's detector flags it with a small lag while the windowed
// estimates move toward the burst regime — the dynamic-monitor demo's
// assertion, in miniature.
func TestWindowTracksShift(t *testing.T) {
	top := tomography.Figure1A()
	proc, err := tomography.NewMarkovModulated(tomography.MarkovConfig{
		NumLinks: top.NumLinks(),
		Groups: []tomography.MarkovGroup{{
			Links:   []int{0, 1},
			Chain:   tomography.MarkovChain{POn: 0, MeanBurst: 1}, // quiet until forced
			OnProb:  []float64{0.9, 0.85},
			OffProb: []float64{0.03, 0.02},
		}},
		Force: []tomography.ForcedBurst{{Group: 0, Start: 600, End: 1200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tomography.NewWindow(top, tomography.WindowConfig{Size: 200})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tomography.Simulate(tomography.SimConfig{
		Topology: top, Process: proc, Snapshots: 1200, Seed: 23,
		OnSnapshot: func(_ int, congested *tomography.PathSet) {
			w.Observe(congested)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cps := w.ChangePoints()
	if len(cps) == 0 {
		t.Fatal("the injected shift at t=600 was never detected")
	}
	lag := cps[0] - 600
	if lag < 0 || lag > 100 {
		t.Fatalf("first detection at t=%d (lag %d), want shortly after 600", cps[0], lag)
	}
	res, err := w.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	// The window now covers only burst-regime snapshots: link 0's estimate
	// must be near its burst rate, far above the quiet background.
	if res.CongestionProb[0] < 0.5 {
		t.Fatalf("windowed estimate for link 0 = %.3f, want burst-regime (≥ 0.5)", res.CongestionProb[0])
	}
}
