package tomography_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	tomography "repro"
	"repro/internal/bitset"
	"repro/internal/congestion"
	"repro/internal/scenario"
)

// TestPublicAPIEndToEnd exercises the whole facade the way a downstream user
// would: build a topology, simulate measurements, infer with all three
// algorithms, check identifiability, and apply the merge transformation.
func TestPublicAPIEndToEnd(t *testing.T) {
	// Build Figure 1(a) by hand through the public Builder.
	b := tomography.NewBuilder()
	v1, v2, v3, v4, v5 := b.AddNode(), b.AddNode(), b.AddNode(), b.AddNode(), b.AddNode()
	e1 := b.AddLink(v4, v3, "e1")
	e2 := b.AddLink(v5, v3, "e2")
	e3 := b.AddLink(v3, v1, "e3")
	e4 := b.AddLink(v3, v2, "e4")
	b.AddPath("P1", e1, e3)
	b.AddPath("P2", e2, e3)
	b.AddPath("P3", e2, e4)
	b.Correlate(e1, e2)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	if res := tomography.CheckIdentifiability(top, 0); !res.Identifiable {
		t.Fatal("Figure 1(a) must be identifiable")
	}

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
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: top, Model: model, Snapshots: 150000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := tomography.NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}

	truth := congestion.Marginals(model)
	plan, err := tomography.Compile(top, tomography.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	corr, err := tomography.Estimate("correlation", plan, src, tomography.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range truth {
		if math.Abs(corr.CongestionProb[k]-w) > 0.02 {
			t.Fatalf("correlation link %d: %v vs truth %v", k, corr.CongestionProb[k], w)
		}
	}

	if _, err := tomography.Estimate("independence", plan, src, tomography.EstimateOptions{}); err != nil {
		t.Fatal(err)
	}

	thm, err := tomography.Estimate("theorem", plan, src, tomography.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range truth {
		if math.Abs(thm.CongestionProb[k]-w) > 0.02 {
			t.Fatalf("theorem link %d: %v vs truth %v", k, thm.CongestionProb[k], w)
		}
	}
}

// batchScenarios builds a small fleet of scenarios over the Figure-1(a)
// topology, varying seed and congested fraction.
func batchScenarios(t *testing.T) []*tomography.Scenario {
	t.Helper()
	var out []*tomography.Scenario
	for i := 0; i < 4; i++ {
		s, err := tomography.NewScenario(tomography.ScenarioConfig{
			Topology:      tomography.Figure1A(),
			FracCongested: 0.25 + 0.25*float64(i%2),
			Level:         scenario.LooseCorrelation,
			Seed:          int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestEvaluateBatch exercises the facade's parallel scenario-batch API:
// results must arrive in input order, carry both algorithms' outputs and
// error samples, and be bit-identical between a serial and a parallel run
// of the same batch (the runner's determinism guarantee).
func TestEvaluateBatch(t *testing.T) {
	scenarios := batchScenarios(t)
	opts := tomography.BatchOptions{Snapshots: 3000, Seed: 9, Workers: 1}

	var progress []int
	opts.Progress = func(done, total int) {
		progress = append(progress, done)
		if total != len(scenarios) {
			t.Errorf("progress total = %d, want %d", total, len(scenarios))
		}
	}
	serial, err := tomography.EvaluateBatch(context.Background(), scenarios, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(scenarios) {
		t.Fatalf("%d results, want %d", len(serial), len(scenarios))
	}
	if len(progress) != len(scenarios) {
		t.Fatalf("%d progress calls, want %d", len(progress), len(scenarios))
	}
	for i, res := range serial {
		if res.Err != nil {
			t.Fatalf("scenario %d failed: %v", i, res.Err)
		}
		if res.Scenario != scenarios[i] {
			t.Fatalf("result %d out of order", i)
		}
		if res.Correlation == nil || res.Independence == nil {
			t.Fatalf("scenario %d missing algorithm results", i)
		}
		want := res.Scenario.PotentiallyCongested.Len()
		if len(res.CorrErrors) != want || len(res.IndepErrors) != want {
			t.Fatalf("scenario %d: %d/%d error samples, want %d",
				i, len(res.CorrErrors), len(res.IndepErrors), want)
		}
		for j := 1; j < len(res.CorrErrors); j++ {
			if res.CorrErrors[j] < res.CorrErrors[j-1] {
				t.Fatalf("scenario %d: CorrErrors not sorted", i)
			}
		}
	}

	opts.Progress = nil
	opts.Workers = 4
	parallel, err := tomography.EvaluateBatch(context.Background(), scenarios, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel batch differs from serial batch")
	}
}

func TestEvaluateBatchValidation(t *testing.T) {
	if _, err := tomography.EvaluateBatch(context.Background(), nil, tomography.BatchOptions{}); err == nil {
		t.Fatal("zero snapshots accepted")
	}
	// Regression: negative knobs used to pass straight through to netsim.
	if _, err := tomography.EvaluateBatch(context.Background(), batchScenarios(t),
		tomography.BatchOptions{Snapshots: 100, Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := tomography.EvaluateBatch(context.Background(), batchScenarios(t),
		tomography.BatchOptions{Snapshots: 100, PacketsPerPath: -5}); err == nil {
		t.Fatal("negative packets per path accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := tomography.EvaluateBatch(ctx, batchScenarios(t), tomography.BatchOptions{Snapshots: 100})
	if err == nil {
		t.Fatal("cancelled context not reported")
	}
}

func TestPublicMergeTransform(t *testing.T) {
	top := tomography.Figure1B()
	if res := tomography.CheckIdentifiability(top, 0); res.Identifiable {
		t.Fatal("Figure 1(b) must violate Assumption 4")
	}
	merged, mm, err := tomography.MergeTransform(top)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumLinks() != 2 {
		t.Fatalf("merged links = %d, want 2", merged.NumLinks())
	}
	if len(mm.OriginalLinks) != 2 {
		t.Fatalf("merge map has %d entries", len(mm.OriginalLinks))
	}
}
