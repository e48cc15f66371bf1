// Inference-plan benchmarks (BENCH_plan.json): quantify the compile/
// evaluate split — compiling a topology's equation structure once and
// reusing it across sources versus rebuilding it from scratch on every
// inference call, both measured in the same run.
package tomography_test

import (
	"context"
	"testing"

	tomography "repro"
	"repro/internal/brite"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// planWorkload builds the plan-benchmark fixture: a mid-sized Brite
// topology with a correlated scenario and an empirical source.
func planWorkload(b *testing.B, snapshots int) (*scenario.Scenario, *measure.Empirical) {
	b.Helper()
	net, err := brite.Generate(brite.Config{ASes: 40, EdgesPerAS: 2, Paths: 150, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	s, err := scenario.Brite(scenario.BriteConfig{
		Net: net, FracCongested: 0.10, Level: scenario.HighCorrelation, Seed: 31,
	})
	if err != nil {
		b.Fatal(err)
	}
	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: s.Topology, Model: s.Model, Snapshots: snapshots, Seed: 97,
	})
	if err != nil {
		b.Fatal(err)
	}
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		b.Fatal(err)
	}
	return s, src
}

// BenchmarkCompilePerCallVsReuse compares one correlation inference that
// compiles its equation structure on every call (candidate enumeration,
// admissibility, rank tracking, then the evaluate and solve) against the
// compiled plan reused across calls (per call only probability fills and
// the solve). Both run on one reused workspace, so the difference is the
// structural work alone; the compile sub-benchmark prices it by itself.
func BenchmarkCompilePerCallVsReuse(b *testing.B) {
	metrics := map[string]float64{}
	s, src := planWorkload(b, 1200)
	metrics["paths"] = float64(s.Topology.NumPaths())
	metrics["links"] = float64(s.Topology.NumLinks())
	ws := core.NewWorkspace()

	b.Run("compile-per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lp, err := core.CompileLinear(s.Topology, false, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := lp.RunIn(ws, src); err != nil {
				b.Fatal(err)
			}
		}
		metrics["compile-per-call-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CompileLinear(s.Topology, false, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		metrics["compile-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("plan-reuse", func(b *testing.B) {
		lp, err := core.CompileLinear(s.Topology, false, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lp.RunIn(ws, src); err != nil {
				b.Fatal(err)
			}
		}
		metrics["plan-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if pc, pl := metrics["compile-per-call-ns/op"], metrics["plan-ns/op"]; pc > 0 && pl > 0 {
		metrics["speedup"] = pc / pl
		b.Logf("correlation inference: compile per call %.0f ns/op, plan-reuse %.0f ns/op (%.1f×), one-time compile %.0f ns",
			pc, pl, metrics["speedup"], metrics["compile-ns/op"])
	}
	writeBenchJSONFile(b, "BENCH_plan.json", "BenchmarkCompilePerCallVsReuse", metrics)
}

// BenchmarkEvaluateBatchPlanReuse measures the end-to-end win of plan
// sharing on a multi-trial batch over one topology: the per-trial-recompile
// baseline simulates and wraps each scenario, then compiles and runs the
// correlation and independence algorithms from scratch for it; the
// plan-reuse side is EvaluateBatch, whose scenarios share one compiled
// plan. Both run serially on identical seeds and reuse their workspaces,
// so the difference is purely the hoisted structural work.
func BenchmarkEvaluateBatchPlanReuse(b *testing.B) {
	const (
		numScenarios = 8
		snapshots    = 400
		rootSeed     = 9
	)
	net, err := brite.Generate(brite.Config{ASes: 40, EdgesPerAS: 2, Paths: 150, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	// All scenarios share net.Topology — the sweep/trial layout whose
	// structural work the plan amortizes.
	var scenarios []*tomography.Scenario
	for i := 0; i < numScenarios; i++ {
		s, err := scenario.Brite(scenario.BriteConfig{
			Net: net, FracCongested: 0.10, Level: scenario.HighCorrelation, Seed: int64(31 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		scenarios = append(scenarios, s)
	}
	metrics := map[string]float64{
		"scenarios": numScenarios,
		"snapshots": snapshots,
		"paths":     float64(scenarios[0].Topology.NumPaths()),
		"links":     float64(scenarios[0].Topology.NumLinks()),
	}

	b.Run("per-trial-recompile", func(b *testing.B) {
		ws := core.NewWorkspace()
		for i := 0; i < b.N; i++ {
			for j, s := range scenarios {
				rec, err := netsim.Run(context.Background(), netsim.Config{
					Topology: s.Topology, Model: s.Model, Snapshots: snapshots,
					// runner.DeriveSeed mirrors EvaluateBatch's per-scenario
					// seeding, so both sides simulate identical records.
					Seed: runner.DeriveSeed(rootSeed, j), Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				src, err := measure.NewEmpirical(rec)
				if err != nil {
					b.Fatal(err)
				}
				for _, identity := range []bool{false, true} {
					lp, err := core.CompileLinear(s.Topology, identity, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := lp.RunIn(ws, src); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		metrics["per-trial-recompile-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("plan-reuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			results, err := tomography.EvaluateBatch(context.Background(), scenarios, tomography.BatchOptions{
				Snapshots: snapshots, Seed: rootSeed, Workers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range results {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		metrics["plan-reuse-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if base, pl := metrics["per-trial-recompile-ns/op"], metrics["plan-reuse-ns/op"]; base > 0 && pl > 0 {
		metrics["speedup"] = base / pl
		b.Logf("batch of %d scenarios × %d snapshots: per-trial recompile %.2f ms, plan reuse %.2f ms (%.2f×)",
			numScenarios, snapshots, base/1e6, pl/1e6, metrics["speedup"])
	}
	writeBenchJSONFile(b, "BENCH_plan.json", "BenchmarkEvaluateBatchPlanReuse", metrics)
}
