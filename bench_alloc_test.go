// Zero-allocation steady-state benchmarks (BENCH_alloc.json): price the
// reused evaluate workspace against the allocating estimate path on the
// windowed-inference loop, a record's batched pair-count sweep against
// per-pair counts, and a linear estimate over a dead path against the same
// estimate without one. Every baseline is measured in the same run.
package tomography_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	tomography "repro"
	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/segstore"
)

// BenchmarkWindowedInferenceWorkspace replays the BenchmarkWindowedInference
// workload (same topology, dynamics, window and stride) through both
// estimate paths and records ns/op and allocs/op for each: the allocating
// WindowedEstimate versus the workspace-backed WindowedEstimateFunc whose
// steady state allocates only the checkpoint bookkeeping of the replay
// itself.
func BenchmarkWindowedInferenceWorkspace(b *testing.B) {
	const (
		snapshots = 4000
		window    = 512
		stride    = 64
	)
	net, proc := dynamicsWorkload(b)
	top := net.Topology
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: top, Process: proc, Snapshots: snapshots, Seed: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := tomography.Compile(top, tomography.PlanOptions{Lazy: true})
	if err != nil {
		b.Fatal(err)
	}
	checkpoints := 0
	for t := window - 1; t < snapshots; t++ {
		if (t+1)%stride == 0 || t == snapshots-1 {
			checkpoints++
		}
	}
	metrics := map[string]float64{
		"snapshots":   snapshots,
		"window":      window,
		"stride":      stride,
		"paths":       float64(top.NumPaths()),
		"links":       float64(top.NumLinks()),
		"checkpoints": float64(checkpoints),
	}

	b.Run("alloc-path", func(b *testing.B) {
		b.ReportAllocs()
		allocs := countAllocs(b, func() {
			pts, err := tomography.WindowedEstimate(top, rec,
				tomography.WindowConfig{Size: window, Plan: plan}, stride)
			if err != nil {
				b.Fatal(err)
			}
			if len(pts) != checkpoints {
				b.Fatalf("%d checkpoints, want %d", len(pts), checkpoints)
			}
		})
		metrics["alloc-path-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		metrics["alloc-path-allocs/op"] = allocs
	})
	b.Run("workspace", func(b *testing.B) {
		b.ReportAllocs()
		allocs := countAllocs(b, func() {
			seen := 0
			err := tomography.WindowedEstimateFunc(top, rec,
				tomography.WindowConfig{Size: window, Plan: plan}, stride,
				func(pt tomography.WindowPoint) error {
					seen++
					benchSink += pt.Result.CongestionProb[0]
					return nil
				})
			if err != nil {
				b.Fatal(err)
			}
			if seen != checkpoints {
				b.Fatalf("%d checkpoints, want %d", seen, checkpoints)
			}
		})
		metrics["workspace-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		metrics["workspace-allocs/op"] = allocs
	})
	if a, w := metrics["alloc-path-ns/op"], metrics["workspace-ns/op"]; a > 0 && w > 0 {
		metrics["speedup-vs-alloc-path"] = a / w
		b.Logf("windowed inference: alloc path %.1f ms (%.0f allocs), workspace %.1f ms (%.0f allocs) — %.2f× vs alloc path",
			a/1e6, metrics["alloc-path-allocs/op"], w/1e6, metrics["workspace-allocs/op"],
			metrics["speedup-vs-alloc-path"])
	}
	writeBenchJSONFile(b, "BENCH_alloc.json", "BenchmarkWindowedInference", metrics)
}

// countAllocs runs the benchmark loop and returns the heap allocations per
// op, measured over the loop with runtime.MemStats (b.Elapsed still covers
// exactly the same span).
func countAllocs(b *testing.B, op func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(b.N)
}

// BenchmarkBatchPairCount prices the batched pair count of a record
// (segstore.Columns.CountPairsGood, one chunk-major sweep for the whole
// batch) against the per-pair path the pair cache takes on a miss
// (CountPairGood: one sweep over both columns per pair). The record is
// sized past the last-level cache so the per-pair path re-streams every
// column from memory once per pair that uses it, while the batched sweep
// reads each chunk from memory once and serves all its pairs from cache —
// the cache reuse shows up as memory traffic saved, on top of the
// per-chunk popcount skips.
func BenchmarkBatchPairCount(b *testing.B) {
	const (
		paths     = 128
		snapshots = 24_000_000 // 128 columns × 3 MB ≈ 384 MB, past even a large L3
		fanout    = 12         // pairs per path: (i, i+1) … (i, i+fanout)
	)
	rng := rand.New(rand.NewSource(7))
	build := segstore.NewBuilder(paths, snapshots)
	// Timing is data-independent (OR + popcount); a sparse random fill keeps
	// fixture construction cheap at this scale.
	row := bitset.New(paths)
	for t := 0; t < snapshots; t++ {
		row.Clear()
		row.Add(rng.Intn(paths))
		build.Append(row)
	}
	rec := build.Finish()
	var pairs []segstore.Pair
	for i := 0; i < paths; i++ {
		for d := 1; d <= fanout && i+d < paths; d++ {
			pairs = append(pairs, segstore.Pair{A: i, B: i + d})
		}
	}
	out := make([]int, len(pairs))
	metrics := map[string]float64{
		"paths":     paths,
		"snapshots": snapshots,
		"pairs":     float64(len(pairs)),
	}

	b.Run("per-pair", func(b *testing.B) {
		sum := 0
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				sum += rec.CountPairGood(p.A, p.B)
			}
		}
		benchSink += float64(sum)
		metrics["per-pair-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("batched", func(b *testing.B) {
		sum := 0
		for i := 0; i < b.N; i++ {
			rec.CountPairsGood(pairs, out)
			for _, c := range out {
				sum += c
			}
		}
		benchSink += float64(sum)
		metrics["batched-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if pp, bb := metrics["per-pair-ns/op"], metrics["batched-ns/op"]; pp > 0 && bb > 0 {
		metrics["speedup"] = pp / bb
		b.Logf("pair counting over %d pairs × %d snapshots: per-pair %.2f ms, batched %.2f ms (%.1f×)",
			len(pairs), snapshots, pp/1e6, bb/1e6, metrics["speedup"])
	}
	writeBenchJSONFile(b, "BENCH_alloc.json", "BenchmarkBatchPairCount", metrics)
}

// BenchmarkDeadPathRunIn prices LinearPlan.RunIn on a warm workspace when a
// path used by a selected equation is congested in every snapshot, on the
// ablation scenario (Brite, 150 paths, 2048 snapshots). Two arms: "normal"
// has no dead path; "dead" has one, so every call resumes the compiled
// selection at the dead path's row, from the compiled rank tracker's rows
// before it.
func BenchmarkDeadPathRunIn(b *testing.B) {
	const snapshots = 2048
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
	rec, err := netsim.Run(context.Background(), netsim.Config{Topology: s.Topology, Model: s.Model, Snapshots: snapshots, Seed: 97})
	if err != nil {
		b.Fatal(err)
	}
	lp, err := core.CompileLinear(s.Topology, false, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	normal, err := measure.NewEmpirical(rec)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := lp.Structure().EvaluateIn(core.NewWorkspace(), normal)
	if err != nil {
		b.Fatal(err)
	}
	// withDead rebuilds the record with one selected row's first path
	// congested in every snapshot.
	withDead := func(row int) *measure.Empirical {
		dead := sys.Equations[row].Paths[0]
		rows := recordRows(rec)
		for _, r := range rows {
			r.Add(int(dead))
		}
		src, err := measure.NewEmpirical(tomography.NewRecordFromRows(rec.NumPaths(), rows))
		if err != nil {
			b.Fatal(err)
		}
		return src
	}
	dead := withDead(len(sys.Equations) / 2)
	metrics := map[string]float64{
		"snapshots": snapshots,
		"paths":     float64(s.Topology.NumPaths()),
		"links":     float64(s.Topology.NumLinks()),
		"equations": float64(len(sys.Equations)),
	}

	run := func(name string, src measure.Source) {
		b.Run(name, func(b *testing.B) {
			ws := core.NewWorkspace()
			// Warm-up: grow the workspace and fill the source's caches.
			for i := 0; i < 3; i++ {
				if _, err := lp.RunIn(ws, src); err != nil {
					b.Fatal(err)
				}
			}
			allocs := countAllocs(b, func() {
				res, err := lp.RunIn(ws, src)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += res.CongestionProb[0]
			})
			metrics[name+"-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			metrics[name+"-allocs/op"] = allocs
		})
	}
	run("normal", normal)
	run("dead", dead)
	if n, d := metrics["normal-ns/op"], metrics["dead-ns/op"]; n > 0 && d > 0 {
		metrics["dead-vs-normal"] = d / n
		b.Logf("RunIn: normal %.2f ms, with a dead path %.2f ms (%.1f× normal, %.0f allocs)",
			n/1e6, d/1e6, metrics["dead-vs-normal"], metrics["dead-allocs/op"])
	}
	writeBenchJSONFile(b, "BENCH_alloc.json", "BenchmarkDeadPathRunIn", metrics)
}
