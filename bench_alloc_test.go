// Zero-allocation steady-state benchmarks (BENCH_alloc.json): price the
// reused evaluate workspace against the allocating estimate path on the
// windowed-inference loop, and a record's batched pair-count sweep against
// per-pair counts. Every baseline is measured in the same run.
package tomography_test

import (
	"math/rand"
	"runtime"
	"testing"

	tomography "repro"
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
	rec, err := tomography.SimulateDynamic(tomography.DynamicSimConfig{
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
	for t := 0; t < snapshots; t++ {
		build.SetBit(rng.Intn(paths), t)
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
