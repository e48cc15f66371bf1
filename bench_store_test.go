// Segment-store benchmarks (BENCH_store.json): price the fused count
// kernels running over mmap-backed sealed segments against the same
// kernels over RAM chunks, record the spill write path's throughput, and
// price a window's batch ingest append.
// The acceptance target for this artifact is warm mapped counts at ≥ 0.8×
// the RAM store — pages are resident after the first pass, so the
// remaining gap is the per-segment dispatch and boundary masking.
package tomography_test

import (
	"math/rand"
	"testing"

	tomography "repro"
	"repro/internal/bitset"
	"repro/internal/segstore"
)

// storeBenchFixture appends the same deterministic bursty rows to a RAM
// window store and a spilling one with equal chunk sizes, and to a RAM
// store whose single chunk holds every row. All windows cover every row, so
// the stores answer identical count queries. snapshots is a multiple of
// segRows: every row but the last chunk's worth is sealed — kept in RAM by
// one store, written to disk and queried through the mapped read path by
// the other.
func storeBenchFixture(b *testing.B, series, snapshots, segRows int) (ram, tiered, single *segstore.TieredStore, pairs []segstore.Pair) {
	b.Helper()
	open := func(opts segstore.Options) *segstore.TieredStore {
		ts, err := segstore.NewTiered(series, snapshots, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(ts.Close)
		return ts
	}
	ram = open(segstore.Options{SegmentRows: segRows})
	tiered = open(segstore.Options{Dir: b.TempDir(), SegmentRows: segRows, Reset: true})
	single = open(segstore.Options{SegmentRows: snapshots})
	rng := rand.New(rand.NewSource(41))
	row := bitset.New(series)
	for t := 0; t < snapshots; t++ {
		row.Clear()
		// Bursty fill: a few hot columns plus background noise, so segments
		// carry a realistic mix of zero-span and dense columns.
		for k := 0; k < 6; k++ {
			row.Add(rng.Intn(series))
		}
		if t%97 < 13 {
			row.Add(series - 1 - t%7)
		}
		ram.AppendEvictWords(row.Words(), nil)
		tiered.AppendEvictWords(row.Words(), nil)
		single.AppendEvictWords(row.Words(), nil)
	}
	for i := 0; i < series; i++ {
		for d := 1; d <= 8 && i+d < series; d++ {
			pairs = append(pairs, segstore.Pair{A: i, B: i + d})
		}
	}
	return ram, tiered, single, pairs
}

// BenchmarkSegmentStoreCounts is the mapped-vs-RAM count comparison the
// BENCH_store.json artifact records: the batched pair kernel and the
// all-good set kernel over RAM chunks versus the spill store's warm mapped
// read path (one throwaway pass faults every page in first). It also
// prices the chunking itself: batched pair counts over the 8192-row RAM
// chunks against one RAM chunk holding every row. Counts are verified
// identical before timing.
func BenchmarkSegmentStoreCounts(b *testing.B) {
	const (
		series    = 128
		segRows   = 8192
		snapshots = 16 * segRows // 131072 rows ≈ 2 MB/column-set segment tier
	)
	ram, tiered, single, pairs := storeBenchFixture(b, series, snapshots, segRows)
	outRAM := make([]int, len(pairs))
	outMapped := make([]int, len(pairs))
	outSingle := make([]int, len(pairs))
	sets := [][]int{{0, 1, 2}, {5, 40, 90, 100}, {7}, {30, 31, 32, 33, 34}}

	// Warm + verify: identical counts from both tiers before any timing.
	ram.CountPairsGood(pairs, outRAM)
	tiered.CountPairsGood(pairs, outMapped)
	single.CountPairsGood(pairs, outSingle)
	for k := range pairs {
		if outRAM[k] != outMapped[k] || outRAM[k] != outSingle[k] {
			b.Fatalf("pair %v: RAM %d, mapped %d, one chunk %d", pairs[k], outRAM[k], outMapped[k], outSingle[k])
		}
	}
	for _, s := range sets {
		if r, m := ram.CountAllGood(s), tiered.CountAllGood(s); r != m {
			b.Fatalf("set %v: RAM %d, mapped %d", s, r, m)
		}
	}

	metrics := map[string]float64{
		"series":          series,
		"snapshots":       snapshots,
		"segment-rows":    segRows,
		"pairs":           float64(len(pairs)),
		"sealed-segments": float64(tiered.SealedSegments()),
		"spilled-bytes":   float64(tiered.SpilledBytes()),
	}
	b.Run("pairs-ram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ram.CountPairsGood(pairs, outRAM)
		}
		metrics["pairs-ram-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("pairs-ram-one-chunk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			single.CountPairsGood(pairs, outSingle)
		}
		metrics["pairs-ram-one-chunk-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("pairs-mapped-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tiered.CountPairsGood(pairs, outMapped)
		}
		metrics["pairs-mapped-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("allgood-ram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range sets {
				benchSink += float64(ram.CountAllGood(s))
			}
		}
		metrics["allgood-ram-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("allgood-mapped-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range sets {
				benchSink += float64(tiered.CountAllGood(s))
			}
		}
		metrics["allgood-mapped-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	// Cold read path: drop the mapped pages (MADV_DONTNEED where available)
	// and time one full re-faulting pass — the page-cache price of the first
	// query after a spill.
	b.Run("pairs-mapped-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tiered.ReleaseMapped()
			b.StartTimer()
			tiered.CountPairsGood(pairs, outMapped)
		}
		metrics["pairs-mapped-cold-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if r, m := metrics["pairs-ram-ns/op"], metrics["pairs-mapped-ns/op"]; r > 0 && m > 0 {
		metrics["mapped-vs-ram-pairs"] = r / m
		metrics["chunked-vs-one-chunk-pairs"] = metrics["pairs-ram-one-chunk-ns/op"] / r
		metrics["mapped-vs-ram-allgood"] = metrics["allgood-ram-ns/op"] / metrics["allgood-mapped-ns/op"]
		b.Logf("counts over %d sealed segments (%d rows × %d series): pairs RAM %.2f ms vs mapped warm %.2f ms (%.2f× of RAM), all-good %.2f× of RAM, cold re-fault %.2f ms; RAM chunks at %.2f× of one chunk",
			tiered.SealedSegments(), snapshots, series, r/1e6, m/1e6,
			metrics["mapped-vs-ram-pairs"], metrics["mapped-vs-ram-allgood"],
			metrics["pairs-mapped-cold-ns/op"]/1e6, metrics["chunked-vs-one-chunk-pairs"])
	}
	writeBenchJSONFile(b, "BENCH_store.json", "BenchmarkSegmentStoreCounts", metrics)
}

// BenchmarkSegmentSpill prices the write path: streaming appends through
// the spill store including encode + CRC + fsync'd seal of every segment,
// against appends into a RAM window store with the same chunk size.
func BenchmarkSegmentSpill(b *testing.B) {
	const (
		series  = 128
		segRows = 8192
	)
	rows := make([]*bitset.Set, 1024)
	rng := rand.New(rand.NewSource(43))
	for i := range rows {
		rows[i] = bitset.New(series)
		for k := 0; k < 6; k++ {
			rows[i].Add(rng.Intn(series))
		}
	}
	metrics := map[string]float64{"series": series, "segment-rows": segRows}
	b.Run("ram-append", func(b *testing.B) {
		ram, err := segstore.NewTiered(series, 4*segRows, segstore.Options{SegmentRows: segRows})
		if err != nil {
			b.Fatal(err)
		}
		defer ram.Close()
		for i := 0; i < b.N; i++ {
			ram.AppendEvictWords(rows[i%len(rows)].Words(), nil)
		}
		metrics["ram-append-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("spill-append", func(b *testing.B) {
		tiered, err := segstore.NewTiered(series, 4*segRows, segstore.Options{
			Dir: b.TempDir(), SegmentRows: segRows, Reset: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer tiered.Close()
		for i := 0; i < b.N; i++ {
			tiered.AppendEvictWords(rows[i%len(rows)].Words(), nil)
		}
		metrics["spill-append-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		metrics["spilled-bytes"] = float64(tiered.SpilledBytes())
	})
	if r, s := metrics["ram-append-ns/op"], metrics["spill-append-ns/op"]; r > 0 && s > 0 {
		b.Logf("append: RAM %.0f ns/op, spill (amortized seal+fsync) %.0f ns/op (%.1f× RAM)", r, s, s/r)
	}
	writeBenchJSONFile(b, "BENCH_store.json", "BenchmarkSegmentSpill", metrics)
}

// BenchmarkObserveBatchWords prices the daemon's ingest append: the
// diurnal scenario's feed posted in 2048-row packed batches into a warm
// 65536-row window, the shape of perfbench's ingest workload. Each op is
// one batch — the window's block-transposing column append, its eviction
// of the displaced rows and the change detector over every row — and the
// reported figure is ns per snapshot. The RAM arm seals into RAM chunks;
// the spill arm writes every sealed 8192-row segment to disk.
func BenchmarkObserveBatchWords(b *testing.B) {
	const (
		batch  = 2048
		window = 1 << 16
		feed   = 16384
	)
	scn, err := tomography.BuildScenario("diurnal", 1)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: scn.Topology, Model: scn.Model, Process: scn.Process, Snapshots: feed, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	numPaths := scn.Topology.NumPaths()
	wpr := (numPaths + 63) / 64
	words := make([]uint64, feed*wpr)
	for t := 0; t < feed; t++ {
		copy(words[t*wpr:(t+1)*wpr], rec.PathSnapshot(t).Words())
	}
	metrics := map[string]float64{"paths": float64(numPaths), "batch": batch, "window": window}
	for _, arm := range []struct {
		name  string
		spill bool
	}{{"ram", false}, {"spill", true}} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := tomography.WindowConfig{Size: window}
			if arm.spill {
				cfg.Spill = &tomography.SpillConfig{Dir: b.TempDir(), Reset: true}
			}
			win, err := tomography.NewWindow(scn.Topology, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer win.Close()
			next := 0
			post := func() {
				win.ObserveBatchWords(words[next*wpr:(next+batch)*wpr], wpr, batch)
				next = (next + batch) % feed
			}
			// Fill the window and turn it over once, so every timed batch
			// evicts as many rows as it appends.
			for k := 0; k < 2*window/batch; k++ {
				post()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
			nsPerSnap := float64(b.Elapsed().Nanoseconds()) / float64(b.N*batch)
			b.ReportMetric(nsPerSnap, "ns/snapshot")
			metrics[arm.name+"-ns/snapshot"] = nsPerSnap
		})
	}
	writeBenchJSONFile(b, "BENCH_store.json", "BenchmarkObserveBatchWords", metrics)
}
