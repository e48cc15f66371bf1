// Temporal-dynamics benchmarks (BENCH_dynamics.json): price the
// Markov-modulated simulation engine and quantify the win of incremental
// sliding-window inference over rebuilding a batch source per checkpoint.
package tomography_test

import (
	"context"
	"fmt"
	"testing"

	tomography "repro"
	"repro/internal/brite"
	"repro/internal/netsim"
	"repro/internal/scenario"
)

// dynamicsWorkload builds the benchmark fixture: a mid-sized Brite network
// with a flash-crowd-style Markov-modulated process over its topology. The
// network is returned too so the i.i.d. baseline runs on the identical
// topology (it needs the router backing).
func dynamicsWorkload(b *testing.B) (*brite.Network, tomography.CongestionProcess) {
	b.Helper()
	net, err := brite.Generate(brite.Config{ASes: 40, EdgesPerAS: 2, Paths: 150, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	top := net.Topology
	var groups []tomography.MarkovGroup
	for p := 0; p < top.NumSets() && len(groups) < 15; p++ {
		links := top.CorrelationSet(p).Indices()
		if len(links) < 2 {
			continue
		}
		on := make([]float64, len(links))
		off := make([]float64, len(links))
		for i := range links {
			on[i] = 0.7
			off[i] = 0.01
		}
		groups = append(groups, tomography.MarkovGroup{
			Links:    links,
			Chain:    tomography.MarkovChain{POn: 0.01, MeanBurst: 40},
			OnProb:   on,
			OffProb:  off,
			Coupling: 0.8,
		})
	}
	proc, err := tomography.NewMarkovModulated(tomography.MarkovConfig{
		NumLinks: top.NumLinks(),
		Groups:   groups,
		Global:   &tomography.MarkovChain{POn: 0.005, MeanBurst: 60},
	})
	if err != nil {
		b.Fatal(err)
	}
	return net, proc
}

// BenchmarkDynamicsSim prices the simulator on one topology with each
// congestion source: the Markov-modulated process against the i.i.d.
// router-backed model (both serial, so the delta is the dynamics
// bookkeeping, not parallelism), each serial against its 8-worker fan-out
// (the process under PacketLevel, since a StateLevel process step never
// fans out).
func BenchmarkDynamicsSim(b *testing.B) {
	const (
		snapshots = 5000
		// packetSnapshots is shorter: a PacketLevel snapshot sends 1000
		// probes down each of 150 paths, milliseconds of work.
		packetSnapshots = 200
	)
	net, proc := dynamicsWorkload(b)
	top := net.Topology
	metrics := map[string]float64{
		"snapshots":        snapshots,
		"packet-snapshots": packetSnapshots,
		"paths":            float64(top.NumPaths()),
		"links":            float64(top.NumLinks()),
	}

	b.Run("markov-modulated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tomography.Simulate(tomography.SimConfig{
				Topology: top, Process: proc, Snapshots: snapshots, Seed: 9, Workers: 1,
			}); err != nil {
				b.Fatal(err)
			}
		}
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		metrics["dynamic-ns/op"] = ns
		metrics["dynamic-snapshots/sec"] = snapshots / (ns / 1e9)
	})
	// The same engine under PacketLevel measurement, serial and with the
	// per-snapshot packet simulation fanned out over 8 workers (the
	// modulator advance stays sequential either way; StateLevel never fans
	// out). The records are bit-identical, so the delta is pure parallel
	// speedup — bounded by the machine's core count.
	for _, workers := range []int{1, 8} {
		name := "packet"
		if workers > 1 {
			name = fmt.Sprintf("packet-parallel-%d", workers)
		}
		b.Run("markov-modulated-"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tomography.Simulate(tomography.SimConfig{
					Topology: top, Process: proc, Snapshots: packetSnapshots, Seed: 9,
					Mode: tomography.PacketLevel, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			metrics[name+"-ns/op"] = ns
			metrics[name+"-snapshots/sec"] = packetSnapshots / (ns / 1e9)
		})
	}
	// The i.i.d. model draw fans out like a PacketLevel observation: every
	// snapshot's draw comes from its own derived stream.
	iid, err := scenario.Brite(scenario.BriteConfig{
		Net: net, FracCongested: 0.10, Level: scenario.HighCorrelation, Seed: 31,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		name, key := "iid-baseline", "iid"
		if workers > 1 {
			name = fmt.Sprintf("iid-parallel-%d", workers)
			key = name
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netsim.Run(context.Background(), netsim.Config{
					Topology: iid.Topology, Model: iid.Model, Snapshots: snapshots, Seed: 9, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			metrics[key+"-ns/op"] = ns
			metrics[key+"-snapshots/sec"] = snapshots / (ns / 1e9)
		})
	}
	if d, s := metrics["dynamic-snapshots/sec"], metrics["iid-snapshots/sec"]; d > 0 && s > 0 {
		b.Logf("dynamic %.0f snapshots/sec vs i.i.d. %.0f snapshots/sec (%.2f× overhead), i.i.d. %.0f at 8 workers; packet-level %.0f snapshots/sec serial, %.0f at 8 workers",
			d, s, s/d, metrics["iid-parallel-8-snapshots/sec"], metrics["packet-snapshots/sec"], metrics["packet-parallel-8-snapshots/sec"])
	}
	writeBenchJSONFile(b, "BENCH_dynamics.json", "BenchmarkDynamicsSim", metrics)
}

// BenchmarkWindowedInference quantifies sliding-window inference against the
// naive alternative: at every checkpoint, rebuilding a fresh batch source
// over the last W rows and estimating through the same plan.
//
// Two layers are measured separately. The measurement-maintenance layer
// (ingestion + the single/pair probability fills an estimate's RHS needs) is
// where the incremental window wins: it pays one O(paths/64) Append per
// snapshot, while the rebuild baseline re-materializes all W rows per
// checkpoint. The end-to-end layer adds the solver, which dominates both
// sides equally — its headline is parity: windowed estimates are
// bit-identical to batch at no extra cost, with bounded memory.
func BenchmarkWindowedInference(b *testing.B) {
	const (
		snapshots = 4000
		window    = 512
		// stride is the estimate cadence of the end-to-end (solver) layer;
		// the maintenance layer refreshes its RHS more often, as an
		// always-current monitor would.
		stride            = 64
		maintenanceStride = 8
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
	metrics := map[string]float64{
		"snapshots": snapshots,
		"window":    window,
		"stride":    stride,
		"paths":     float64(top.NumPaths()),
		"links":     float64(top.NumLinks()),
	}
	checkpoints := 0
	for t := window - 1; t < snapshots; t++ {
		if (t+1)%stride == 0 || t == snapshots-1 {
			checkpoints++
		}
	}
	metrics["checkpoints"] = float64(checkpoints)

	// rows is the pre-materialized probe feed: a live monitor receives each
	// snapshot as a ready congested-path set, so materialization from the
	// record is not charged to either side.
	rows := recordRows(rec)

	// rhsFill mimics an estimate's probability lookups: every single path
	// and a band of pairs (the dominant query mix of the equation selection).
	rhsFill := func(src *tomography.Empirical) float64 {
		sum := 0.0
		n := top.NumPaths()
		for i := 0; i < n; i++ {
			sum += src.ProbPathGood(tomography.PathID(i))
			for j := i + 1; j < n && j < i+6; j++ {
				sum += src.ProbPairGood(tomography.PathID(i), tomography.PathID(j))
			}
		}
		return sum
	}

	b.Run("maintenance/sliding-window", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			win, err := tomography.NewSlidingWindow(top.NumPaths(), window)
			if err != nil {
				b.Fatal(err)
			}
			for t := 0; t < snapshots; t++ {
				win.Append(rows[t])
				if (t+1)%maintenanceStride == 0 && t+1 >= window {
					rhsFill(win)
				}
			}
		}
		metrics["maintenance-windowed-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("maintenance/rebuild-per-checkpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t := 0; t < snapshots; t++ {
				if (t+1)%maintenanceStride != 0 || t+1 < window {
					continue
				}
				src, err := tomography.NewEmpirical(tomography.NewRecordFromRows(top.NumPaths(), rows[t-window+1:t+1]))
				if err != nil {
					b.Fatal(err)
				}
				rhsFill(src)
			}
		}
		metrics["maintenance-rebuild-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if w, r := metrics["maintenance-windowed-ns/op"], metrics["maintenance-rebuild-ns/op"]; w > 0 && r > 0 {
		metrics["maintenance-speedup"] = r / w
	}

	b.Run("sliding-window", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts, err := tomography.WindowedEstimate(top, rec,
				tomography.WindowConfig{Size: window, Plan: plan}, stride)
			if err != nil {
				b.Fatal(err)
			}
			if len(pts) != checkpoints {
				b.Fatalf("%d checkpoints, want %d", len(pts), checkpoints)
			}
		}
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		metrics["windowed-ns/op"] = ns
		// Inference consumption rate over the same 150-path topology the
		// dynamics engine generates for: a pipeline is generator-bound only
		// if BenchmarkDynamicsSim's snapshots/sec falls below this.
		metrics["windowed-snapshots/sec"] = snapshots / (ns / 1e9)
	})
	b.Run("rebuild-per-checkpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			done := 0
			for t := window - 1; t < snapshots; t++ {
				if (t+1)%stride != 0 && t != snapshots-1 {
					continue
				}
				var rows []*tomography.PathSet
				for ts := t - window + 1; ts <= t; ts++ {
					rows = append(rows, rec.PathSnapshot(ts))
				}
				src, err := tomography.NewEmpirical(tomography.NewRecordFromRows(top.NumPaths(), rows))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tomography.Estimate("correlation", plan, src, tomography.EstimateOptions{}); err != nil {
					b.Fatal(err)
				}
				done++
			}
			if done != checkpoints {
				b.Fatalf("%d checkpoints, want %d", done, checkpoints)
			}
		}
		metrics["rebuild-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if w, r := metrics["windowed-ns/op"], metrics["rebuild-ns/op"]; w > 0 && r > 0 {
		metrics["speedup"] = r / w
		b.Logf("measurement maintenance: windowed %.2f ms vs rebuild %.2f ms (%.1f×); end-to-end with solver: %.2f ms vs %.2f ms (%.2f×)",
			metrics["maintenance-windowed-ns/op"]/1e6, metrics["maintenance-rebuild-ns/op"]/1e6, metrics["maintenance-speedup"],
			w/1e6, r/1e6, metrics["speedup"])
	}
	writeBenchJSONFile(b, "BENCH_dynamics.json", "BenchmarkWindowedInference", metrics)
}
