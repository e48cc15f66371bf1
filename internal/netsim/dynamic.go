package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/bitset"
	"repro/internal/dynamics"
	"repro/internal/loss"
	"repro/internal/runner"
	"repro/internal/segstore"
	"repro/internal/topology"
)

// DynamicConfig parameterizes a time-evolving simulation run: instead of the
// i.i.d. per-snapshot draw of Config.Model, a dynamics.Process carries
// congestion state from one snapshot to the next.
type DynamicConfig struct {
	Topology *topology.Topology
	// Process is the time-indexed congestion process (e.g.
	// dynamics.MarkovModulated).
	Process dynamics.Process
	// Snapshots is the number of snapshots to simulate (> 0).
	Snapshots int
	// Seed drives the process realization and the per-snapshot measurement
	// noise.
	Seed int64
	// Mode selects state-level (default) or packet-level measurement.
	Mode Mode
	// Tl is the link congestion threshold (0 ⇒ loss.DefaultTl); packet-level
	// mode only.
	Tl float64
	// PacketsPerPath is the probe count per path per snapshot
	// (0 ⇒ loss.DefaultPacketsPerPath); packet-level mode only.
	PacketsPerPath int
	// RecordLinkStates additionally stores the true congested-link set of
	// every snapshot.
	RecordLinkStates bool
	// OnSnapshot, when non-nil, is called after each simulated snapshot with
	// its index and congested-path observation — the streaming tap online
	// consumers (sliding windows, change detectors) attach to. The set is
	// reused between calls; clone it to retain. Calls arrive in snapshot
	// order regardless of Workers.
	OnSnapshot func(t int, congestedPaths *bitset.Set)
	// Workers caps the PacketLevel per-path observation fan-out (0 ⇒
	// GOMAXPROCS, capped by any worker budget the context carries; 1 ⇒ the
	// fully sequential loop). A StateLevel observation is a handful of word
	// ORs, cheaper than the fan-out, so StateLevel always runs the sequential
	// loop. The process advance and the store emission stay sequential for
	// determinism, so records and OnSnapshot sequences are bit-identical for
	// every setting.
	Workers int
}

// RunDynamic executes a time-evolving simulation. Unlike RunContext's
// block-sharded fill, the process chain is inherently sequential — snapshot
// t's congestion state depends on snapshot t−1's — so observations are
// appended to the record in snapshot order (segstore.Builder.Append),
// exactly as a live probe feed would arrive. A StateLevel snapshot's
// congested paths are ψ(congested links) (Equation 1), a few word ORs
// that draw no randomness. A PacketLevel observation is the expensive
// step, and it is independent given the link state, so under PacketLevel
// with cfg.Workers > 1 RunDynamic pipelines in chunks: the modulator
// advances sequentially into a chunk of buffered link states, the per-path
// packet simulation fans out across cfg.Workers, and the chunk is appended
// in snapshot order. The run is deterministic in cfg.Seed: the process
// realization consumes one RNG stream and per-snapshot measurement noise
// uses runner.DeriveSeed(seed, t), so records never depend on scheduling
// or worker count. ctx is honoured between snapshots.
func RunDynamic(ctx context.Context, cfg DynamicConfig) (*Record, error) {
	return runDynamic(ctx, cfg, true)
}

// RunDynamicStream is RunDynamic without the record: every snapshot goes
// only to cfg.OnSnapshot (required), nothing is materialized in RAM — the
// generation mode for day-scale replays whose observations stream straight
// into a spill-enabled window (segstore) instead of a record. The
// OnSnapshot sequence is bit-identical to RunDynamic's under the same
// configuration and seed.
func RunDynamicStream(ctx context.Context, cfg DynamicConfig) error {
	if cfg.OnSnapshot == nil {
		return fmt.Errorf("netsim: RunDynamicStream requires an OnSnapshot tap (nothing else receives the snapshots)")
	}
	if cfg.RecordLinkStates {
		return fmt.Errorf("netsim: RunDynamicStream records nothing; use RunDynamic for link states")
	}
	_, err := runDynamic(ctx, cfg, false)
	return err
}

func runDynamic(ctx context.Context, cfg DynamicConfig, record bool) (*Record, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("netsim: nil topology")
	}
	if cfg.Process == nil {
		return nil, fmt.Errorf("netsim: nil process")
	}
	if cfg.Process.NumLinks() != cfg.Topology.NumLinks() {
		return nil, fmt.Errorf("netsim: process covers %d links, topology has %d",
			cfg.Process.NumLinks(), cfg.Topology.NumLinks())
	}
	if cfg.Snapshots <= 0 {
		return nil, fmt.Errorf("netsim: snapshots = %d, want > 0", cfg.Snapshots)
	}
	tl := cfg.Tl
	if tl == 0 {
		tl = loss.DefaultTl
	}
	if tl < 0 || tl >= 1 {
		return nil, fmt.Errorf("netsim: tl = %v, want (0, 1)", tl)
	}
	packets := cfg.PacketsPerPath
	if packets == 0 {
		packets = loss.DefaultPacketsPerPath
	}
	if packets < 0 {
		return nil, fmt.Errorf("netsim: packets per path = %d", packets)
	}

	var rec *recordBuilder
	if record {
		rec = &recordBuilder{paths: segstore.NewBuilder(cfg.Topology.NumPaths(), cfg.Snapshots)}
		if cfg.RecordLinkStates {
			rec.links = segstore.NewBuilder(cfg.Topology.NumLinks(), cfg.Snapshots)
		}
	}
	run := cfg.Process.Start(cfg.Seed)
	linkState := bitset.New(cfg.Topology.NumLinks())
	var rng *rand.Rand
	if cfg.Mode == PacketLevel {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > 1 {
			return runDynamicChunked(ctx, cfg, rec, run, linkState, tl, packets)
		}
		rng = rand.New(rand.NewSource(0))
	}
	pathState := bitset.New(cfg.Topology.NumPaths())
	for t := 0; t < cfg.Snapshots; t++ {
		if t%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		run.Next(linkState)
		// Measurement noise draws from a per-snapshot stream so packet-level
		// noise stays independent of the process realization.
		if rng != nil {
			rng.Seed(runner.DeriveSeed(cfg.Seed, t))
		}
		observePaths(cfg.Topology, linkState, rng, cfg.Mode, tl, packets, pathState)
		rec.append(pathState, linkState)
		if cfg.OnSnapshot != nil {
			cfg.OnSnapshot(t, pathState)
		}
	}
	return rec.finish(), nil
}

// recordBuilder fills RunDynamic's record in snapshot order; a nil
// recordBuilder (RunDynamicStream) records nothing.
type recordBuilder struct {
	paths, links *segstore.Builder
}

func (b *recordBuilder) append(pathState, linkState *bitset.Set) {
	if b == nil {
		return
	}
	b.paths.Append(pathState)
	if b.links != nil {
		b.links.Append(linkState)
	}
}

func (b *recordBuilder) finish() *Record {
	if b == nil {
		return nil
	}
	rec := &Record{Paths: b.paths.Finish()}
	if b.links != nil {
		rec.Links = b.links.Finish()
	}
	return rec
}

// dynChunkSnapshots is the pipeline chunk of the parallel PacketLevel path:
// big enough to amortize the per-chunk fan-out, small enough that the
// buffered link/path states stay cache-resident and OnSnapshot latency stays
// bounded.
const dynChunkSnapshots = 512

// runDynamicChunked is the parallel body of a PacketLevel RunDynamic:
// advance the process sequentially into a chunk of buffered link states,
// simulate the chunk's probe packets in parallel (each snapshot's
// measurement noise comes from its own derived stream, reseeded into the
// worker's generator, so tasks are independent), then emit the chunk in
// snapshot order. Emission order, store contents and OnSnapshot sequence
// are exactly the sequential loop's.
func runDynamicChunked(ctx context.Context, cfg DynamicConfig, rec *recordBuilder, run dynamics.Run, linkState *bitset.Set, tl float64, packets int) (*Record, error) {
	chunk := dynChunkSnapshots
	if chunk > cfg.Snapshots {
		chunk = cfg.Snapshots
	}
	linkStates := make([]*bitset.Set, chunk)
	pathStates := make([]*bitset.Set, chunk)
	for i := range linkStates {
		linkStates[i] = bitset.New(cfg.Topology.NumLinks())
		pathStates[i] = bitset.New(cfg.Topology.NumPaths())
	}
	r := &runner.Runner{Workers: cfg.Workers}
	for base := 0; base < cfg.Snapshots; base += chunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := chunk
		if base+m > cfg.Snapshots {
			m = cfg.Snapshots - base
		}
		for i := 0; i < m; i++ {
			run.Next(linkState)
			linkStates[i].CopyFrom(linkState)
		}
		_, err := runner.MapScratch(ctx, r, m,
			func() *rand.Rand { return rand.New(rand.NewSource(0)) },
			func(_ context.Context, i int, rng *rand.Rand) (struct{}, error) {
				rng.Seed(runner.DeriveSeed(cfg.Seed, base+i))
				observePaths(cfg.Topology, linkStates[i], rng, cfg.Mode, tl, packets, pathStates[i])
				return struct{}{}, nil
			})
		if err != nil {
			return nil, err
		}
		for i := 0; i < m; i++ {
			rec.append(pathStates[i], linkStates[i])
			if cfg.OnSnapshot != nil {
				cfg.OnSnapshot(base+i, pathStates[i])
			}
		}
	}
	return rec.finish(), nil
}
