// Package netsim is the experiment engine: it runs the paper's simulator
// (Section 5) for N snapshots and records which paths were observed
// congested in each snapshot. Two fidelity modes are provided:
//
//   - StateLevel applies Assumption 2 (separability) directly: a path is
//     congested iff it traverses a congested link. This is exact under the
//     paper's model and fast enough for the large parameter sweeps.
//   - PacketLevel additionally simulates the [13] loss-rate model and probe
//     packets, classifying each path by its measured loss fraction against
//     the threshold tp — the full data path of the paper's simulator,
//     including measurement noise.
//
// Snapshots are independent, so the engine shards them across the
// internal/runner worker pool in 64-snapshot-aligned blocks; per-snapshot
// RNGs are derived deterministically from the seed (runner.DeriveSeed),
// making runs reproducible regardless of parallelism, and RunContext
// honours cancellation between blocks.
//
// Observations land directly in the record's preallocated bit columns (a
// segstore.Builder: one bit column per path over snapshots). Because every
// block owns whole words of every column, the shards never share a word:
// the deterministic "merge" is the layout itself, and no post-processing
// pass is needed.
package netsim

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/congestion"
	"repro/internal/loss"
	"repro/internal/runner"
	"repro/internal/segstore"
	"repro/internal/topology"
)

// Mode selects the measurement fidelity.
type Mode int

const (
	// StateLevel derives path states from link states via Assumption 2.
	StateLevel Mode = iota
	// PacketLevel simulates loss rates and probe packets per snapshot.
	PacketLevel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case StateLevel:
		return "state-level"
	case PacketLevel:
		return "packet-level"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	Topology  *topology.Topology
	Model     congestion.Model
	Snapshots int
	Seed      int64
	Mode      Mode
	// Tl is the link congestion threshold (0 ⇒ loss.DefaultTl). Only used in
	// PacketLevel mode.
	Tl float64
	// PacketsPerPath is the probe count per path per snapshot
	// (0 ⇒ loss.DefaultPacketsPerPath). Only used in PacketLevel mode.
	PacketsPerPath int
	// Parallelism caps the worker count (0 ⇒ GOMAXPROCS).
	Parallelism int
	// RecordLinkStates additionally stores the true congested-link set of
	// every snapshot (for validation and diagnostics; costs memory).
	RecordLinkStates bool
}

// Record holds the observations of one experiment as immutable bit
// columns on the chunked column store: one column per path (and,
// optionally, per link) over snapshots. Row access is available through
// PathSnapshot, LinkSnapshot and the columns' RowInto, but the algorithms
// consume the columns directly via measure.Empirical.
type Record struct {
	// Paths holds the congested-path observations, path-major.
	Paths *segstore.Columns
	// Links holds the true congested-link states, link-major; nil unless
	// Config.RecordLinkStates was set.
	Links *segstore.Columns
}

// NewRecordFromRows builds a record from row-major observations: rows[t]
// is the congested-path set of snapshot t. It panics on a path index out
// of range. A real deployment feeding probe measurements one snapshot at a
// time should use measure.NewStreaming instead.
func NewRecordFromRows(numPaths int, rows []*bitset.Set) *Record {
	b := segstore.NewBuilder(numPaths, len(rows))
	for _, row := range rows {
		b.Append(row)
	}
	return &Record{Paths: b.Finish()}
}

// NumPaths returns the number of paths observed per snapshot.
func (r *Record) NumPaths() int { return r.Paths.NumSeries() }

// Snapshots returns the number of recorded snapshots.
func (r *Record) Snapshots() int { return r.Paths.Snapshots() }

// PathSnapshot materializes snapshot t's congested-path set.
func (r *Record) PathSnapshot(t int) *bitset.Set { return row(r.Paths, t) }

// LinkSnapshot materializes snapshot t's true congested-link set; it panics
// unless link states were recorded.
func (r *Record) LinkSnapshot(t int) *bitset.Set {
	if r.Links == nil {
		panic("netsim: link states were not recorded (Config.RecordLinkStates)")
	}
	return row(r.Links, t)
}

// row materializes snapshot t of cols as a freshly allocated set.
func row(cols *segstore.Columns, t int) *bitset.Set {
	dst := bitset.New(cols.NumSeries())
	cols.RowInto(t, dst)
	return dst
}

// Run executes the simulation and returns the observation record. It is
// RunContext with a background context.
func Run(cfg Config) (*Record, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the simulation on the runner worker pool, honouring
// ctx between snapshots, and returns the observation record.
func RunContext(ctx context.Context, cfg Config) (*Record, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("netsim: nil topology")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("netsim: nil model")
	}
	if cfg.Model.NumLinks() != cfg.Topology.NumLinks() {
		return nil, fmt.Errorf("netsim: model covers %d links, topology has %d",
			cfg.Model.NumLinks(), cfg.Topology.NumLinks())
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
	paths := segstore.NewBuilder(cfg.Topology.NumPaths(), cfg.Snapshots)
	var links *segstore.Builder
	if cfg.RecordLinkStates {
		links = segstore.NewBuilder(cfg.Topology.NumLinks(), cfg.Snapshots)
	}

	// Tasks are 64-snapshot-aligned blocks: block b owns word b of every
	// column, so concurrent writers never share a word and the columnar
	// record needs no merge pass. The per-snapshot RNG is still derived from
	// (seed, snapshot) alone, so the record is bit-identical for any worker
	// count. Scratch bitsets and the generator are allocated once per worker
	// and reused; the generator is reseeded for every snapshot.
	blocks := (cfg.Snapshots + segstore.BlockRows - 1) / segstore.BlockRows
	type scratch struct {
		linkState, pathState *bitset.Set
		rng                  *rand.Rand
	}
	pool := &runner.Runner{Workers: cfg.Parallelism}
	_, err := runner.MapScratch(ctx, pool, blocks,
		func() *scratch {
			return &scratch{
				linkState: bitset.New(cfg.Topology.NumLinks()),
				pathState: bitset.New(cfg.Topology.NumPaths()),
				rng:       rand.New(rand.NewSource(0)),
			}
		},
		func(_ context.Context, block int, sc *scratch) (struct{}, error) {
			lo := block * segstore.BlockRows
			hi := lo + segstore.BlockRows
			if hi > cfg.Snapshots {
				hi = cfg.Snapshots
			}
			for snap := lo; snap < hi; snap++ {
				sc.rng.Seed(runner.DeriveSeed(cfg.Seed, snap))
				cfg.Model.Sample(sc.rng, sc.linkState)
				if links != nil {
					sc.linkState.ForEach(func(k int) bool {
						links.SetBit(k, snap)
						return true
					})
				}
				observePaths(cfg.Topology, sc.linkState, sc.rng, cfg.Mode, tl, packets, sc.pathState)
				sc.pathState.ForEach(func(p int) bool {
					paths.SetBit(p, snap)
					return true
				})
			}
			return struct{}{}, nil
		})
	if err != nil {
		return nil, err
	}
	rec := &Record{Paths: paths.Finish()}
	if links != nil {
		rec.Links = links.Finish()
	}
	return rec, nil
}

// observePaths derives the congested-path set for one snapshot into out
// (cleared first). StateLevel reads no randomness, and rng may be nil then.
func observePaths(top *topology.Topology, linkState *bitset.Set, rng *rand.Rand, mode Mode, tl float64, packets int, out *bitset.Set) {
	out.Clear()
	switch mode {
	case StateLevel:
		// Assumption 2 makes the congested paths ψ(congested links), the
		// union of the congested links' coverage sets (Equation 1).
		linkState.ForEach(func(k int) bool {
			out.UnionWith(top.LinkCoverage(topology.LinkID(k)))
			return true
		})
	case PacketLevel:
		rates := loss.SampleRates(rng, linkState, top.NumLinks(), tl)
		for _, p := range top.Paths() {
			frac := loss.TransmitPath(rng, rates, p.Links, packets)
			if loss.ClassifyPath(frac, tl, len(p.Links)) {
				out.Add(int(p.ID))
			}
		}
	default:
		panic(fmt.Sprintf("netsim: unknown mode %d", int(mode)))
	}
}
