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
// Congested links come from exactly one of two sources: an i.i.d.
// congestion.Model drawn afresh each snapshot, or a time-indexed
// dynamics.Process whose state carries from one snapshot to the next. One
// loop serves both, chunk by chunk: the process (if any) advances
// sequentially into the chunk's buffered link states; a per-snapshot step
// draws the model's links and observes the paths, fanned out over the
// internal/runner worker pool when it draws randomness (a serial run's
// chunk is one snapshot); and the chunk is emitted in snapshot order into
// the record and the OnSnapshot tap. Every
// random draw of snapshot t comes from runner.DeriveSeed(seed, t) (and the
// process realization from its own stream), so records and tap sequences
// are bit-identical for every worker count.
package netsim

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/congestion"
	"repro/internal/dynamics"
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

// Config parameterizes a simulation run. Exactly one of Model and Process
// is set.
type Config struct {
	Topology *topology.Topology
	// Model draws each snapshot's congested links independently of every
	// other snapshot.
	Model congestion.Model
	// Process is a time-indexed congestion process (e.g.
	// dynamics.MarkovModulated) that carries state between snapshots.
	Process   dynamics.Process
	Snapshots int
	// Seed drives the model draws, the process realization and the
	// packet-level measurement noise.
	Seed int64
	Mode Mode
	// Tl is the link congestion threshold (0 ⇒ loss.DefaultTl). Only used in
	// PacketLevel mode.
	Tl float64
	// PacketsPerPath is the probe count per path per snapshot
	// (0 ⇒ loss.DefaultPacketsPerPath). Only used in PacketLevel mode.
	PacketsPerPath int
	// RecordLinkStates additionally stores the true congested-link set of
	// every snapshot (for validation and diagnostics; costs memory).
	RecordLinkStates bool
	// OnSnapshot, when non-nil, is called with each snapshot's index and
	// congested-path observation, in snapshot order — the streaming tap
	// online consumers (sliding windows, change detectors) attach to. The
	// set is reused between calls; clone it to retain.
	OnSnapshot func(t int, congestedPaths *bitset.Set)
	// Workers caps the per-snapshot fan-out (0 ⇒ GOMAXPROCS, capped by any
	// worker budget the context carries). Only a step that draws randomness
	// — a model draw or a PacketLevel observation — fans out; a process
	// under StateLevel is a few word ORs per snapshot and runs inline.
	Workers int
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

// Run executes the simulation, honouring ctx between chunks of snapshots,
// and returns the observation record.
func Run(ctx context.Context, cfg Config) (*Record, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	paths := segstore.NewBuilder(cfg.Topology.NumPaths(), cfg.Snapshots)
	var links *segstore.Builder
	if cfg.RecordLinkStates {
		links = segstore.NewBuilder(cfg.Topology.NumLinks(), cfg.Snapshots)
	}
	if err := simulate(ctx, cfg, paths, links); err != nil {
		return nil, err
	}
	rec := &Record{Paths: paths.Finish()}
	if links != nil {
		rec.Links = links.Finish()
	}
	return rec, nil
}

// Stream is Run without the record: every snapshot goes only to
// cfg.OnSnapshot (required) and nothing is materialized in RAM — the
// generation mode for day-scale replays whose observations stream straight
// into a spill-enabled window. The OnSnapshot sequence is bit-identical to
// Run's under the same configuration.
func Stream(ctx context.Context, cfg Config) error {
	if cfg.OnSnapshot == nil {
		return fmt.Errorf("netsim: Stream requires an OnSnapshot tap (nothing else receives the snapshots)")
	}
	if cfg.RecordLinkStates {
		return fmt.Errorf("netsim: Stream records nothing; use Run for link states")
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	return simulate(ctx, cfg, nil, nil)
}

// validate checks cfg and fills the packet-level defaults.
func (cfg *Config) validate() error {
	if cfg.Topology == nil {
		return fmt.Errorf("netsim: nil topology")
	}
	var source interface{ NumLinks() int }
	switch {
	case cfg.Model != nil && cfg.Process != nil:
		return fmt.Errorf("netsim: both a model and a process set, want one")
	case cfg.Model != nil:
		source = cfg.Model
	case cfg.Process != nil:
		source = cfg.Process
	default:
		return fmt.Errorf("netsim: nil model and nil process, want one")
	}
	if source.NumLinks() != cfg.Topology.NumLinks() {
		return fmt.Errorf("netsim: congestion source covers %d links, topology has %d",
			source.NumLinks(), cfg.Topology.NumLinks())
	}
	if cfg.Snapshots <= 0 {
		return fmt.Errorf("netsim: snapshots = %d, want > 0", cfg.Snapshots)
	}
	if cfg.Tl == 0 {
		cfg.Tl = loss.DefaultTl
	}
	if cfg.Tl < 0 || cfg.Tl >= 1 {
		return fmt.Errorf("netsim: tl = %v, want (0, 1)", cfg.Tl)
	}
	if cfg.PacketsPerPath == 0 {
		cfg.PacketsPerPath = loss.DefaultPacketsPerPath
	}
	if cfg.PacketsPerPath < 0 {
		return fmt.Errorf("netsim: packets per path = %d", cfg.PacketsPerPath)
	}
	return nil
}

// chunkSnapshots is the chunk a fanned-out run hands its workers: big
// enough to amortize the fan-out, small enough that the buffered link and
// path states stay cache-resident and OnSnapshot latency stays bounded. It
// is also the cancellation check interval.
const chunkSnapshots = 512

// simulate is the one snapshot loop behind Run and Stream: per chunk,
// advance the process into buffered link states, run the per-snapshot
// step (serially, or fanned out when it draws randomness and the worker
// budget allows), then emit the chunk in snapshot order to paths and links
// (when non-nil) and the tap. cfg is validated.
func simulate(ctx context.Context, cfg Config, paths, links *segstore.Builder) error {
	random := cfg.Model != nil || cfg.Mode == PacketLevel
	pool := &runner.Runner{Workers: cfg.Workers}
	fanOut := random && pool.Budget(ctx) > 1
	// A serial run steps one snapshot at a time, so its two buffers stay
	// hot; a fan-out buffers a chunk to hand the workers.
	chunk := 1
	if fanOut {
		chunk = min(chunkSnapshots, cfg.Snapshots)
	}
	linkStates := make([]*bitset.Set, chunk)
	pathStates := make([]*bitset.Set, chunk)
	for i := range linkStates {
		linkStates[i] = bitset.New(cfg.Topology.NumLinks())
		pathStates[i] = bitset.New(cfg.Topology.NumPaths())
	}
	var run dynamics.Run
	if cfg.Process != nil {
		run = cfg.Process.Start(cfg.Seed)
	}
	// step simulates snapshot t into link (drawn here for a model, already
	// advanced for a process) and path. rng is nil exactly when the step
	// draws no randomness; otherwise every draw of snapshot t comes from
	// its own derived stream, so steps are independent of each other and
	// of the process realization.
	step := func(t int, link, path *bitset.Set, rng *rand.Rand) {
		if rng != nil {
			rng.Seed(runner.DeriveSeed(cfg.Seed, t))
			if cfg.Model != nil {
				cfg.Model.Sample(rng, link)
			}
		}
		observePaths(cfg.Topology, link, rng, cfg.Mode, cfg.Tl, cfg.PacketsPerPath, path)
	}
	var rng *rand.Rand
	if random && !fanOut {
		rng = rand.New(rand.NewSource(0))
	}
	for base := 0; base < cfg.Snapshots; base += chunk {
		if base%chunkSnapshots == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		m := min(chunk, cfg.Snapshots-base)
		if run != nil {
			for i := 0; i < m; i++ {
				run.Next(linkStates[i])
			}
		}
		if fanOut {
			_, err := runner.MapScratch(ctx, pool, m,
				func() *rand.Rand { return rand.New(rand.NewSource(0)) },
				func(_ context.Context, i int, rng *rand.Rand) (struct{}, error) {
					step(base+i, linkStates[i], pathStates[i], rng)
					return struct{}{}, nil
				})
			if err != nil {
				return err
			}
		} else {
			for i := 0; i < m; i++ {
				step(base+i, linkStates[i], pathStates[i], rng)
			}
		}
		for i := 0; i < m; i++ {
			if paths != nil {
				paths.Append(pathStates[i])
			}
			if links != nil {
				links.Append(linkStates[i])
			}
			if cfg.OnSnapshot != nil {
				cfg.OnSnapshot(base+i, pathStates[i])
			}
		}
	}
	return nil
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
