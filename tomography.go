// Package tomography is the public facade of the correlated-links network
// tomography library, a reproduction of "Network Tomography on Correlated
// Links" (Ghita, Argyraki, Thiran — IMC 2010).
//
// The library identifies per-link congestion probabilities from end-to-end
// Boolean path measurements when links may be correlated within known
// correlation sets. The workflow is:
//
//  1. Describe the measurement topology — links, paths, correlation sets —
//     with a Builder (or generate one with the brite/planetlab generators
//     through the cmd/topogen tool).
//  2. Collect per-snapshot path observations. The netsim engine simulates
//     them from a ground-truth congestion model; a real deployment would
//     fill a Record from probe measurements instead.
//  3. Compile the topology into an inference Plan, then run one of the four
//     estimators — "correlation" (the paper's Section-4 algorithm),
//     "independence" (the Nguyen–Thiran baseline), "theorem" (the exact
//     Appendix-A algorithm), or "mle" (composite-likelihood) — over an
//     Empirical source with Estimate, or with EstimateIn on a reused
//     Workspace, to recover P(link congested) for every link. The plan precomputes everything
//     that depends only on the topology (admissible path/pair selection,
//     equation sparsity, identifiability), so repeated inference over new
//     records, streaming appends or batch trials only fills probabilities
//     and solves.
//
// For evaluating many scenarios at once — parameter sweeps, what-if
// studies, large Monte-Carlo campaigns — EvaluateBatch shards simulation
// and inference across a worker pool (internal/runner) with deterministic
// per-scenario seeding: results are bit-identical regardless of the worker
// count, and scenarios sharing a topology share one compiled plan.
//
// Beyond probability estimation, the facade exposes the rest of the
// paper's pipeline: Localize / LocalizeCorrelated identify the congested
// links of a single snapshot (Section 3.3), and Validate / CompareValidation
// run the PlanetLab tomographer's holdout indirect validation (Section 5).
//
// See examples/quickstart for a complete end-to-end program and
// examples/localize for per-snapshot localization.
package tomography

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/locate"
	"repro/internal/measure"
	"repro/internal/mle"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/segstore"
	"repro/internal/tomographer"
	"repro/internal/topology"
)

// Re-exported topology types. See internal/topology for full documentation.
type (
	// Topology is an immutable measurement topology: links, paths and
	// correlation sets.
	Topology = topology.Topology
	// Builder accumulates nodes, links, paths and correlation sets.
	Builder = topology.Builder
	// NodeID identifies a node.
	NodeID = topology.NodeID
	// LinkID identifies a logical link.
	LinkID = topology.LinkID
	// PathID identifies a measurement path.
	PathID = topology.PathID
)

// Re-exported measurement types.
type (
	// Record holds per-snapshot congested-path observations as immutable
	// SnapshotStore columns.
	Record = netsim.Record
	// SnapshotStore is a record's columnar measurement store: one packed
	// bit column per path (or link) over snapshots, in RAM chunks of the
	// same column store that backs every sliding window.
	SnapshotStore = segstore.Columns
	// PathSet is a set of path indices — the per-snapshot observation fed
	// to Empirical.Append and returned by Record.PathSnapshot. Build one
	// with NewPathSet.
	PathSet = bitset.Set
	// Empirical estimates probabilities from columnar observations: the
	// measurement source every estimator reads.
	Empirical = measure.Empirical
)

// Re-exported algorithm types.
type (
	// Result is the output of the practical algorithms.
	Result = core.Result
	// Options tunes the practical algorithms.
	Options = core.Options
	// TheoremResult is the output of the exact algorithm.
	TheoremResult = core.TheoremResult
	// MLEResult is the output of the composite-likelihood estimator.
	MLEResult = mle.Result
	// MLEOptions tunes the composite-likelihood optimizer.
	MLEOptions = mle.Options
)

// Re-exported inference-plan types. A Plan is compiled once per topology
// (Compile) and shared — safely, across goroutines — by every estimator
// run over that topology.
type (
	// Plan is a compiled, reusable inference plan for one topology.
	Plan = plan.Plan
	// PlanOptions tunes Compile.
	PlanOptions = plan.Options
)

// Re-exported per-snapshot localization types (Section 3.3).
type (
	// LocalizeResult is one snapshot's inferred congested-link set.
	LocalizeResult = locate.Result
	// SetStates is a correlation set's learned joint state distribution,
	// consumed by LocalizeCorrelated.
	SetStates = locate.SetStates
	// SubsetState is one state of a correlation set.
	SubsetState = locate.SubsetState
	// LocalizeMetrics summarizes localization quality over many snapshots.
	LocalizeMetrics = locate.Metrics
)

// Re-exported indirect-validation types (Section 5, PlanetLab tomographer).
type (
	// ValidationConfig parameterizes one holdout indirect validation.
	ValidationConfig = tomographer.Config
	// ValidationReport is the outcome of an indirect validation.
	ValidationReport = tomographer.Report
	// ValidationComparison bundles the correlation-aware and
	// independence-assuming validations the paper proposes to compare.
	ValidationComparison = tomographer.Comparison
)

// Model is a ground-truth congestion process (used with Simulate).
type Model = congestion.Model

// SimConfig parameterizes Simulate.
type SimConfig = netsim.Config

// SimMode selects the simulator's measurement fidelity.
type SimMode = netsim.Mode

// Re-exported simulator modes.
const (
	// StateLevel derives path states from link states (Assumption 2).
	StateLevel = netsim.StateLevel
	// PacketLevel simulates loss rates and probe packets per snapshot.
	PacketLevel = netsim.PacketLevel
)

// Scenario is a fully specified experiment input: a topology, a ground-truth
// congestion model, and the per-link truth the evaluation compares against.
// See internal/scenario for full documentation.
type Scenario = scenario.Scenario

// ScenarioConfig parameterizes NewScenario.
type ScenarioConfig = scenario.FromTopologyConfig

// CorrelationLevel selects how congested links cluster inside correlation
// sets in a synthesized scenario.
type CorrelationLevel = scenario.CorrelationLevel

// Re-exported correlation levels.
const (
	// HighCorrelation: more than 2 congested links per correlation set.
	HighCorrelation = scenario.HighCorrelation
	// LooseCorrelation: up to 2 congested links per correlation set.
	LooseCorrelation = scenario.LooseCorrelation
)

// Evaluation helpers, re-exported from internal/eval: they summarize the
// error samples EvaluateBatch and the estimators produce.

// AbsErrors returns the sorted absolute errors |truth − inferred| over the
// links of include (all links when include is nil).
func AbsErrors(truth, inferred []float64, include *PathSet) []float64 {
	return eval.AbsErrors(truth, inferred, include)
}

// Mean returns the mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 { return eval.Mean(xs) }

// Percentile returns the p-th percentile of xs.
func Percentile(xs []float64, p float64) float64 { return eval.Percentile(xs, p) }

// FracBelow returns the fraction of xs at or below x.
func FracBelow(xs []float64, x float64) float64 { return eval.FracBelow(xs, x) }

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder { return topology.NewBuilder() }

// Figure1A returns the toy topology of the paper's Figure 1(a).
func Figure1A() *Topology { return topology.Figure1A() }

// Figure1B returns the toy topology of the paper's Figure 1(b), which
// violates Assumption 4.
func Figure1B() *Topology { return topology.Figure1B() }

// Simulate runs the snapshot simulator and returns the observation record.
// cfg carries exactly one congestion source: an i.i.d. Model, or a
// time-indexed Process whose state carries from snapshot to snapshot. An
// optional OnSnapshot tap sees every observation in snapshot order.
func Simulate(cfg SimConfig) (*Record, error) { return netsim.Run(context.Background(), cfg) }

// SimulateStream is Simulate without the record: every snapshot goes only
// to cfg.OnSnapshot (required) and nothing is materialized in RAM — the
// generation mode for day-scale replays whose observations stream straight
// into a spill-enabled window. The OnSnapshot sequence is bit-identical to
// Simulate's under the same configuration.
func SimulateStream(cfg SimConfig) error { return netsim.Stream(context.Background(), cfg) }

// NewEmpirical wraps a record into a measurement source. It fails on a nil
// or empty record (zero snapshots admit no frequency estimates).
func NewEmpirical(rec *Record) (*Empirical, error) { return measure.NewEmpirical(rec) }

// NewStreaming returns an empty streaming measurement source over numPaths
// paths: feed it observed snapshots one at a time with Append (build each
// observation with NewPathSet) and run the algorithms at any point —
// estimates over the first N appended snapshots are identical to a
// one-shot batch over the same data. See examples/streaming-monitor.
func NewStreaming(numPaths int) *Empirical { return measure.NewStreaming(numPaths) }

// NewPathSet returns the set containing exactly the given path indices —
// one snapshot's congested-path observation for Empirical.Append or
// NewRecordFromRows.
func NewPathSet(paths ...int) *PathSet { return bitset.FromIndices(paths...) }

// NewRecordFromRows converts legacy row-major observations (one congested-
// path set per snapshot) into a columnar Record — the compatibility path
// for callers that assemble snapshots themselves.
func NewRecordFromRows(numPaths int, rows []*PathSet) *Record {
	return netsim.NewRecordFromRows(numPaths, rows)
}

// Compile builds a reusable inference plan for a topology: everything that
// depends only on the topology — admissible path/pair selection, equation
// sparsity structure, per-correlation-set indices, the identifiability
// check — is computed once and shared by every subsequent estimator run.
// The returned plan is immutable from the caller's perspective and safe for
// concurrent use; see the package docs of internal/plan for the memoization
// contract.
func Compile(top *Topology, opts PlanOptions) (*Plan, error) {
	return plan.Compile(top, opts)
}

// Localize identifies the most likely congested-link set behind one
// snapshot's congested-path observation, assuming links fail independently
// with the given marginal probabilities (learned by any estimator). This is
// the paper's Section-3.3 per-snapshot localization.
func Localize(top *Topology, probs []float64, congestedPaths *PathSet) (*LocalizeResult, error) {
	return locate.Independent(top, probs, congestedPaths)
}

// LocalizeCorrelated is Localize with per-correlation-set joint state
// probabilities (e.g. the Theorem estimator's output via TheoremSetStates):
// correlated sets are explained by their learned joint states instead of
// independent marginals, which detects co-congested links that independent
// localization misses. Sets not mentioned in states fall back to the
// marginals.
func LocalizeCorrelated(top *Topology, probs []float64, states []SetStates, congestedPaths *PathSet) (*LocalizeResult, error) {
	return locate.Correlated(top, probs, states, congestedPaths)
}

// EvaluateLocalization compares per-snapshot localization output against
// per-snapshot ground-truth congested-link sets.
func EvaluateLocalization(truth, inferred []*PathSet) (LocalizeMetrics, error) {
	return locate.Evaluate(truth, inferred)
}

// TheoremSetStates converts a Theorem result's recovered joint distribution
// into the per-set state tables LocalizeCorrelated consumes.
func TheoremSetStates(top *Topology, thm *TheoremResult) []SetStates {
	var states []SetStates
	for p := 0; p < top.NumSets(); p++ {
		ss := SetStates{Set: p}
		bitset.EnumerateSubsets(top.CorrelationSet(p).Indices(), func(s *bitset.Set) bool {
			if prob, ok := thm.JointProb[s.Key()]; ok {
				ss.States = append(ss.States, SubsetState{Links: s.Clone(), P: prob})
			}
			return true
		})
		ss.States = append(ss.States, SubsetState{Links: bitset.New(top.NumLinks()), P: thm.ProbSetEmpty[p]})
		states = append(states, ss)
	}
	return states
}

// Validate runs one holdout indirect validation (Padmanabhan et al.): infer
// link probabilities from a training split of the paths, predict the
// held-out paths' good-frequencies, and compare prediction to observation.
func Validate(cfg ValidationConfig) (*ValidationReport, error) {
	return tomographer.Run(cfg)
}

// CompareValidation runs the indirect validation under both correlation
// assumptions on the same record and split — the experiment the paper's
// PlanetLab tomographer was being built to perform (Section 5).
func CompareValidation(top *Topology, rec *Record, holdoutFrac float64, seed int64) (*ValidationComparison, error) {
	return tomographer.Compare(top, rec, holdoutFrac, seed)
}

// CheckIdentifiability verifies Assumption 4 for a topology (subsetCap ≤ 0
// uses the default enumeration budget). See the paper's Section 3.3 for what
// to do when it fails — including MergeTransform.
func CheckIdentifiability(top *Topology, subsetCap int) topology.CheckResult {
	return topology.CheckIdentifiability(top, subsetCap)
}

// MergeTransform applies the Section-3.3 link-merge transformation, removing
// structural Assumption-4 violations at reduced granularity.
func MergeTransform(top *Topology) (*Topology, topology.MergeMap, error) {
	return topology.MergeTransform(top)
}

// NewScenario builds a congestion scenario for an arbitrary measurement
// topology: a shared-cause process over the topology's correlation sets,
// with congested links placed according to the requested correlation level.
// Scenarios built here feed EvaluateBatch (or Simulate directly).
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	return scenario.FromTopology(cfg)
}

// BatchOptions tunes EvaluateBatch.
type BatchOptions struct {
	// Snapshots per scenario simulation (must be > 0).
	Snapshots int
	// Seed is the root seed; each scenario's simulation seed is derived from
	// (Seed, index), so batch results are reproducible and independent of
	// Workers.
	Seed int64
	// Workers caps the worker pool (0 ⇒ GOMAXPROCS, 1 ⇒ serial).
	Workers int
	// Mode selects state-level (default) or packet-level measurement.
	Mode SimMode
	// PacketsPerPath for packet-level mode (0 ⇒ default).
	PacketsPerPath int
	// Algorithm tunes the two practical algorithms.
	Algorithm Options
	// Progress, when non-nil, is called after each completed scenario with
	// (done, total). Calls are serialized.
	Progress func(done, total int)
}

// BatchResult is the evaluation of one scenario in a batch.
type BatchResult struct {
	// Scenario is the evaluated input.
	Scenario *Scenario
	// Correlation and Independence are the two algorithms' outputs; nil when
	// Err is set.
	Correlation  *Result
	Independence *Result
	// CorrErrors and IndepErrors are the sorted absolute errors versus the
	// scenario's ground truth over its potentially congested links — ready
	// for eval-style CDF/mean/percentile summaries.
	CorrErrors  []float64
	IndepErrors []float64
	// Err records a per-scenario failure; the rest of the batch still runs.
	Err error
}

// planCache lazily compiles one inference plan per distinct topology in a
// batch, so scenarios sharing a topology — the common sweep/trial layout —
// share all structural work. The once-guarded entries make concurrent
// first uses compile exactly once.
type planCache struct {
	mu      sync.Mutex
	opts    PlanOptions
	entries map[*Topology]*planCacheEntry
}

type planCacheEntry struct {
	once sync.Once
	plan *Plan
	err  error
}

func newPlanCache(opts PlanOptions) *planCache {
	return &planCache{opts: opts, entries: map[*Topology]*planCacheEntry{}}
}

func (c *planCache) get(top *Topology) (*Plan, error) {
	c.mu.Lock()
	e := c.entries[top]
	if e == nil {
		e = &planCacheEntry{}
		c.entries[top] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.plan, e.err = Compile(top, c.opts) })
	return e.plan, e.err
}

// EvaluateBatch evaluates many scenarios concurrently on a bounded worker
// pool: each scenario is simulated for opts.Snapshots snapshots with a seed
// derived from (opts.Seed, its index), then both the correlation algorithm
// and the independence baseline run on the simulated record. Results arrive
// in input order and are bit-identical for every opts.Workers setting.
// Scenarios that share a *Topology share one compiled inference plan, so
// the per-topology structural work (admissible path/pair selection, rank
// tracking) is paid once per topology rather than once per trial.
//
// A scenario carrying a time-indexed congestion process (Scenario.Process,
// e.g. the dynamic entries of the named registry) goes through the same
// simulator as an i.i.d. one; its errors are measured against the
// process's stationary marginals.
//
// A scenario that fails records its error in its own BatchResult and does
// not abort the batch; EvaluateBatch itself returns an error only for
// invalid options or a cancelled context.
func EvaluateBatch(ctx context.Context, scenarios []*Scenario, opts BatchOptions) ([]BatchResult, error) {
	if opts.Snapshots <= 0 {
		return nil, fmt.Errorf("tomography: EvaluateBatch snapshots = %d, want > 0", opts.Snapshots)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("tomography: EvaluateBatch workers = %d, want ≥ 0 (0 means GOMAXPROCS)", opts.Workers)
	}
	if opts.PacketsPerPath < 0 {
		return nil, fmt.Errorf("tomography: EvaluateBatch packets per path = %d, want ≥ 0 (0 means the packet-level default)", opts.PacketsPerPath)
	}
	plans := newPlanCache(PlanOptions{Algorithm: opts.Algorithm})
	pool := &runner.Runner{Workers: opts.Workers, Progress: opts.Progress}
	// Tasks borrow a workspace from Estimate's pool for their inference
	// calls and return it, so the per-scenario solver state (equation RHS,
	// matrices, LP tableaus) is recycled across the whole batch instead of
	// reallocated per trial.
	return runner.Map(ctx, pool, len(scenarios), func(ctx context.Context, i int) (BatchResult, error) {
		ws := wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
		res := BatchResult{Scenario: scenarios[i]}
		res.fill(ctx, opts, plans, &ws.ws, runner.DeriveSeed(opts.Seed, i))
		return res, nil
	})
}

// fill runs simulation + both algorithms for one scenario, recording any
// failure in res.Err. ws is the worker's borrowed evaluate workspace; the
// retained results are detached from it before it is reused.
func (res *BatchResult) fill(ctx context.Context, opts BatchOptions, plans *planCache, ws *plan.Workspace, seed int64) {
	s := res.Scenario
	rec, err := netsim.Run(ctx, netsim.Config{
		Topology:       s.Topology,
		Model:          s.Model,
		Process:        s.Process,
		Snapshots:      opts.Snapshots,
		Seed:           seed,
		Mode:           opts.Mode,
		PacketsPerPath: opts.PacketsPerPath,
		// A fanned-out batch forces this nested fan-out serial; a
		// one-scenario batch hands it the full budget.
		Workers: opts.Workers,
	})
	if err != nil {
		res.Err = err
		return
	}
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		res.Err = err
		return
	}
	p, err := plans.get(s.Topology)
	if err != nil {
		res.Err = err
		return
	}
	// Run each estimator through the worker's workspace and detach what the
	// BatchResult retains; the error samples are computed straight off the
	// workspace-owned output before the next estimator reuses it.
	corr, err := p.CorrelationIn(ws, src, opts.Algorithm)
	if err != nil {
		res.Err = err
		return
	}
	res.CorrErrors = eval.AbsErrors(s.Truth, corr.CongestionProb, s.PotentiallyCongested)
	res.Correlation = corr.Clone()
	indep, err := p.IndependenceIn(ws, src, opts.Algorithm)
	if err != nil {
		res.Err = err
		return
	}
	res.IndepErrors = eval.AbsErrors(s.Truth, indep.CongestionProb, s.PotentiallyCongested)
	res.Independence = indep.Clone()
}
