// Package plan compiles a topology's inference structures once and reuses
// them across any number of measurement sources — new records, streaming
// appends, batch trials. A Plan aggregates the compiled structural phases of
// every estimator family:
//
//   - the Section-4 equation selection (core.Structure) for the correlation
//     algorithm and the Nguyen–Thiran identity partition, keyed by their
//     structural options, so e.g. the UseAllEquations and paper-faithful
//     variants coexist on one plan;
//   - the exact algorithm's subset enumeration, Assumption-4 validation and
//     Γ-candidate lists (core.TheoremPlan);
//   - the composite-likelihood MLE's observation structure (mle.Plan);
//   - the Assumption-4 identifiability check, memoized per enumeration
//     budget.
//
// Every compiled structure is memoized under a sync.Once, so concurrent
// first uses compile exactly once, and all Plan methods are safe for
// concurrent use. Estimators run only through the ...In methods, on a
// caller-owned Workspace (one per goroutine); their results alias the
// workspace, and core.Result.Clone, core.TheoremResult.Clone and
// mle.Result.Clone detach a result that must outlive it.
package plan

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/mle"
	"repro/internal/topology"
)

// Options tunes Compile.
type Options struct {
	// Algorithm seeds the eagerly compiled correlation and independence
	// structures. Estimate-time options with the same structural signature
	// reuse them; other signatures compile lazily on first use.
	Algorithm core.Options
	// Lazy skips the eager compilation entirely: every structure compiles
	// on first use. Useful when only one estimator family will run.
	Lazy bool
	// Identifiability runs the Assumption-4 check at compile time (with
	// SubsetCap as the enumeration budget); the result is available via
	// Plan.Identifiability without recomputation.
	Identifiability bool
	// SubsetCap is the enumeration budget of the compile-time
	// identifiability check (≤ 0 uses the default).
	SubsetCap int
}

// linearKey is the comparable structural signature of a compiled linear
// structure: the correlation-set interpretation plus every core.Options
// field that shapes equation selection or solving. PathFilter is a func and
// cannot be part of a key; options carrying one bypass the memo.
type linearKey struct {
	identity          bool
	minProb           float64
	maxPairCandidates int
	maxLPSize         int
	useAllEquations   bool
	disablePairs      bool
	forceMinNorm      bool
}

func keyFor(identity bool, opts core.Options) linearKey {
	return linearKey{
		identity:          identity,
		minProb:           opts.MinProb,
		maxPairCandidates: opts.MaxPairCandidates,
		maxLPSize:         opts.MaxLPSize,
		useAllEquations:   opts.UseAllEquations,
		disablePairs:      opts.DisablePairs,
		forceMinNorm:      opts.ForceMinNorm,
	}
}

// linearEntry memoizes one compiled linear structure (once-guarded so
// concurrent first uses compile exactly once).
type linearEntry struct {
	once sync.Once
	lp   *core.LinearPlan
	err  error
}

// theoremEntry memoizes one compiled theorem structure.
type theoremEntry struct {
	once sync.Once
	tp   *core.TheoremPlan
	err  error
}

// identEntry memoizes one identifiability check.
type identEntry struct {
	once sync.Once
	res  topology.CheckResult
}

// Plan is a compiled, reusable inference plan for one topology. Compile it
// once, then run any estimator against any number of measurement sources;
// the expensive topology-dependent work is shared. All methods are safe for
// concurrent use, given one Workspace per goroutine.
type Plan struct {
	top *topology.Topology

	mu      sync.Mutex
	linear  map[linearKey]*linearEntry
	theorem map[core.TheoremOptions]*theoremEntry
	ident   map[int]*identEntry

	mleOnce sync.Once
	mlePlan *mle.Plan
	mleErr  error
}

// Compile builds an inference plan for a topology. Unless opts.Lazy is set,
// the correlation and independence equation structures for opts.Algorithm
// are compiled eagerly (they are what EvaluateBatch-style workloads reuse
// across every trial); everything else compiles on first use.
func Compile(top *topology.Topology, opts Options) (*Plan, error) {
	if top == nil {
		return nil, fmt.Errorf("plan: nil topology")
	}
	p := &Plan{
		top:     top,
		linear:  map[linearKey]*linearEntry{},
		theorem: map[core.TheoremOptions]*theoremEntry{},
		ident:   map[int]*identEntry{},
	}
	if !opts.Lazy {
		if _, err := p.linearPlan(false, opts.Algorithm); err != nil {
			return nil, err
		}
		if _, err := p.linearPlan(true, opts.Algorithm); err != nil {
			return nil, err
		}
	}
	if opts.Identifiability {
		p.Identifiability(opts.SubsetCap)
	}
	return p, nil
}

// Topology returns the topology the plan was compiled for.
func (p *Plan) Topology() *topology.Topology { return p.top }

// linearPlan returns the memoized compiled structure for one linear-family
// signature, compiling it on first use. Options are normalized first, so a
// zero value and an explicitly spelled-out default share one structure.
// Options carrying a PathFilter are structurally unique per call and
// compile fresh without touching the memo.
func (p *Plan) linearPlan(identity bool, opts core.Options) (*core.LinearPlan, error) {
	if opts.PathFilter != nil {
		return core.CompileLinear(p.top, identity, opts)
	}
	opts = opts.Normalized()
	key := keyFor(identity, opts)
	p.mu.Lock()
	e := p.linear[key]
	if e == nil {
		e = &linearEntry{}
		p.linear[key] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.lp, e.err = core.CompileLinear(p.top, identity, opts) })
	return e.lp, e.err
}

// Workspace bundles one reusable evaluate-phase scratch state per estimator
// family (the core linear/theorem workspace and the MLE workspace). A
// workspace is created with Plan.NewWorkspace (or zero-valued), reused by
// one goroutine across any number of ...In calls — and across plans: it
// holds no plan-specific state, only growable buffers — and must never be
// shared between goroutines (concurrent use panics). Results of the ...In
// methods alias workspace and plan storage: read-only, valid until the next
// call on the same workspace.
type Workspace struct {
	core core.Workspace
	mle  mle.Workspace
}

// NewWorkspace returns a workspace for the plan's ...In methods. Plans
// don't retain workspaces; the method exists so call sites read
// "plan.NewWorkspace()" at the point the ownership rule (one per goroutine)
// matters.
func (p *Plan) NewWorkspace() *Workspace { return &Workspace{} }

// theoremPlan returns the memoized compiled theorem structure for one
// options signature.
func (p *Plan) theoremPlan(opts core.TheoremOptions) (*core.TheoremPlan, error) {
	opts = opts.Normalized()
	p.mu.Lock()
	e := p.theorem[opts]
	if e == nil {
		e = &theoremEntry{}
		p.theorem[opts] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.tp, e.err = core.CompileTheorem(p.top, opts) })
	return e.tp, e.err
}

// CorrelationIn runs the paper's Section-4 algorithm through the compiled
// plan: zero steady-state allocations. The result aliases ws.
func (p *Plan) CorrelationIn(ws *Workspace, src measure.Source, opts core.Options) (*core.Result, error) {
	lp, err := p.linearPlan(false, opts)
	if err != nil {
		return nil, err
	}
	return lp.RunIn(&ws.core, src)
}

// IndependenceIn runs the Nguyen–Thiran baseline through the compiled
// plan: zero steady-state allocations. The result aliases ws.
func (p *Plan) IndependenceIn(ws *Workspace, src measure.Source, opts core.Options) (*core.Result, error) {
	lp, err := p.linearPlan(true, opts)
	if err != nil {
		return nil, err
	}
	return lp.RunIn(&ws.core, src)
}

// TheoremIn runs the exact Appendix-A algorithm through the compiled plan:
// zero steady-state allocations when the source supports key-addressed
// pattern queries. The result aliases ws.
func (p *Plan) TheoremIn(ws *Workspace, src measure.PatternSource, opts core.TheoremOptions) (*core.TheoremResult, error) {
	tp, err := p.theoremPlan(opts)
	if err != nil {
		return nil, err
	}
	return tp.RunIn(&ws.core, src)
}

// MLEIn runs the composite-likelihood estimator through the compiled plan
// on workspace-owned optimizer state: every per-iteration buffer is reused.
// The result aliases ws.
func (p *Plan) MLEIn(ws *Workspace, src mle.Source, opts mle.Options) (*mle.Result, error) {
	mp, err := p.mlePlanCompiled()
	if err != nil {
		return nil, err
	}
	return mp.EstimateIn(&ws.mle, src, opts)
}

func (p *Plan) mlePlanCompiled() (*mle.Plan, error) {
	p.mleOnce.Do(func() { p.mlePlan, p.mleErr = mle.Compile(p.top) })
	return p.mlePlan, p.mleErr
}

// Identifiability returns the memoized Assumption-4 check for the given
// enumeration budget (≤ 0 uses the default).
func (p *Plan) Identifiability(subsetCap int) topology.CheckResult {
	p.mu.Lock()
	e := p.ident[subsetCap]
	if e == nil {
		e = &identEntry{}
		p.ident[subsetCap] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.res = topology.CheckIdentifiability(p.top, subsetCap) })
	return e.res
}
