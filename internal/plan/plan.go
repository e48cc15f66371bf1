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
//   - the composite-likelihood MLE's observation structure (mle.Plan).
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
}

// linearKey is the comparable structural signature of a compiled linear
// structure: the correlation-set interpretation plus every core.Options
// field that shapes equation selection or solving. PathFilter is a func and
// cannot be part of a key; options carrying one bypass the memo.
type linearKey struct {
	identity        bool
	useAllEquations bool
	disablePairs    bool
	forceMinNorm    bool
}

func keyFor(identity bool, opts core.Options) linearKey {
	return linearKey{
		identity:        identity,
		useAllEquations: opts.UseAllEquations,
		disablePairs:    opts.DisablePairs,
		forceMinNorm:    opts.ForceMinNorm,
	}
}

// linearEntry memoizes one compiled linear structure (once-guarded so
// concurrent first uses compile exactly once).
type linearEntry struct {
	once sync.Once
	lp   *core.LinearPlan
	err  error
}

// Plan is a compiled, reusable inference plan for one topology. Compile it
// once, then run any estimator against any number of measurement sources;
// the expensive topology-dependent work is shared. All methods are safe for
// concurrent use, given one Workspace per goroutine.
type Plan struct {
	top *topology.Topology

	mu     sync.Mutex
	linear map[linearKey]*linearEntry

	thmOnce sync.Once
	thmPlan *core.TheoremPlan
	thmErr  error

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
	p := &Plan{top: top, linear: map[linearKey]*linearEntry{}}
	if !opts.Lazy {
		if _, err := p.linearPlan(false, opts.Algorithm); err != nil {
			return nil, err
		}
		if _, err := p.linearPlan(true, opts.Algorithm); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Topology returns the topology the plan was compiled for.
func (p *Plan) Topology() *topology.Topology { return p.top }

// linearPlan returns the memoized compiled structure for one linear-family
// signature, compiling it on first use. Options carrying a PathFilter are
// structurally unique per call and compile fresh without touching the memo.
func (p *Plan) linearPlan(identity bool, opts core.Options) (*core.LinearPlan, error) {
	if opts.PathFilter != nil {
		return core.CompileLinear(p.top, identity, opts)
	}
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
// zero steady-state allocations on an Empirical source. The result aliases
// ws.
func (p *Plan) TheoremIn(ws *Workspace, src measure.PatternSource) (*core.TheoremResult, error) {
	p.thmOnce.Do(func() { p.thmPlan, p.thmErr = core.CompileTheorem(p.top) })
	if p.thmErr != nil {
		return nil, p.thmErr
	}
	return p.thmPlan.RunIn(&ws.core, src)
}

// MLEIn runs the composite-likelihood estimator through the compiled plan
// on workspace-owned optimizer state: every per-iteration buffer is reused.
// The result aliases ws.
func (p *Plan) MLEIn(ws *Workspace, src measure.Source, opts mle.Options) (*mle.Result, error) {
	p.mleOnce.Do(func() { p.mlePlan, p.mleErr = mle.Compile(p.top) })
	if p.mleErr != nil {
		return nil, p.mleErr
	}
	return p.mlePlan.EstimateIn(&ws.mle, src, opts)
}
