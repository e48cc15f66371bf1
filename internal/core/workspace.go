package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/measure"
	"repro/internal/scratch"
	"repro/internal/topology"
)

// Workspace holds every piece of transient state an evaluate phase needs —
// the equation right-hand sides, the materialized solver matrix, the linear
// algebra and LP scratch, and the theorem algorithm's Γ-enumeration state —
// so that steady-state inference (compile once, estimate on every new
// window) allocates nothing.
//
// Ownership rules: a compiled plan (Structure, LinearPlan, TheoremPlan) is
// shared and immutable; a Workspace is the opposite — single-goroutine and
// mutable. One goroutine may reuse one workspace across any number of calls
// and across different plans (buffers grow monotonically), but concurrent
// use of one workspace is a bug, detected and reported by panic. Results
// returned by the ...In methods alias workspace (and plan) storage: they
// are read-only and valid only until the next call on the same workspace.
// Result.Clone and TheoremResult.Clone detach a result that must outlive
// that.
type Workspace struct {
	busy atomic.Int32

	la linalg.Workspace
	lp lp.Workspace

	// EvaluateIn state: the right-hand sides and equations of the last
	// system, and the probe scratch for sources without the fast pair path.
	ys      []float64
	eqs     []Equation
	sys     EquationSystem
	pathSet *bitset.Set

	// Resume state: the selection resumed at a row that measures unusable,
	// its link-set scratch, and the rank trackers that continue from the
	// compiled tracker's rows.
	sel   selection
	union bitset.Set
	flt   floatTracker
	gf2   gf2Tracker

	// Solver scratch.
	mat linalg.Matrix
	y   []float64
	res Result

	// Theorem scratch.
	thm theoremWorkspace
}

// NewWorkspace returns an empty workspace. The zero value is also ready to
// use.
func NewWorkspace() *Workspace { return &Workspace{} }

// acquire flags the workspace busy, panicking if another goroutine already
// holds it — concurrent use would silently corrupt results, so it is a
// loudly reported programming error, caught deterministically even when the
// race detector is off.
func (ws *Workspace) acquire() {
	if !ws.busy.CompareAndSwap(0, 1) {
		panic("core: Workspace used concurrently by multiple goroutines; use one workspace per goroutine")
	}
}

func (ws *Workspace) release() { ws.busy.Store(0) }

// EvaluateIn fills the compiled structure's right-hand side from a
// measurement source and returns the equation system that the Section-4
// selection makes with the data in hand. It probes the compiled
// selection's accepted rows in stream order; while each measures above
// minProb, that is one probability lookup per row, with no enumeration or
// rank tracking. At the first row that does not, the selection is resumed
// from that row: its rank tracker reads the compiled tracker's rows
// accepted before it in place and keeps the rows it accepts next, like the
// rest of the resumed selection, in workspace storage. Nothing of a resume
// outlives the call, so an estimate on a healthy source never pays for an
// earlier one on a source with a dead path.
//
// The returned system's equations alias the topology's, the structure's
// and the workspace's storage — read-only, valid until the next call on
// ws.
func (s *Structure) EvaluateIn(ws *Workspace, src measure.Source) (*EquationSystem, error) {
	ws.acquire()
	defer ws.release()
	return s.evaluateIn(ws, src)
}

// evaluateIn is the non-guarded core of EvaluateIn, shared with RunIn.
func (s *Structure) evaluateIn(ws *Workspace, src measure.Source) (*EquationSystem, error) {
	if src.NumPaths() != s.top.NumPaths() {
		return nil, fmt.Errorf("core: source has %d paths, topology %d", src.NumPaths(), s.top.NumPaths())
	}
	// The measure package's own source is asserted by its concrete type
	// first. That compiles to a type comparison, while an interface-to-
	// interface assertion calls into the runtime, which allocates its
	// per-call-site cache on a randomly chosen call: an allocation at an
	// arbitrary estimate.
	var fast measure.FastPairSource
	var bp measure.BatchPairSource
	if e, ok := src.(*measure.Empirical); ok {
		fast, bp = e, e
	} else {
		fast, _ = src.(measure.FastPairSource)
		bp, _ = src.(measure.BatchPairSource)
	}
	if bp != nil && len(s.pairs) > 0 {
		// One cache-blocked pass over the path columns resolves every pair
		// row's probability; the per-row lookups below then hit the
		// source's cache.
		bp.PrimePairs(s.pairs)
	}
	sel := &s.compiled
	ws.ys = ws.ys[:0]
	for a, q := range sel.accepted {
		p := ws.prob(src, fast, &s.stream[q])
		if p <= minProb {
			// The compiled selection breaks at q: resume from there.
			sel = ws.resume(&s.compiled, a)
			basis := s.basis.resume(ws, int(s.compiled.rankBefore[a]))
			ws.ys = s.selectFrom(sel, basis, &ws.union, int(q), ws.ys, func(c *candidate) float64 { return ws.prob(src, fast, c) })
			break
		}
		ws.ys = append(ws.ys, math.Log(p))
	}

	sys := &ws.sys
	n := len(sel.accepted)
	ws.eqs = scratch.Grow(ws.eqs, n)
	sys.Equations = nil
	if n > 0 {
		sys.Equations = ws.eqs
	}
	for i, q := range sel.accepted {
		sys.Equations[i] = Equation{Links: sel.links[i], Y: ws.ys[i], Paths: s.stream[q].pathIDs()}
	}
	sys.NumLinks = s.top.NumLinks()
	sys.SinglePathEqs = sel.singleEqs
	sys.PairEqs = sel.pairEqs
	sys.Rank = sel.rank
	sys.Covered = sel.covered
	sys.SkippedZeroProb = sel.dropped
	return sys, nil
}

// resume returns the workspace's selection holding the first a accepted
// rows of compiled and nothing dropped.
func (ws *Workspace) resume(compiled *selection, a int) *selection {
	sel := &ws.sel
	sel.accepted = append(sel.accepted[:0], compiled.accepted[:a]...)
	sel.links = append(sel.links[:0], compiled.links[:a]...)
	sel.rankBefore = append(sel.rankBefore[:0], compiled.rankBefore[:a]...)
	sel.dropped = 0
	sel.nOwn = 0
	return sel
}

// prob returns the measured probability that every path of c is good,
// through the source's single-path and pair fast path when it has one.
func (ws *Workspace) prob(src measure.Source, fast measure.FastPairSource, c *candidate) float64 {
	if fast != nil {
		if c.n == 1 {
			return fast.ProbPathGood(c.paths[0])
		}
		return fast.ProbPairGood(c.paths[0], c.paths[1])
	}
	if ws.pathSet == nil {
		ws.pathSet = bitset.New(src.NumPaths())
	}
	ws.pathSet.Clear()
	for _, p := range c.pathIDs() {
		ws.pathSet.Add(int(p))
	}
	return src.ProbPathsGood(ws.pathSet)
}

// Clone returns a deep copy of the result — the way to retain a
// workspace-owned result (RunIn) beyond the workspace's next use.
func (r *Result) Clone() *Result {
	return &Result{
		CongestionProb: append([]float64(nil), r.CongestionProb...),
		LogGoodProb:    append([]float64(nil), r.LogGoodProb...),
		System:         cloneSystem(r.System),
		Solver:         r.Solver,
	}
}

// Clone returns a deep copy of the theorem result — the way to retain a
// workspace-owned result (TheoremPlan.RunIn) beyond the workspace's next
// use.
func (r *TheoremResult) Clone() *TheoremResult {
	out := &TheoremResult{
		CongestionProb: append([]float64(nil), r.CongestionProb...),
		Alpha:          make(map[string]float64, len(r.Alpha)),
		Subsets:        make([]*bitset.Set, len(r.Subsets)),
		ProbSetEmpty:   append([]float64(nil), r.ProbSetEmpty...),
		JointProb:      make(map[string]float64, len(r.JointProb)),
	}
	for k, v := range r.Alpha {
		out.Alpha[k] = v
	}
	for k, v := range r.JointProb {
		out.JointProb[k] = v
	}
	for i, s := range r.Subsets {
		out.Subsets[i] = s.Clone()
	}
	return out
}

// cloneSystem deep-copies an equation system: cloned link sets, copied
// path lists.
func cloneSystem(sys *EquationSystem) *EquationSystem {
	if sys == nil {
		return nil
	}
	out := &EquationSystem{
		NumLinks:        sys.NumLinks,
		Equations:       make([]Equation, len(sys.Equations)),
		SinglePathEqs:   sys.SinglePathEqs,
		PairEqs:         sys.PairEqs,
		Rank:            sys.Rank,
		SkippedZeroProb: sys.SkippedZeroProb,
	}
	if sys.Covered != nil {
		out.Covered = sys.Covered.Clone()
	}
	for i := range sys.Equations {
		eq := &sys.Equations[i]
		out.Equations[i] = Equation{
			Links: eq.Links.Clone(),
			Y:     eq.Y,
			Paths: append([]topology.PathID{}, eq.Paths...),
		}
	}
	return out
}

// RunIn evaluates the compiled plan against a measurement source and
// solves the system: exactly when it has full rank, by the L1 completion
// of Section 4 when it is underdetermined. Zero steady-state allocations.
// The result (including its System) aliases workspace and plan storage —
// read-only, valid until the next call on ws; Clone detaches it.
func (p *LinearPlan) RunIn(ws *Workspace, src measure.Source) (*Result, error) {
	ws.acquire()
	defer ws.release()
	sys, err := p.structure.evaluateIn(ws, src)
	if err != nil {
		return nil, err
	}
	return solveSystemIn(ws, sys, p.opts)
}

// solveSystemIn solves a built equation system with the configured
// completion strategy on workspace storage: the matrix is materialized into
// reused memory, the completion strategies run through the workspace's
// linalg/LP scratch, and the result buffers are recycled.
func solveSystemIn(ws *Workspace, sys *EquationSystem, opts Options) (*Result, error) {
	if len(sys.Equations) == 0 {
		return nil, fmt.Errorf("core: no usable equations (all admissible observations had zero good-probability)")
	}

	a, y := ws.matrix(sys)
	nl := sys.NumLinks
	var x []float64
	var err error
	var kind SolverKind

	switch {
	case opts.UseAllEquations:
		x, err = nil, linalg.ErrSingular
		if a.Rows >= nl && sys.Rank == nl {
			x, err = ws.la.LeastSquares(a, y)
		}
		kind = SolverLeastSquares
		if err != nil {
			x, err = ws.la.MinNormSolve(a, y)
			kind = SolverMinNorm
		}
	case sys.Rank == nl:
		// Full rank: the selected rows form an invertible square system.
		x, err = ws.la.SolveLU(a, y)
		kind = SolverSquare
		if err != nil {
			// Numerically borderline; fall back to min-norm which handles it.
			x, err = ws.la.MinNormSolve(a, y)
			kind = SolverMinNorm
		}
	default:
		// Underdetermined: L1-residual-minimal completion under x ≤ 0
		// (Section 4), with min-norm fallback for very large systems or LP
		// failure.
		if nl <= maxLPSize && !opts.ForceMinNorm {
			x, err = ws.lp.MinimizeL1ResidualNonPositive(a, y)
			kind = SolverL1
			if err != nil {
				x, err = ws.la.MinNormSolve(a, y)
				kind = SolverMinNorm
			}
		} else {
			x, err = ws.la.MinNormSolve(a, y)
			kind = SolverMinNorm
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: solving the equation system: %w", err)
	}

	res := &ws.res
	res.CongestionProb = scratch.Grow(res.CongestionProb, nl)
	res.LogGoodProb = scratch.Grow(res.LogGoodProb, nl)
	res.System = sys
	res.Solver = kind
	for k := 0; k < nl; k++ {
		xv := x[k]
		if xv > 0 {
			xv = 0 // log-probabilities cannot be positive
		}
		res.LogGoodProb[k] = xv
		p := 1 - math.Exp(xv)
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		res.CongestionProb[k] = p
	}
	return res, nil
}

// matrix materializes sys as (A, y) for the solvers, into workspace
// storage.
func (ws *Workspace) matrix(sys *EquationSystem) (*linalg.Matrix, []float64) {
	ws.mat.Reshape(len(sys.Equations), sys.NumLinks)
	ws.mat.Zero()
	ws.y = scratch.Grow(ws.y, len(sys.Equations))
	for i := range sys.Equations {
		eq := &sys.Equations[i]
		row := ws.mat.Row(i)
		eq.Links.ForEach(func(k int) bool {
			row[k] = 1
			return true
		})
		ws.y[i] = eq.Y
	}
	return &ws.mat, ws.y
}
