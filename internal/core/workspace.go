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

	// EvaluateIn scratch.
	ys      []float64
	sys     EquationSystem
	pathSet *bitset.Set // probe scratch for sources without the fast pair path

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
// measurement source: one probability lookup per precollected equation, no
// candidate enumeration, no admissibility checks, no rank tracking. The
// result is bit-identical to BuildEquations(top, src, opts) on the same
// inputs.
//
// If any precollected observation turns out to be unusable (measured
// probability ≤ MinProb), the selection becomes source-dependent — a dropped
// row frees its slot for a later candidate — so EvaluateIn falls back to the
// fused BuildEquations, preserving bit-identical output at one-shot cost.
// That fallback system is freshly allocated; otherwise the returned
// system's equations alias the structure's candidate link sets and path
// lists and the workspace's RHS storage — read-only, valid until the next
// call on ws.
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
	fast, hasFast := src.(measure.FastPairSource)
	if bp, ok := src.(measure.BatchPairSource); ok && len(s.pairs) > 0 {
		// One cache-blocked pass over the path columns resolves every pair
		// equation's probability; the per-equation lookups below then hit the
		// source's cache.
		bp.PrimePairs(s.pairs)
	}
	ws.ys = scratch.Grow(ws.ys, len(s.accepted))
	for i := range s.accepted {
		c := &s.accepted[i]
		var prob float64
		switch {
		case hasFast && len(c.Paths) == 1:
			prob = fast.ProbPathGood(c.Paths[0])
		case hasFast && len(c.Paths) == 2:
			prob = fast.ProbPairGood(c.Paths[0], c.Paths[1])
		default:
			if ws.pathSet == nil {
				ws.pathSet = bitset.New(s.top.NumPaths())
			}
			ws.pathSet.Clear()
			for _, p := range c.Paths {
				ws.pathSet.Add(int(p))
			}
			prob = src.ProbPathsGood(ws.pathSet)
		}
		if prob <= s.opts.MinProb {
			// A precollected equation is unusable: replay the fused
			// selection, which re-decides every candidate with the data in
			// hand.
			return BuildEquations(s.top, src, s.opts)
		}
		ws.ys[i] = math.Log(prob)
	}

	sys := &ws.sys
	sys.NumLinks = s.top.NumLinks()
	if cap(sys.Equations) < len(s.accepted) {
		sys.Equations = make([]Equation, len(s.accepted))
	}
	sys.Equations = sys.Equations[:len(s.accepted)]
	for i := range s.accepted {
		c := &s.accepted[i]
		sys.Equations[i] = Equation{Links: c.Links, Y: ws.ys[i], Paths: c.Paths}
	}
	sys.SinglePathEqs = s.singleEqs
	sys.PairEqs = s.pairEqs
	sys.Rank = s.rank
	sys.Covered = s.covered
	sys.SkippedZeroProb = 0
	return sys, nil
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
// linalg/LP scratch, and the result buffers are recycled. opts must already
// be filled.
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
		if nl <= opts.MaxLPSize && !opts.ForceMinNorm {
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
