package tomography

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/plan"
)

// EstimateOptions bundles the per-family tuning knobs an estimator may
// consume. Each estimator reads only its own field: the linear estimators
// (correlation, independence) read Algorithm, the composite-likelihood
// estimator reads MLE; the exact theorem algorithm has no knobs. The zero
// value is a sensible default for every estimator.
type EstimateOptions struct {
	// Algorithm tunes the practical linear algorithms.
	Algorithm Options
	// MLE tunes the composite-likelihood optimizer.
	MLE MLEOptions
}

// EstimateResult is the uniform output of every estimator.
// CongestionProb is always populated; exactly one of the family-specific
// fields carries the estimator's full native output.
type EstimateResult struct {
	// Estimator is the name of the estimator that produced the result.
	Estimator string
	// CongestionProb[k] is the inferred P(link k congested).
	CongestionProb []float64
	// Linear is the native output of the correlation and independence
	// estimators; nil otherwise.
	Linear *Result
	// Theorem is the native output of the theorem estimator; nil otherwise.
	Theorem *TheoremResult
	// MLE is the native output of the mle estimator; nil otherwise.
	MLE *MLEResult
}

// Workspace is the reusable evaluate-phase scratch of the estimators:
// equation right-hand sides, solver matrices, LP tableaus, MLE optimizer
// state, and the uniform result envelope. Plans stay shared and immutable;
// a workspace is the opposite — owned by one goroutine, reused across
// estimates (and across plans), mutated by every call. Concurrent use of
// one workspace is detected and reported by panic. Results returned
// through a workspace alias its storage: treat them as read-only and
// consume them before the workspace's next estimate. Estimate runs the same
// path on a pooled workspace and returns a detached copy.
type Workspace struct {
	ws  plan.Workspace
	res EstimateResult
}

// NewWorkspace returns a workspace for EstimateIn. Allocate one per
// goroutine (e.g. one per worker, or one per Window) and reuse it for every
// estimate that goroutine runs.
func NewWorkspace() *Workspace { return &Workspace{} }

// estimatorNames is the fixed, sorted set of estimators:
//   - "correlation", the paper's Section-4 correlation-aware algorithm;
//   - "independence", the Nguyen–Thiran uncorrelated-links baseline;
//   - "mle", the composite-likelihood maximum-likelihood estimator;
//   - "theorem", the exact Appendix-A algorithm.
var estimatorNames = [...]string{"correlation", "independence", "mle", "theorem"}

// EstimatorNames returns the names of the four estimators, sorted.
func EstimatorNames() []string { return append([]string(nil), estimatorNames[:]...) }

// knownEstimator reports whether name is one of the four estimators.
func knownEstimator(name string) bool { return slices.Contains(estimatorNames[:], name) }

// wsPool lends Estimate (and EvaluateBatch's workers) a workspace for the
// duration of one call.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// Estimate runs an estimator by name: the dynamic entry point used by
// tools that select estimators from configuration or flags, and the one
// allocating entry point of the library. It runs EstimateIn on a pooled
// workspace and returns a deep copy of the result, which the caller owns
// and may retain.
func Estimate(name string, plan *Plan, src *Empirical, opts EstimateOptions) (*EstimateResult, error) {
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	res, err := EstimateIn(ws, name, plan, src, opts)
	if err != nil {
		return nil, err
	}
	return res.clone(), nil
}

// clone deep-copies a workspace-owned result through the family results'
// own Clone methods.
func (r *EstimateResult) clone() *EstimateResult {
	out := &EstimateResult{Estimator: r.Estimator, CongestionProb: append([]float64(nil), r.CongestionProb...)}
	if r.Linear != nil {
		out.Linear = r.Linear.Clone()
	}
	if r.Theorem != nil {
		out.Theorem = r.Theorem.Clone()
	}
	if r.MLE != nil {
		out.MLE = r.MLE.Clone()
	}
	return out
}

// EstimateIn is Estimate running on a caller-owned workspace: the
// steady-state (compile once, estimate per window) form whose per-estimate
// allocations are zero. Results are bit-identical to Estimate but alias
// ws — read-only, valid until the next estimate on the same workspace.
func EstimateIn(ws *Workspace, name string, plan *Plan, src *Empirical, opts EstimateOptions) (*EstimateResult, error) {
	if !knownEstimator(name) {
		return nil, fmt.Errorf("tomography: unknown estimator %q (registered: %v)", name, EstimatorNames())
	}
	if plan == nil {
		return nil, fmt.Errorf("tomography: Estimate %q: nil plan (Compile the topology first)", name)
	}
	if ws == nil {
		return nil, fmt.Errorf("tomography: EstimateIn %q: nil workspace (use NewWorkspace)", name)
	}
	if src == nil {
		return nil, fmt.Errorf("tomography: EstimateIn %q: nil source", name)
	}
	res := EstimateResult{Estimator: name}
	var err error
	switch name {
	case "correlation":
		res.Linear, err = plan.CorrelationIn(&ws.ws, src, opts.Algorithm)
	case "independence":
		res.Linear, err = plan.IndependenceIn(&ws.ws, src, opts.Algorithm)
	case "theorem":
		res.Theorem, err = plan.TheoremIn(&ws.ws, src)
	case "mle":
		res.MLE, err = plan.MLEIn(&ws.ws, src, opts.MLE)
	}
	if err != nil {
		return nil, err
	}
	switch {
	case res.Linear != nil:
		res.CongestionProb = res.Linear.CongestionProb
	case res.Theorem != nil:
		res.CongestionProb = res.Theorem.CongestionProb
	default:
		res.CongestionProb = res.MLE.CongestionProb
	}
	ws.res = res
	return &ws.res, nil
}
