package tomography

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/measure"
	"repro/internal/mle"
	"repro/internal/plan"
)

// EstimateOptions bundles the per-family tuning knobs an estimator may
// consume. Each estimator reads only its own field: the linear estimators
// (correlation, independence) read Algorithm, the exact algorithm reads
// Theorem, the composite-likelihood estimator reads MLE. The zero value is
// a sensible default for every estimator.
type EstimateOptions struct {
	// Algorithm tunes the practical linear algorithms.
	Algorithm Options
	// Theorem tunes the exact algorithm.
	Theorem TheoremOptions
	// MLE tunes the composite-likelihood optimizer.
	MLE MLEOptions
}

// EstimateResult is the uniform output of every registered estimator.
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

// Estimator is one pluggable inference flavor over the shared measurement
// model: given a compiled plan for a topology and a measurement source, it
// infers every link's congestion probability. Implementations must be safe
// for concurrent use on distinct workspaces.
type Estimator interface {
	// Name is the estimator's registry key (e.g. "correlation").
	Name() string
	// EstimateIn runs inference through the compiled plan using ws for every
	// transient buffer. The result aliases ws.
	EstimateIn(ws *Workspace, plan *Plan, src Source, opts EstimateOptions) (*EstimateResult, error)
}

// Workspace is the reusable evaluate-phase scratch of the estimator
// registry: equation right-hand sides, solver matrices, LP tableaus, MLE
// optimizer state, and the uniform result envelope. Plans stay shared and
// immutable; a workspace is the opposite — owned by one goroutine, reused
// across estimates (and across plans), mutated by every call. Concurrent
// use of one workspace is detected and reported by panic. Results returned
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

var (
	registryMu sync.RWMutex
	registry   = map[string]Estimator{}
)

// RegisterEstimator adds an estimator to the registry under its Name. It
// panics on an empty name or a duplicate registration — estimator wiring is
// a program-initialization concern, like database/sql drivers.
func RegisterEstimator(e Estimator) {
	name := e.Name()
	if name == "" {
		panic("tomography: RegisterEstimator with empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("tomography: RegisterEstimator called twice for " + name)
	}
	registry[name] = e
}

// LookupEstimator returns the registered estimator with the given name.
func LookupEstimator(name string) (Estimator, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// EstimatorNames returns the names of all registered estimators, sorted.
func EstimatorNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// wsPool lends Estimate (and EvaluateBatch's workers) a workspace for the
// duration of one call.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// Estimate resolves an estimator by name and runs it: the dynamic entry
// point used by tools that select estimators from configuration or flags,
// and the one allocating entry point of the library. It runs EstimateIn on
// a pooled workspace and returns a deep copy of the result, which the
// caller owns and may retain.
func Estimate(name string, plan *Plan, src Source, opts EstimateOptions) (*EstimateResult, error) {
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
// allocations are zero for the built-in linear and theorem estimators.
// Results are bit-identical to Estimate but alias ws — read-only, valid
// until the next estimate on the same workspace.
func EstimateIn(ws *Workspace, name string, plan *Plan, src Source, opts EstimateOptions) (*EstimateResult, error) {
	e, ok := LookupEstimator(name)
	if !ok {
		return nil, fmt.Errorf("tomography: unknown estimator %q (registered: %v)", name, EstimatorNames())
	}
	if plan == nil {
		return nil, fmt.Errorf("tomography: Estimate %q: nil plan (Compile the topology first)", name)
	}
	if ws == nil {
		return nil, fmt.Errorf("tomography: EstimateIn %q: nil workspace (use NewWorkspace)", name)
	}
	return e.EstimateIn(ws, plan, src, opts)
}

// --- Built-in estimators. ---

func init() {
	RegisterEstimator(correlationEstimator{})
	RegisterEstimator(independenceEstimator{})
	RegisterEstimator(theoremEstimator{})
	RegisterEstimator(mleEstimator{})
}

// correlationEstimator runs the paper's Section-4 correlation-aware
// algorithm.
type correlationEstimator struct{}

func (correlationEstimator) Name() string { return "correlation" }

func (correlationEstimator) EstimateIn(ws *Workspace, plan *Plan, src Source, opts EstimateOptions) (*EstimateResult, error) {
	res, err := plan.CorrelationIn(&ws.ws, src, opts.Algorithm)
	if err != nil {
		return nil, err
	}
	ws.res = EstimateResult{
		Estimator:      "correlation",
		CongestionProb: res.CongestionProb,
		Linear:         res,
	}
	return &ws.res, nil
}

// independenceEstimator runs the Nguyen–Thiran uncorrelated-links baseline.
type independenceEstimator struct{}

func (independenceEstimator) Name() string { return "independence" }

func (independenceEstimator) EstimateIn(ws *Workspace, plan *Plan, src Source, opts EstimateOptions) (*EstimateResult, error) {
	res, err := plan.IndependenceIn(&ws.ws, src, opts.Algorithm)
	if err != nil {
		return nil, err
	}
	ws.res = EstimateResult{
		Estimator:      "independence",
		CongestionProb: res.CongestionProb,
		Linear:         res,
	}
	return &ws.res, nil
}

// theoremEstimator runs the exact Appendix-A algorithm. It needs
// congestion-pattern probabilities, so the source must implement
// PatternSource (Empirical does).
type theoremEstimator struct{}

func (theoremEstimator) Name() string { return "theorem" }

func (theoremEstimator) EstimateIn(ws *Workspace, plan *Plan, src Source, opts EstimateOptions) (*EstimateResult, error) {
	ps, ok := src.(measure.PatternSource)
	if !ok {
		return nil, fmt.Errorf("tomography: the theorem estimator needs exact congestion-pattern probabilities (measure.PatternSource); %T does not provide them", src)
	}
	res, err := plan.TheoremIn(&ws.ws, ps, opts.Theorem)
	if err != nil {
		return nil, err
	}
	ws.res = EstimateResult{
		Estimator:      "theorem",
		CongestionProb: res.CongestionProb,
		Theorem:        res,
	}
	return &ws.res, nil
}

// mleEstimator runs the composite-likelihood maximum-likelihood estimator.
// It needs per-path and per-pair good-frequencies, so the source must
// implement the fast pair queries (Empirical does).
type mleEstimator struct{}

func (mleEstimator) Name() string { return "mle" }

func (mleEstimator) EstimateIn(ws *Workspace, plan *Plan, src Source, opts EstimateOptions) (*EstimateResult, error) {
	ms, ok := src.(mle.Source)
	if !ok {
		return nil, fmt.Errorf("tomography: the mle estimator needs per-path and per-pair good-frequencies (FastPairSource); %T does not provide them", src)
	}
	res, err := plan.MLEIn(&ws.ws, ms, opts.MLE)
	if err != nil {
		return nil, err
	}
	ws.res = EstimateResult{
		Estimator:      "mle",
		CongestionProb: res.CongestionProb,
		MLE:            res,
	}
	return &ws.res, nil
}
