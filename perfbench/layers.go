package main

import (
	"time"

	tomography "repro"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/mle"
	"repro/internal/topology"
)

// tracedSource is the measurement source the traced decompositions hand to
// the core and mle layers: it forwards every query to the window's source
// and wraps the batched pair count, the measure layer's one bulk call, in
// a span.
type tracedSource struct {
	e     *tomography.Empirical
	rec   *recorder
	label string
	pairs int
}

func (s *tracedSource) NumPaths() int                             { return s.e.NumPaths() }
func (s *tracedSource) ProbPathsGood(p *bitset.Set) float64       { return s.e.ProbPathsGood(p) }
func (s *tracedSource) ProbPathGood(i topology.PathID) float64    { return s.e.ProbPathGood(i) }
func (s *tracedSource) ProbPairGood(i, j topology.PathID) float64 { return s.e.ProbPairGood(i, j) }

func (s *tracedSource) PrimePairs(pairs []measure.Pair) {
	id := s.rec.begin(s.label)
	s.e.PrimePairs(pairs)
	s.rec.end(id)
	s.pairs = len(pairs)
}

// Span names the decompositions record. primed marks a call made again on
// caches the previous call filled, recorded only to be subtracted.
const (
	spanPrime        = "measure.prime_pairs"
	spanPrimePrimed  = "measure.prime_pairs.primed"
	spanEvaluate     = "core.evaluate_in"
	spanRun          = "core.run_in"
	spanEvalPrimed   = "core.evaluate_in.primed"
	spanMLE          = "mle.estimate_in"
	spanObserve      = "window.observe"
	spanObserveWords = "window.observe_batch_words"
	spanView         = "window.view"
	spanShadowView   = "shadow.view"
	spanEstimateIn   = "window.estimate_in"
	spanDaemonEst    = "serve.estimate"
	spanHTTPPost     = "http.post"
)

// estimator is one traced decomposition of a registered estimator.
type estimator interface {
	estimate(rec *recorder, e *tomography.Empirical) ([]float64, error)
}

// linearTrace runs the correlation estimator as the facade does —
// Structure.EvaluateIn then the solve — through a separately compiled
// core.LinearPlan: EvaluateIn primes the pair caches, RunIn repeats the
// (now cached) evaluate and solves, and a final EvaluateIn on the primed
// caches measures what RunIn spent outside the solve.
type linearTrace struct {
	lp      *core.LinearPlan
	ws      *core.Workspace
	probs   []float64
	solvers map[core.SolverKind]int
	pairs   int
}

func newLinearTrace(top *tomography.Topology) (*linearTrace, error) {
	lp, err := core.CompileLinear(top, false, core.Options{})
	if err != nil {
		return nil, err
	}
	return &linearTrace{lp: lp, ws: core.NewWorkspace(), solvers: map[core.SolverKind]int{}}, nil
}

func (lt *linearTrace) estimate(rec *recorder, e *tomography.Empirical) ([]float64, error) {
	src := &tracedSource{e: e, rec: rec, label: spanPrime}
	var err error
	rec.call(spanEvaluate, func() { _, err = lt.lp.Structure().EvaluateIn(lt.ws, src) })
	if err != nil {
		return nil, err
	}
	lt.pairs = src.pairs
	src.label = spanPrimePrimed
	var res *core.Result
	rec.call(spanRun, func() { res, err = lt.lp.RunIn(lt.ws, src) })
	if err != nil {
		return nil, err
	}
	lt.probs = append(lt.probs[:0], res.CongestionProb...)
	lt.solvers[res.Solver]++
	rec.call(spanEvalPrimed, func() { _, err = lt.lp.Structure().EvaluateIn(lt.ws, src) })
	return lt.probs, err
}

// mleTrace runs the mle estimator through a separately compiled mle.Plan.
type mleTrace struct {
	p     *mle.Plan
	ws    *mle.Workspace
	probs []float64
	iters latencies
	pairs int
}

func newMLETrace(top *tomography.Topology) (*mleTrace, error) {
	p, err := mle.Compile(top)
	if err != nil {
		return nil, err
	}
	return &mleTrace{p: p, ws: mle.NewWorkspace()}, nil
}

func (mt *mleTrace) estimate(rec *recorder, e *tomography.Empirical) ([]float64, error) {
	src := &tracedSource{e: e, rec: rec, label: spanPrime}
	var res *mle.Result
	var err error
	rec.call(spanMLE, func() { res, err = mt.p.EstimateIn(mt.ws, src, mle.Options{}) })
	if err != nil {
		return nil, err
	}
	mt.pairs = src.pairs
	mt.iters = append(mt.iters, float64(res.Iters))
	mt.probs = append(mt.probs[:0], res.CongestionProb...)
	return mt.probs, nil
}

func newEstimatorTrace(name string, top *tomography.Topology) (estimator, error) {
	if name == "mle" {
		return newMLETrace(top)
	}
	return newLinearTrace(top)
}

// derived pairs the spans of one request: for every request holding both
// a and b it yields dur(a) − dur(b), in milliseconds.
func derived(spans []span, a, b string) latencies {
	da, db := map[int64]int64{}, map[int64]int64{}
	for _, s := range spans {
		switch s.Name {
		case a:
			da[s.Req] += s.dur()
		case b:
			db[s.Req] += s.dur()
		}
	}
	var out latencies
	for req, x := range da {
		if y, ok := db[req]; ok {
			out = append(out, float64(x-y)/1e6)
		}
	}
	return out
}

// sumDur totals the durations of every span named name under roots named
// root ("" for any root), in nanoseconds.
func sumDur(spans []span, root, name string) int64 {
	var t int64
	for i, s := range spans {
		if s.Name == name && (root == "" || spans[rootIndex(spans, i)].Name == root) {
			t += s.dur()
		}
	}
	return t
}

func rootIndex(spans []span, i int) int {
	for spans[i].Parent >= 0 {
		i = int(spans[i].Parent)
	}
	return i
}

// spanDurs returns the durations in milliseconds of every span named name
// under roots named root.
func spanDurs(spans []span, root, name string) latencies {
	var out latencies
	for i, s := range spans {
		if s.Name == name && spans[rootIndex(spans, i)].Name == root {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// compileMs times a full eager plan compile of the topology (the linear
// structures) plus the mle structure, median of five.
func compileMs(top *tomography.Topology) (float64, error) {
	var xs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := tomography.Compile(top, tomography.PlanOptions{}); err != nil {
			return 0, err
		}
		if _, err := mle.Compile(top); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return medianOf(xs), nil
}
