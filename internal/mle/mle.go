// Package mle implements a maximum-likelihood estimator of per-link
// congestion probabilities under the independence assumption — the style of
// inference used by the Boolean-tomography line of work the paper builds on
// (Nguyen & Thiran 2007 [12]; cf. the EM approaches of [17]).
//
// Under Assumption 2 and link independence, a path Pi is good in a snapshot
// with probability g_i = Π_{k∈Pi} q_k, where q_k = P(Xek = 0), and a pair of
// paths is jointly good with probability g_ij = Π_{k∈Pi∪Pj} q_k. Given the
// empirical good-frequencies of paths and of link-sharing path pairs over N
// snapshots, the composite log-likelihood is
//
//	L(q) = Σ_obs [ f·log g + (1 − f)·log(1 − g) ]
//
// which mle maximizes by projected gradient ascent over x_k = log q_k ≤ 0
// with backtracking line search. Pair observations carry the same extra
// identifiability that the paper's Section-4 pair equations provide (single
// paths alone generally underdetermine the links). The estimator complements
// the log-linear solver: identical information set, but observations are
// weighted by their binomial information content instead of all equations
// counting equally. Like every independence-based method, it is consistent
// when links are uncorrelated and biased when they are — the comparison the
// library's tests quantify.
package mle

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/measure"
	"repro/internal/scratch"
	"repro/internal/topology"
)

// Options tunes the optimizer.
type Options struct {
	// MaxIters bounds the gradient-ascent iterations (default 500).
	MaxIters int
}

const (
	// tol is the convergence threshold on the relative likelihood
	// improvement.
	tol = 1e-10
	// initialProb is the starting per-link congestion probability.
	initialProb = 0.05
)

// Result is the estimator output.
type Result struct {
	// CongestionProb[k] is the estimated P(Xek = 1).
	CongestionProb []float64
	// LogGoodProb[k] is the underlying x_k = log P(Xek = 0) ≤ 0.
	LogGoodProb []float64
	// LogLikelihood is the composite log-likelihood at the optimum
	// (per snapshot, i.e. divided by N).
	LogLikelihood float64
	// Iters is the number of gradient steps taken.
	Iters int
}

const (
	gClamp = 1e-9 // keep path-good probabilities inside (0, 1)
)

// Clone returns a deep copy of the result — the way to retain a
// workspace-owned result (EstimateIn) beyond the workspace's next use.
func (r *Result) Clone() *Result {
	return &Result{
		CongestionProb: append([]float64(nil), r.CongestionProb...),
		LogGoodProb:    append([]float64(nil), r.LogGoodProb...),
		LogLikelihood:  r.LogLikelihood,
		Iters:          r.Iters,
	}
}

// obs is one composite-likelihood observation: the link set whose q-product
// predicts the all-good frequency of a single path or a link-sharing path
// pair. Which frequency to query is structural; the frequency itself is
// data and is looked up per EstimateIn call.
type obs struct {
	links []int
	i, j  topology.PathID // j < 0 for a single-path observation
}

// Plan is the compiled structural phase of the estimator: the observation
// set (every path plus link-sharing pairs, capped at 2·|E|) and the
// observation↔link incidence in both directions. Everything here depends
// only on the topology, so one plan serves any number of EstimateIn calls;
// it is immutable after Compile returns and safe for concurrent use.
type Plan struct {
	top          *topology.Topology
	observations []obs
	pathsOf      [][]int // link → observation indices
	linksOf      [][]int // observation → link indices
	// pairs lists the pair observations' path pairs in observation order —
	// the precomputed query set of the batched pair-count kernel
	// (measure.Source.PrimePairs).
	pairs []measure.Pair
}

// Compile builds the estimator's observation structure for a topology.
//
// Pair deduplication uses one lazily allocated partner bitset per path (the
// same device the Section-4 candidate enumeration uses) instead of a boxed
// int64-keyed map: compile stays allocation-lean, and the observation order
// is a pure function of the topology's link order — deterministic by
// construction, with no map anywhere in the pipeline.
func Compile(top *topology.Topology) (*Plan, error) {
	if top == nil {
		return nil, fmt.Errorf("mle: nil topology")
	}
	nl := top.NumLinks()
	np := top.NumPaths()

	// Observations: every path, plus link-sharing path pairs (capped at
	// 2·|E|), each identifying the empirical all-good frequency to query
	// and the link set whose q-product predicts it.
	var observations []obs
	for i := 0; i < np; i++ {
		id := topology.PathID(i)
		observations = append(observations, obs{
			links: top.PathLinkSet(id).Indices(),
			i:     id, j: -1,
		})
	}
	paired := make([]*bitset.Set, np)
	var pairs []measure.Pair
	maxPairs := 2 * nl
	pairCount := 0
pairScan:
	for k := 0; k < nl; k++ {
		through := top.PathsThroughLink(topology.LinkID(k))
		for ai := 0; ai < len(through); ai++ {
			for bi := ai + 1; bi < len(through); bi++ {
				i, j := through[ai], through[bi]
				if paired[i] == nil {
					paired[i] = bitset.New(np)
				}
				if paired[i].Contains(int(j)) {
					continue
				}
				paired[i].Add(int(j))
				union := top.PathLinkSet(i).Clone()
				union.UnionWith(top.PathLinkSet(j))
				observations = append(observations, obs{
					links: union.Indices(),
					i:     i, j: j,
				})
				pairs = append(pairs, measure.Pair{A: int(i), B: int(j)})
				pairCount++
				if pairCount >= maxPairs {
					break pairScan
				}
			}
		}
	}

	// Observation-link incidence, both directions.
	pathsOf := make([][]int, nl)
	linksOf := make([][]int, len(observations))
	for oi, o := range observations {
		for _, l := range o.links {
			pathsOf[l] = append(pathsOf[l], oi)
		}
		linksOf[oi] = o.links
	}
	return &Plan{top: top, observations: observations, pathsOf: pathsOf, linksOf: linksOf, pairs: pairs}, nil
}

// Topology returns the topology the plan was compiled for.
func (p *Plan) Topology() *topology.Topology { return p.top }

// Workspace holds the optimizer's transient state — observation
// frequencies, the iterate, gradient, line-search trial, per-observation
// good-probabilities, and the reused result — so steady-state estimation
// allocates nothing. One goroutine may reuse one workspace across calls and
// plans (buffers grow monotonically); concurrent use of one workspace is
// detected and reported by panic. Results returned by EstimateIn alias
// workspace storage: read-only, valid until the next call on the same
// workspace.
type Workspace struct {
	busy atomic.Int32

	f     []float64 // observation good-frequencies
	x     []float64 // iterate: log q_k ≤ 0
	g     []float64 // per-observation good-probabilities (gradient pass)
	grad  []float64
	trial []float64
	res   Result
}

// NewWorkspace returns an empty workspace. The zero value is also ready to
// use.
func NewWorkspace() *Workspace { return &Workspace{} }

func (ws *Workspace) acquire() {
	if !ws.busy.CompareAndSwap(0, 1) {
		panic("mle: Workspace used concurrently by multiple goroutines; use one workspace per goroutine")
	}
}

func (ws *Workspace) release() { ws.busy.Store(0) }

// logG returns Σ_{k∈links(obs i)} x_k — the log of observation i's predicted
// good-probability.
func (p *Plan) logG(x []float64, i int) float64 {
	s := 0.0
	for _, k := range p.linksOf[i] {
		s += x[k]
	}
	return s
}

// likelihood evaluates the composite log-likelihood of iterate x against the
// observation frequencies f.
func (p *Plan) likelihood(x, f []float64) float64 {
	ll := 0.0
	for i := range p.observations {
		g := math.Exp(p.logG(x, i))
		if g > 1-gClamp {
			g = 1 - gClamp
		}
		if g < gClamp {
			g = gClamp
		}
		ll += f[i]*math.Log(g) + (1-f[i])*math.Log(1-g)
	}
	return ll
}

// EstimateIn fills the compiled observation structure's frequencies from
// the source and maximizes the composite likelihood. Every per-call and
// per-iteration buffer (frequencies, iterate, gradient, line-search trial,
// the per-observation g vector) lives in ws, and pair frequencies are
// resolved by one batched cache-blocked pass (measure.Source.PrimePairs).
// The result aliases ws and is valid until its next use; Clone detaches it.
func (p *Plan) EstimateIn(ws *Workspace, src measure.Source, opts Options) (*Result, error) {
	ws.acquire()
	defer ws.release()
	top := p.top
	if src.NumPaths() != top.NumPaths() {
		return nil, fmt.Errorf("mle: source has %d paths, topology %d", src.NumPaths(), top.NumPaths())
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 500
	}
	nl := top.NumLinks()

	if len(p.pairs) > 0 {
		src.PrimePairs(p.pairs)
	}
	nObs := len(p.observations)
	ws.f = scratch.Grow(ws.f, nObs)
	f := ws.f
	for oi := range p.observations {
		o := &p.observations[oi]
		if o.j < 0 {
			f[oi] = src.ProbPathGood(o.i)
		} else {
			f[oi] = src.ProbPairGood(o.i, o.j)
		}
	}
	pathsOf := p.pathsOf

	ws.x = scratch.Grow(ws.x, nl)
	x := ws.x // log q_k ≤ 0
	init := math.Log(1 - initialProb)
	for k := range x {
		x[k] = init
	}

	ll := p.likelihood(x, f)
	ws.grad = scratch.Grow(ws.grad, nl)
	ws.trial = scratch.Grow(ws.trial, nl)
	ws.g = scratch.Grow(ws.g, nObs)
	grad, trial, g := ws.grad, ws.trial, ws.g
	iters := 0
	step := 0.1
	for ; iters < opts.MaxIters; iters++ {
		// ∂L/∂x_k = Σ_{i ∋ k} [ f_i − (1−f_i)·g_i/(1−g_i) ]
		for i := 0; i < nObs; i++ {
			gi := math.Exp(p.logG(x, i))
			if gi > 1-gClamp {
				gi = 1 - gClamp
			}
			g[i] = gi
		}
		for k := 0; k < nl; k++ {
			s := 0.0
			for _, i := range pathsOf[k] {
				s += f[i] - (1-f[i])*g[i]/(1-g[i])
			}
			grad[k] = s
		}

		// Backtracking line search with projection onto x ≤ 0.
		improved := false
		for bt := 0; bt < 40; bt++ {
			for k := range trial {
				v := x[k] + step*grad[k]
				if v > 0 {
					v = 0
				}
				trial[k] = v
			}
			nll := p.likelihood(trial, f)
			if nll > ll {
				copy(x, trial)
				if nll-ll < tol*(math.Abs(ll)+1) {
					ll = nll
					improved = false // converged
					break
				}
				ll = nll
				improved = true
				step *= 1.3 // cautious growth after success
				break
			}
			step /= 2
			if step < 1e-14 {
				break
			}
		}
		if !improved {
			break
		}
	}

	res := &ws.res
	res.CongestionProb = scratch.Grow(res.CongestionProb, nl)
	res.LogGoodProb = x
	res.LogLikelihood = ll
	res.Iters = iters
	for k := 0; k < nl; k++ {
		p := 1 - math.Exp(x[k])
		if p < 0 {
			p = 0
		}
		res.CongestionProb[k] = p
	}
	return res, nil
}
