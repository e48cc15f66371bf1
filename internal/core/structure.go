package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/measure"
	"repro/internal/topology"
)

// Candidate is one equation selected by the structural compile phase: the
// link set of a single admissible path or of an admissible pair union, plus
// the paths whose joint good-probability forms the equation's right-hand
// side.
type Candidate struct {
	// Links is the equation's link set (row of the A matrix).
	Links *bitset.Set
	// Paths are the involved paths (one for a single-path equation, two for
	// a pair equation).
	Paths []topology.PathID
	// Pair reports whether this is a pair equation (Eq. 10 vs Eq. 9).
	Pair bool
}

// Structure is the compiled structural phase of the Section-4 equation
// selection for one (topology, BuildOptions) pair: the admissible candidates
// that the selection accepts when every accepted observation is usable, in
// acceptance order, together with the resulting rank and link coverage.
//
// Everything in a Structure depends only on the topology and the structural
// options — not on measured data — so one Structure can be evaluated against
// any number of measurement sources (new records, streaming appends, batch
// trials) with EvaluateIn. A Structure is immutable after CompileStructure
// returns and therefore safe for concurrent use by multiple goroutines.
type Structure struct {
	top  *topology.Topology
	opts BuildOptions

	accepted  []Candidate
	singleEqs int
	pairEqs   int
	rank      int
	covered   *bitset.Set
	// pairs lists every accepted pair equation's path pair, in acceptance
	// order — the precomputed query set of the batched pair-count kernel
	// (measure.BatchPairSource.PrimePairs).
	pairs []measure.Pair
}

// CompileStructure runs the source-independent part of BuildEquations: it
// enumerates the admissible single-path and pair candidates in the fused
// selection's order and records the ones that rank tracking accepts,
// assuming every accepted observation has a usable (> MinProb) measured
// probability. EvaluateIn detects the rare violation of that assumption and
// transparently replays the fused selection, so Compile+EvaluateIn is
// always bit-identical to BuildEquations.
func CompileStructure(top *topology.Topology, opts BuildOptions) (*Structure, error) {
	opts.fill(top)
	if len(opts.SetOf) != top.NumLinks() {
		return nil, fmt.Errorf("core: SetOf has %d entries, want %d", len(opts.SetOf), top.NumLinks())
	}

	nl := top.NumLinks()
	s := &Structure{top: top, opts: opts, covered: bitset.New(nl)}
	basis := newRankTracker(nl, &opts)

	done := func() bool {
		if opts.CollectAll {
			return len(s.accepted) >= opts.MaxEquations
		}
		return basis.full()
	}

	err := enumerateCandidates(top, &opts, func(links *bitset.Set, pair bool, paths ...topology.PathID) bool {
		if opts.CollectAll || basis.wouldIncrease(links) {
			basis.add(links)
			s.accepted = append(s.accepted, Candidate{
				Links: links.Clone(),
				Paths: append([]topology.PathID{}, paths...),
				Pair:  pair,
			})
			if pair {
				s.pairEqs++
				s.pairs = append(s.pairs, measure.Pair{A: int(paths[0]), B: int(paths[1])})
			} else {
				s.singleEqs++
			}
			s.covered.UnionWith(links)
		}
		return !done()
	})
	if err != nil {
		return nil, err
	}

	s.rank = basis.rank()
	return s, nil
}

// Topology returns the topology the structure was compiled for.
func (s *Structure) Topology() *topology.Topology { return s.top }

// NumEquations returns the number of precollected equations.
func (s *Structure) NumEquations() int { return len(s.accepted) }

// Rank returns the precomputed rank of the selected system.
func (s *Structure) Rank() int { return s.rank }

// Candidates returns the accepted candidates in selection order. The slice
// and its link sets are shared with the structure and must not be mutated.
func (s *Structure) Candidates() []Candidate { return s.accepted }

// LinearPlan couples a compiled equation structure with the solver options
// of one of the practical algorithms (correlation or independence).
type LinearPlan struct {
	structure *Structure
	opts      Options
}

// CompileLinear compiles the structural phase of the practical algorithms
// for a topology: the paper's correlation-aware selection when identity is
// false (Correlation), the Nguyen–Thiran identity partition when true
// (Independence). The returned plan is immutable and safe for concurrent
// RunIn calls, each on its own workspace.
func CompileLinear(top *topology.Topology, identity bool, opts Options) (*LinearPlan, error) {
	opts.fill()
	structure, err := CompileStructure(top, buildOptions(top, identity, opts))
	if err != nil {
		return nil, err
	}
	return &LinearPlan{structure: structure, opts: opts}, nil
}

// buildOptions maps algorithm Options onto the equation-selection options,
// with the identity partition substituted for the topology's correlation
// sets when requested.
func buildOptions(top *topology.Topology, identity bool, opts Options) BuildOptions {
	var setOf []int
	if identity {
		setOf = make([]int, top.NumLinks())
		for k := range setOf {
			setOf[k] = k
		}
	}
	return BuildOptions{
		SetOf:             setOf,
		MinProb:           opts.MinProb,
		MaxPairCandidates: opts.MaxPairCandidates,
		CollectAll:        opts.UseAllEquations,
		DisablePairs:      opts.DisablePairs,
		PathFilter:        opts.PathFilter,
	}
}

// Structure returns the plan's compiled equation structure.
func (p *LinearPlan) Structure() *Structure { return p.structure }
