package core

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/measure"
	"repro/internal/topology"
)

// Structure is the compiled structural phase of the Section-4 equation
// selection for one topology, correlation partition and Options: the whole
// admissible candidate stream, and the selection made from it when every
// measured probability is usable, with the rank tracker that selection
// built.
//
// Everything in a Structure depends only on the topology and the structural
// options — not on measured data — so one Structure can be evaluated against
// any number of measurement sources (new records, streaming appends, batch
// trials) with EvaluateIn. A Structure is immutable after CompileStructure
// returns and therefore safe for concurrent use by multiple goroutines.
type Structure struct {
	top    *topology.Topology
	stream []candidate
	// collectAll keeps every usable candidate, independent or not, up to
	// 3·|E| rows (UseAllEquations).
	collectAll bool
	// compiled is the selection with every row usable, and basis the rank
	// tracker after it (read only). A resume reads basis's first rows.
	compiled selection
	basis    rankTracker
	// pairs lists the path pair of every pair row of compiled — the query
	// set of the batched pair-count kernel (measure.BatchPairSource).
	pairs []measure.Pair
}

// selection is the outcome of the Section-4 loop over a structure's stream:
// the stream positions of the rows it accepted, in stream order, with their
// link sets, and the number of rows it dropped for an unusable measured
// probability. Every other position before the loop stopped was skipped for
// not raising the rank. Which rows are probed depends only on the answers
// at earlier probed rows, so the compiled selection holds for every source
// whose accepted rows all measure usable.
type selection struct {
	accepted []int32
	links    []*bitset.Set
	// rankBefore[i] is the tracker's rank before accepted row i: i itself,
	// unless UseAllEquations accepted rows that did not raise the rank.
	rankBefore []int32
	dropped    int

	singleEqs, pairEqs int
	rank               int
	covered            *bitset.Set

	// own holds the link sets of the accepted pair rows, nOwn of them in
	// use; a reused selection keeps the rest for its next pair rows.
	own  []*bitset.Set
	nOwn int
}

// keep returns a copy of the link set u that the selection owns.
func (sel *selection) keep(u *bitset.Set) *bitset.Set {
	if sel.nOwn == len(sel.own) {
		sel.own = append(sel.own, &bitset.Set{})
	}
	s := sel.own[sel.nOwn]
	sel.nOwn++
	s.CopyFrom(u)
	return s
}

// selectFrom runs the Section-4 loop over the stream from position q on,
// after the rows sel already accepted and dropped (all before q), with
// basis holding the rank tracker after those rows and union as link-set
// scratch. A row that raises the rank (or every row, under collectAll) is
// probed: prob returns its measured all-good probability, and the row is
// dropped when that is at or below minProb and accepted otherwise, NaN
// included. The loop stops once the system has full rank (3·|E| rows under
// collectAll) or the stream ends. The log-probabilities of newly accepted
// rows are appended to ys, which selectFrom returns.
func (s *Structure) selectFrom(sel *selection, basis rankTracker, union *bitset.Set, q int, ys []float64, prob func(c *candidate) float64) []float64 {
	nl := s.top.NumLinks()
	for ; q < len(s.stream); q++ {
		c := &s.stream[q]
		links := linksOf(s.top, c, union)
		raises := !s.collectAll && basis.offer(links)
		if s.collectAll || raises {
			if p := prob(c); p <= minProb {
				sel.dropped++
			} else {
				sel.rankBefore = append(sel.rankBefore, int32(basis.rank()))
				if s.collectAll {
					raises = basis.offer(links)
				}
				if raises {
					basis.accept()
				}
				if links == union {
					links = sel.keep(union)
				}
				sel.accepted = append(sel.accepted, int32(q))
				sel.links = append(sel.links, links)
				ys = append(ys, math.Log(p))
			}
		}
		if s.collectAll && len(sel.accepted) >= 3*nl || !s.collectAll && basis.full() {
			break
		}
	}

	sel.rank = basis.rank()
	sel.singleEqs, sel.pairEqs = 0, 0
	if words := (nl + 63) / 64; sel.covered == nil || len(sel.covered.Words()) != words {
		sel.covered = bitset.New(nl)
	} else {
		sel.covered.Clear()
	}
	for i, a := range sel.accepted {
		if s.stream[a].n == 2 {
			sel.pairEqs++
		} else {
			sel.singleEqs++
		}
		sel.covered.UnionWith(sel.links[i])
	}
	return ys
}

// CompileStructure enumerates the admissible candidate stream for a
// topology — over the Nguyen–Thiran identity partition when identity is
// set, the topology's correlation sets otherwise — and runs the selection
// over it with every measured probability assumed usable. EvaluateIn
// checks that assumption against each source and resumes the selection at
// the first row where it fails, so Compile+EvaluateIn always equals the
// selection made with the data in hand.
func CompileStructure(top *topology.Topology, identity bool, opts Options) (*Structure, error) {
	nl := top.NumLinks()
	return compileStructure(top, identity, opts, newRankTracker(nl, nl > gf2RankThreshold))
}

// compileStructure is CompileStructure with the caller's empty rank tracker,
// which the structure keeps.
func compileStructure(top *topology.Topology, identity bool, opts Options, basis rankTracker) (*Structure, error) {
	setOf := make([]int, top.NumLinks())
	for k := range setOf {
		setOf[k] = k
		if !identity {
			setOf[k] = top.SetOf(topology.LinkID(k))
		}
	}
	stream, err := enumerateCandidates(top, setOf, &opts)
	if err != nil {
		return nil, err
	}
	s := &Structure{top: top, stream: stream, collectAll: opts.UseAllEquations, basis: basis}
	s.selectFrom(&s.compiled, basis, bitset.New(top.NumLinks()), 0, nil, func(*candidate) float64 { return 1 })
	for _, a := range s.compiled.accepted {
		if c := &s.stream[a]; c.n == 2 {
			s.pairs = append(s.pairs, measure.Pair{A: int(c.paths[0]), B: int(c.paths[1])})
		}
	}
	return s, nil
}

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
	structure, err := CompileStructure(top, identity, opts)
	if err != nil {
		return nil, err
	}
	return &LinearPlan{structure: structure, opts: opts}, nil
}

// Structure returns the plan's compiled equation structure.
func (p *LinearPlan) Structure() *Structure { return p.structure }
