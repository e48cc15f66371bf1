package core

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/measure"
	"repro/internal/scratch"
	"repro/internal/topology"
)

// TheoremResult is the output of the exact Appendix-A algorithm.
type TheoremResult struct {
	// CongestionProb[k] is the recovered P(Xek = 1).
	CongestionProb []float64
	// Alpha maps each correlation subset (by its bitset key) to its
	// congestion factor αA = P(Sᵖ = A)/P(Sᵖ = ∅).
	Alpha map[string]float64
	// Subsets lists the correlation subsets in the computation order
	// (ascending |ψ(A)|), for inspection and tests.
	Subsets []*bitset.Set
	// ProbSetEmpty[p] is the recovered P(Sᵖ = ∅) for each correlation set.
	ProbSetEmpty []float64
	// JointProb maps a correlation subset key to the recovered probability
	// that exactly the links of that subset are the congested links of its
	// correlation set, P(Sᵖ = A) (Lemma 3).
	JointProb map[string]float64
}

// maxSubsetsPerSet caps the 2^|Cp| subset enumeration per correlation set:
// sets of up to 12 links.
const maxSubsetsPerSet = 4096

// corrSubset is one correlation subset A ∈ C̃ with its path coverage.
type corrSubset struct {
	set      int
	links    *bitset.Set
	coverage *bitset.Set
	key      string
	// ord is the subset's index in the |ψ(A)|-ascending computation order —
	// the workspace path's slice-indexed replacement for the alpha map.
	ord int
}

// TheoremPlan is the compiled structural phase of the exact algorithm:
// everything that depends only on the topology — the correlation subsets C̃
// with their path coverages, the Assumption-4 validation, the |ψ(A)|
// computation order, and each subset's per-set Γ-candidate lists. One plan
// serves any number of RunIn calls over different pattern sources; it is
// immutable after CompileTheorem returns and safe for concurrent use.
type TheoremPlan struct {
	top *topology.Topology
	// none is the empty path set: the all-good pattern the data phase
	// divides by.
	none    *bitset.Set
	subsets []*corrSubset   // ordered by |ψ(A)| ascending
	bySet   [][]*corrSubset // per correlation set, enumeration order
	// gammaCands[ai][p] lists, for ordered subset ai and correlation set p,
	// the states of set p whose coverage fits inside ψ(A) — the structural
	// filter of the Γ enumeration (Eq. 18), hoisted out of the data phase.
	gammaCands [][][]gammaCand
}

// gammaCand is one precomputed Γ-enumeration state: a correlation subset
// admissible for the current target, with isA marking the target state
// itself (whose factor is 1 on the ΓA side rather than an α).
type gammaCand struct {
	sub *corrSubset
	isA bool
}

// CompileTheorem runs the source-independent part of the exact algorithm:
// subset enumeration, the Assumption-4 check, the computation ordering, and
// the per-subset Γ-candidate lists.
func CompileTheorem(top *topology.Topology) (*TheoremPlan, error) {
	var subsets []*corrSubset
	bySet := make([][]*corrSubset, top.NumSets())
	for p := 0; p < top.NumSets(); p++ {
		elems := top.CorrelationSet(p).Indices()
		if len(elems) > 30 || 1<<uint(min(len(elems), 30)) > maxSubsetsPerSet {
			return nil, fmt.Errorf("core: correlation set %d has %d links (2^%d subsets exceeds the cap %d); the theorem algorithm is exponential — use Correlation instead",
				p, len(elems), len(elems), maxSubsetsPerSet)
		}
		bitset.EnumerateSubsets(elems, func(s *bitset.Set) bool {
			sub := &corrSubset{set: p, links: s.Clone(), coverage: top.Coverage(s)}
			sub.key = sub.links.Key()
			subsets = append(subsets, sub)
			bySet[p] = append(bySet[p], sub)
			return true
		})
	}

	// Assumption 4: coverages must be pairwise distinct.
	seenCov := make(map[string]*corrSubset, len(subsets))
	for _, s := range subsets {
		ck := s.coverage.Key()
		if prev, ok := seenCov[ck]; ok {
			return nil, fmt.Errorf("core: Assumption 4 violated: correlation subsets %v and %v cover the same paths %v",
				prev.links, s.links, s.coverage)
		}
		seenCov[ck] = s
	}

	// Order by |ψ(A)| ascending (the partial order T of the Appendix).
	sort.SliceStable(subsets, func(i, j int) bool {
		return subsets[i].coverage.Len() < subsets[j].coverage.Len()
	})
	for i, s := range subsets {
		s.ord = i
	}

	pl := &TheoremPlan{top: top, none: bitset.New(top.NumPaths()), subsets: subsets, bySet: bySet}
	pl.gammaCands = make([][][]gammaCand, len(subsets))
	for ai, a := range subsets {
		perSet := make([][]gammaCand, len(bySet))
		for p := range bySet {
			for _, s := range bySet[p] {
				if !s.coverage.IsSubsetOf(a.coverage) {
					continue
				}
				perSet[p] = append(perSet[p], gammaCand{sub: s, isA: p == a.set && s.key == a.key})
			}
		}
		pl.gammaCands[ai] = perSet
	}
	return pl, nil
}

// Topology returns the topology the plan was compiled for.
func (pl *TheoremPlan) Topology() *topology.Topology { return pl.top }

// theoremWorkspace is the exact algorithm's per-run scratch: α factors by
// computation order, the Γ-enumeration option lists and per-depth coverage
// unions, and the reused result (whose maps are cleared, not reallocated —
// their keys are the plan's interned subset keys, so steady-state refills
// allocate nothing).
type theoremWorkspace struct {
	alpha    []float64
	options  [][]gammaOption
	cover    []*bitset.Set // per-recursion-depth coverage-union scratch
	target   *bitset.Set   // ψ(A) of the subset being solved
	numSets  int
	gammaA   float64
	gammaBar float64
	res      TheoremResult
}

// gammaOption is one admissible per-set state of the Γ enumeration: a
// coverage (nil for the empty state), the state's α factor (1 for ∅ and for
// the target state A), and whether it is A itself.
type gammaOption struct {
	coverage *bitset.Set
	factor   float64
	isA      bool
}

// RunIn runs the data-dependent phase of the constructive algorithm
// extracted from the proof of Theorem 1 against a pattern source (exact or
// empirical estimates of P(ψ(S) = Q)). The plan's topology satisfies
// Assumption 4 (CompileTheorem checks it). The computation follows the
// Appendix step by step:
//
//  1. the correlation subsets C̃, ordered by |ψ(A)|, come from the plan;
//  2. for each A in order, enumerate the network states Sn with
//     ψ(Sn) = ψ(A), split them by whether Sqn = A, and solve Eq. 18
//     αA = (P(ψ(S)=ψ(A))/P(ψ(S)=∅) − ΓĀ)/ΓA, where ΓA and ΓĀ only involve
//     congestion factors already computed (Lemma 1);
//  3. recover P(Sᵖ = ∅) = 1/(1 + Σ αA) and P(Sᵖ = A) = αA·P(Sᵖ = ∅), then
//     P(Xek = 1) = Σ_{A ∋ ek} P(Sᵖ = A) (Lemma 3).
//
// Zero steady-state allocations on an Empirical source. The result aliases
// workspace and plan storage — read-only, valid until the next call on ws;
// Clone detaches it.
func (pl *TheoremPlan) RunIn(ws *Workspace, src measure.PatternSource) (*TheoremResult, error) {
	ws.acquire()
	defer ws.release()
	tw := &ws.thm
	top := pl.top
	if src.NumPaths() != top.NumPaths() {
		return nil, fmt.Errorf("core: source has %d paths, topology %d", src.NumPaths(), top.NumPaths())
	}

	p0 := src.ProbExactCongestedPaths(pl.none)
	if p0 <= 0 {
		return nil, fmt.Errorf("core: P(all paths good) = %v; the theorem algorithm needs a positive all-good probability", p0)
	}

	tw.alpha = scratch.Grow(tw.alpha, len(pl.subsets))
	tw.numSets = len(pl.bySet)
	if cap(tw.options) < tw.numSets {
		tw.options = make([][]gammaOption, tw.numSets)
	}
	tw.options = tw.options[:tw.numSets]
	for len(tw.cover) < tw.numSets+1 {
		tw.cover = append(tw.cover, bitset.New(top.NumPaths()))
	}

	res := &tw.res
	res.CongestionProb = scratch.Grow(res.CongestionProb, top.NumLinks())
	for k := range res.CongestionProb {
		res.CongestionProb[k] = 0
	}
	res.ProbSetEmpty = scratch.Grow(res.ProbSetEmpty, top.NumSets())
	res.Subsets = res.Subsets[:0]
	if res.Alpha == nil {
		res.Alpha = make(map[string]float64, len(pl.subsets))
	} else {
		clear(res.Alpha)
	}
	if res.JointProb == nil {
		res.JointProb = make(map[string]float64, len(pl.subsets))
	} else {
		clear(res.JointProb)
	}

	for ai, a := range pl.subsets {
		res.Subsets = append(res.Subsets, a.links)
		gammaA, gammaBar, err := pl.gammaTerms(tw, ai)
		if err != nil {
			return nil, err
		}
		if gammaA <= 0 {
			return nil, fmt.Errorf("core: ΓA = %v for subset %v; cannot solve Eq. 18", gammaA, a.links)
		}
		lhs := src.ProbExactCongestedPaths(a.coverage) / p0
		av := (lhs - gammaBar) / gammaA
		if av < 0 {
			av = 0 // estimation noise can push a tiny factor below zero
		}
		tw.alpha[ai] = av
		res.Alpha[a.key] = av
	}

	// Lemma 3: recover P(Sᵖ=∅), P(Sᵖ=A) and the per-link marginals.
	for p := 0; p < top.NumSets(); p++ {
		sum := 0.0
		for _, s := range pl.bySet[p] {
			sum += tw.alpha[s.ord]
		}
		pEmpty := 1 / (1 + sum)
		res.ProbSetEmpty[p] = pEmpty
		for _, s := range pl.bySet[p] {
			joint := tw.alpha[s.ord] * pEmpty
			res.JointProb[s.key] = joint
			s.links.ForEach(func(k int) bool {
				res.CongestionProb[k] += joint
				return true
			})
		}
	}
	for k, v := range res.CongestionProb {
		if v > 1 {
			res.CongestionProb[k] = 1
		}
	}
	return res, nil
}

// gammaTerms enumerates the network states Sn with ψ(Sn) = ψ(A) and returns
//
//	ΓA = Σ_{Sn: Sqn = A} Π_{p≠q} α(Spn)
//	ΓĀ = Σ_{Sn: Sqn ≠ A} Π_p   α(Spn)
//
// with α(∅) = 1. All other α's needed were computed at an earlier ordinal,
// guaranteed by the |ψ(A)| ordering (Lemma 1). The admissible states per
// set were precomputed at compile time; only the α factors are data. The
// enumeration runs entirely on workspace scratch: option lists are rebuilt
// in place and the per-depth coverage unions reuse one bitset per level.
func (pl *TheoremPlan) gammaTerms(tw *theoremWorkspace, ai int) (gammaA, gammaBar float64, err error) {
	a := pl.subsets[ai]
	for p := range pl.bySet {
		opts := tw.options[p][:0]
		opts = append(opts, gammaOption{factor: 1})
		for _, c := range pl.gammaCands[ai][p] {
			if c.isA {
				opts = append(opts, gammaOption{coverage: c.sub.coverage, factor: 1, isA: true})
				continue
			}
			if c.sub.ord >= ai {
				return 0, 0, fmt.Errorf("core: internal error: α for subset %v needed before it was computed (ordering bug)", c.sub.links)
			}
			av := tw.alpha[c.sub.ord]
			if av == 0 {
				continue // contributes nothing to either sum
			}
			opts = append(opts, gammaOption{coverage: c.sub.coverage, factor: av})
		}
		tw.options[p] = opts
	}

	tw.target = a.coverage
	tw.gammaA, tw.gammaBar = 0, 0
	root := tw.cover[0]
	root.Clear()
	tw.gammaRec(0, root, 1, false)
	return tw.gammaA, tw.gammaBar, nil
}

// gammaRec walks the per-set state options depth-first, accumulating the ΓA
// and ΓĀ sums for states whose total coverage equals the target. The
// coverage union at depth p+1 lives in tw.cover[p+1], so recursion allocates
// nothing.
func (tw *theoremWorkspace) gammaRec(p int, covered *bitset.Set, prod float64, sawA bool) {
	if p == tw.numSets {
		if !covered.Equal(tw.target) {
			return
		}
		if sawA {
			tw.gammaA += prod
		} else {
			tw.gammaBar += prod
		}
		return
	}
	for i := range tw.options[p] {
		o := &tw.options[p][i]
		next := covered
		if o.coverage != nil && !o.coverage.IsEmpty() {
			next = tw.cover[p+1]
			next.CopyFrom(covered)
			next.UnionWith(o.coverage)
		}
		tw.gammaRec(p+1, next, prod*o.factor, sawA || o.isA)
	}
}
