// Package core implements the paper's contribution: tomography algorithms
// that identify per-link congestion probabilities from end-to-end path
// measurements in the presence of correlated links.
//
// Three algorithms are provided, each compiled once per topology and then
// run on a Workspace against any number of measurement sources:
//
//   - correlation (CompileLinear with identity false, then RunIn) — the
//     practical algorithm of Section 4. It forms the log-linear system
//     y = A·x over x_k = log P(Xek = 0), using only paths and pairs of paths
//     that traverse at most one link per correlation set, and solves it
//     (exactly when full rank, by L1-norm minimization when
//     underdetermined).
//   - independence (CompileLinear with identity true) — the baseline of
//     Nguyen & Thiran (INFOCOM 2007) as used in the paper's evaluation: the
//     identical machinery with every link treated as its own correlation
//     set, so every path and pair qualifies.
//   - theorem (CompileTheorem, then TheoremPlan.RunIn) — the exact,
//     exponential algorithm extracted from the proof of Theorem 1
//     (Appendix A): compute congestion factors αA for every correlation
//     subset in path-coverage order, then recover all marginal and joint
//     congestion probabilities via Lemma 3.
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bitset"
	"repro/internal/linalg"
	"repro/internal/measure"
	"repro/internal/topology"
)

// Equation is one row of the log-linear system: Sum over Links of
// x_k equals Y, where Y = log P(all paths involved are good).
type Equation struct {
	Links *bitset.Set // link set (union of the involved paths' links)
	Y     float64     // log of the measured all-good probability
	Paths []topology.PathID
}

// EquationSystem is the set of linearly independent equations selected by
// the Section-4 procedure.
type EquationSystem struct {
	NumLinks  int
	Equations []Equation
	// SinglePathEqs and PairEqs count the equations from single paths (N1)
	// and pairs of paths (N2).
	SinglePathEqs, PairEqs int
	// Rank is the rank of the system (== len(Equations)).
	Rank int
	// Covered marks the links that appear in at least one equation.
	Covered *bitset.Set
	// SkippedZeroProb counts admissible path (or pair) observations that had
	// to be dropped because their measured all-good probability was ≤
	// MinProb (log undefined / hopelessly noisy).
	SkippedZeroProb int
}

// BuildOptions tunes equation selection.
type BuildOptions struct {
	// SetOf overrides the correlation structure: SetOf[k] is the correlation
	// group of link k. Nil means the topology's own correlation sets. The
	// Independence algorithm passes the identity partition here.
	SetOf []int
	// MinProb is the smallest usable measured probability; observations at
	// or below it are skipped (default 1e-9).
	MinProb float64
	// MaxPairCandidates caps how many pair equations are examined (default
	// 200000); the paper's procedure stops as soon as |E| equations are
	// gathered anyway.
	MaxPairCandidates int
	// CollectAll keeps admissible equations even when they do not increase
	// the rank, up to MaxEquations rows — the overdetermined formulation used
	// by the least-squares ablation. Off in the paper-faithful algorithm.
	CollectAll bool
	// MaxEquations caps the system size when CollectAll is set (default
	// 3·|E|).
	MaxEquations int
	// GF2RankThreshold: above this many links, rank tracking switches from
	// floating-point Gram–Schmidt to GF(2) XOR elimination, which is
	// dramatically faster and sound (GF(2)-independent ⇒ ℚ-independent) at
	// the cost of occasionally under-collecting an equation. Default 600.
	GF2RankThreshold int
	// DisablePairs skips the pair-equation step (Eq. 10) entirely — the
	// "pairs off" ablation quantifying how much the two-path observations
	// contribute to identifiability.
	DisablePairs bool
	// PathFilter, when non-nil, restricts equation formation to paths for
	// which it returns true (e.g. a training split for indirect validation).
	PathFilter func(topology.PathID) bool
}

func (o *BuildOptions) fill(top *topology.Topology) {
	if o.SetOf == nil {
		o.SetOf = make([]int, top.NumLinks())
		for k := range o.SetOf {
			o.SetOf[k] = top.SetOf(topology.LinkID(k))
		}
	}
	if o.MinProb <= 0 {
		o.MinProb = 1e-9
	}
	if o.MaxPairCandidates <= 0 {
		o.MaxPairCandidates = 200000
	}
	if o.MaxEquations <= 0 {
		o.MaxEquations = 3 * top.NumLinks()
	}
	if o.GF2RankThreshold <= 0 {
		o.GF2RankThreshold = 600
	}
}

// rankTracker abstracts the two linear-independence trackers.
type rankTracker interface {
	wouldIncrease(links *bitset.Set) bool
	add(links *bitset.Set)
	rank() int
	full() bool
}

// floatTracker wraps linalg.RowBasis (exact over the reals).
type floatTracker struct {
	rb  *linalg.RowBasis
	row []float64
}

func newFloatTracker(dim int) *floatTracker {
	return &floatTracker{rb: linalg.NewRowBasis(dim, 0), row: make([]float64, dim)}
}

func (t *floatTracker) toRow(links *bitset.Set) []float64 {
	for i := range t.row {
		t.row[i] = 0
	}
	links.ForEach(func(k int) bool {
		t.row[k] = 1
		return true
	})
	return t.row
}

func (t *floatTracker) wouldIncrease(links *bitset.Set) bool {
	return t.rb.WouldIncreaseRank(t.toRow(links))
}
func (t *floatTracker) add(links *bitset.Set) { t.rb.Add(t.toRow(links)) }
func (t *floatTracker) rank() int             { return t.rb.Rank() }
func (t *floatTracker) full() bool            { return t.rb.Full() }

// gf2Tracker wraps linalg.GF2Basis (fast, may under-collect).
type gf2Tracker struct {
	b   *linalg.GF2Basis
	dim int
}

func (t *gf2Tracker) wouldIncrease(links *bitset.Set) bool { return t.b.WouldIncreaseRank(links) }
func (t *gf2Tracker) add(links *bitset.Set)                { t.b.Add(links) }
func (t *gf2Tracker) rank() int                            { return t.b.Rank() }
func (t *gf2Tracker) full() bool                           { return t.b.Rank() == t.dim }

// newRankTracker picks the rank tracker for an nl-link system per the
// configured GF2 threshold.
func newRankTracker(nl int, opts *BuildOptions) rankTracker {
	if nl > opts.GF2RankThreshold {
		return &gf2Tracker{b: linalg.NewGF2Basis(), dim: nl}
	}
	return newFloatTracker(nl)
}

// probeFor returns the probability lookup for an equation's paths, routing
// single-path and pair queries through the source's fast path when it has
// one (Empirical answers them from cached bit-column popcounts); only larger
// sets materialize a path bitset.
func probeFor(top *topology.Topology, src measure.Source) func(paths []topology.PathID) float64 {
	fast, hasFast := src.(measure.FastPairSource)
	return func(paths []topology.PathID) float64 {
		if hasFast {
			switch len(paths) {
			case 1:
				return fast.ProbPathGood(paths[0])
			case 2:
				return fast.ProbPairGood(paths[0], paths[1])
			}
		}
		pathSet := bitset.New(top.NumPaths())
		for _, p := range paths {
			pathSet.Add(int(p))
		}
		return src.ProbPathsGood(pathSet)
	}
}

// enumerateCandidates drives the Section-4 candidate stream shared by the
// fused BuildEquations and the structural compile phase: every admissible
// single-path link set first (Eq. 9), then every deduped admissible pair
// union (Eq. 10), in a deterministic order. visit returns false to stop the
// enumeration (the caller gathered enough equations). The pair step is only
// reached when the single-path step ran to completion, mirroring the fused
// control flow.
//
// Ownership: a single-path candidate's link set is the topology's own and
// must be cloned before retaining; a pair candidate's union is freshly
// allocated and may be retained.
func enumerateCandidates(top *topology.Topology, opts *BuildOptions, visit func(links *bitset.Set, pair bool, paths ...topology.PathID) bool) error {
	// admissible reports whether the link set touches every correlation
	// group at most once. The group-seen scratch is one slice reused across
	// all candidates (generation-stamped, so no clearing between calls)
	// instead of a per-call map — this check runs for every single-path and
	// pair candidate, so its allocations would dominate the enumeration.
	maxGroup := 0
	for _, g := range opts.SetOf {
		if g < 0 {
			return fmt.Errorf("core: negative correlation group %d in SetOf", g)
		}
		if g >= maxGroup {
			maxGroup = g + 1
		}
	}
	groupMark := make([]int, maxGroup)
	gen := 0
	admissible := func(links *bitset.Set) bool {
		gen++
		ok := true
		links.ForEach(func(k int) bool {
			g := opts.SetOf[k]
			if groupMark[g] == gen {
				ok = false
				return false
			}
			groupMark[g] = gen
			return true
		})
		return ok
	}

	// Step 1: single-path candidates (Eq. 9 in the paper).
	var admissiblePaths []topology.PathID
	for _, p := range top.Paths() {
		if opts.PathFilter != nil && !opts.PathFilter(p.ID) {
			continue
		}
		links := top.PathLinkSet(p.ID)
		if !admissible(links) {
			continue
		}
		admissiblePaths = append(admissiblePaths, p.ID)
		if !visit(links, false, p.ID) {
			return nil
		}
	}

	// Step 2: pair candidates (Eq. 10). Only pairs of admissible paths that
	// share at least one link can be independent of the single-path rows,
	// so candidates are enumerated per shared link.
	if opts.DisablePairs {
		return nil
	}
	isAdmissiblePath := make([]bool, top.NumPaths())
	for _, p := range admissiblePaths {
		isAdmissiblePath[p] = true
	}
	// Pair dedup: one lazily allocated partner bitset per admissible
	// path, replacing a per-run map whose boxed int64 keys were a top
	// allocation site. Memory is bounded by admissible paths that
	// actually see candidates × one word per 64 paths.
	paired := make([]*bitset.Set, top.NumPaths())
	candidates := 0
	for k := 0; k < top.NumLinks(); k++ {
		through := top.PathsThroughLink(topology.LinkID(k))
		for ai := 0; ai < len(through); ai++ {
			i := through[ai]
			if !isAdmissiblePath[i] {
				continue
			}
			for bi := ai + 1; bi < len(through); bi++ {
				j := through[bi]
				if !isAdmissiblePath[j] {
					continue
				}
				if paired[i] == nil {
					paired[i] = bitset.New(top.NumPaths())
				}
				if paired[i].Contains(int(j)) {
					continue
				}
				paired[i].Add(int(j))
				candidates++
				if candidates > opts.MaxPairCandidates {
					return nil
				}
				union := bitset.Union(top.PathLinkSet(i), top.PathLinkSet(j))
				if !admissible(union) {
					continue
				}
				if !visit(union, true, i, j) {
					return nil
				}
			}
		}
	}
	return nil
}

// BuildEquations runs the Section-4 selection: all admissible single-path
// equations first, then admissible pair equations, keeping only rows that
// increase the rank, until |E| equations are collected or candidates run out.
//
// This is the fused one-shot path: selection and probability lookup are
// interleaved, so equations dropped for a near-zero measured probability
// free their slot for later candidates. CompileStructure/EvaluateIn split
// the same procedure into a reusable structural phase and a cheap
// per-source fill (falling back to this function in the rare
// data-dependent case).
func BuildEquations(top *topology.Topology, src measure.Source, opts BuildOptions) (*EquationSystem, error) {
	if src.NumPaths() != top.NumPaths() {
		return nil, fmt.Errorf("core: source has %d paths, topology %d", src.NumPaths(), top.NumPaths())
	}
	opts.fill(top)
	if len(opts.SetOf) != top.NumLinks() {
		return nil, fmt.Errorf("core: SetOf has %d entries, want %d", len(opts.SetOf), top.NumLinks())
	}

	nl := top.NumLinks()
	sys := &EquationSystem{NumLinks: nl, Covered: bitset.New(nl)}
	basis := newRankTracker(nl, &opts)
	probPaths := probeFor(top, src)

	// done reports whether equation gathering should stop.
	done := func() bool {
		if opts.CollectAll {
			return len(sys.Equations) >= opts.MaxEquations
		}
		return basis.full()
	}

	addEq := func(links *bitset.Set, paths ...topology.PathID) bool {
		if !opts.CollectAll && !basis.wouldIncrease(links) {
			return false
		}
		prob := probPaths(paths)
		if prob <= opts.MinProb {
			sys.SkippedZeroProb++
			return false
		}
		basis.add(links)
		sys.Equations = append(sys.Equations, Equation{
			Links: links.Clone(),
			Y:     math.Log(prob),
			Paths: append([]topology.PathID{}, paths...),
		})
		sys.Covered.UnionWith(links)
		return true
	}

	err := enumerateCandidates(top, &opts, func(links *bitset.Set, pair bool, paths ...topology.PathID) bool {
		if addEq(links, paths...) {
			if pair {
				sys.PairEqs++
			} else {
				sys.SinglePathEqs++
			}
		}
		return !done()
	})
	if err != nil {
		return nil, err
	}

	sys.Rank = basis.rank()
	return sys, nil
}

// SortPathIDs sorts a PathID slice in place (used by callers presenting
// deterministic equation listings).
func SortPathIDs(p []topology.PathID) {
	sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
}
