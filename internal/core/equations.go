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

	"repro/internal/bitset"
	"repro/internal/linalg"
	"repro/internal/scratch"
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
	// minProb (log undefined / hopelessly noisy).
	SkippedZeroProb int
}

// rankTracker abstracts the two linear-independence trackers. offer
// computes a row's residual against the tracked rows and reports whether the
// row raises the rank; accept adds that residual, so an accepted row is
// reduced once.
type rankTracker interface {
	offer(links *bitset.Set) bool
	// accept adds the row of the last offer, which must have raised the
	// rank.
	accept()
	rank() int
	full() bool
	// resume returns ws's tracker of the same kind holding this tracker's
	// first k rows, read in place: the tracker a selection that accepted
	// those rows first would hold.
	resume(ws *Workspace, k int) rankTracker
}

// floatTracker wraps linalg.RowBasis (exact over the reals).
type floatTracker struct {
	rb  linalg.RowBasis
	row []float64
}

func newFloatTracker(dim int) *floatTracker {
	return &floatTracker{rb: *linalg.NewRowBasis(dim, 0), row: make([]float64, dim)}
}

// toRow writes the 0/1 incidence row of a link set into row.
func toRow(row []float64, links *bitset.Set) []float64 {
	clear(row)
	links.ForEach(func(k int) bool {
		row[k] = 1
		return true
	})
	return row
}

func (t *floatTracker) offer(links *bitset.Set) bool { return t.rb.Offer(toRow(t.row, links)) }
func (t *floatTracker) accept()                      { t.rb.Accept() }
func (t *floatTracker) rank() int                    { return t.rb.Rank() }
func (t *floatTracker) full() bool                   { return t.rb.Full() }

func (t *floatTracker) resume(ws *Workspace, k int) rankTracker {
	w := &ws.flt
	w.rb.Resume(&t.rb, k)
	w.row = scratch.Grow(w.row, len(t.row))
	return w
}

// gf2Tracker wraps linalg.GF2Basis (fast, may under-collect).
type gf2Tracker struct {
	b   linalg.GF2Basis
	dim int
}

func (t *gf2Tracker) offer(links *bitset.Set) bool { return t.b.Offer(links) }
func (t *gf2Tracker) accept()                      { t.b.Accept() }
func (t *gf2Tracker) rank() int                    { return t.b.Rank() }
func (t *gf2Tracker) full() bool                   { return t.b.Rank() == t.dim }

func (t *gf2Tracker) resume(ws *Workspace, k int) rankTracker {
	w := &ws.gf2
	w.b.Resume(&t.b, k)
	w.dim = t.dim
	return w
}

// newRankTracker returns the GF(2) tracker when gf2 is set, the float
// tracker otherwise.
func newRankTracker(nl int, gf2 bool) rankTracker {
	if gf2 {
		return &gf2Tracker{dim: nl}
	}
	return newFloatTracker(nl)
}

// candidate is one admissible row of the Section-4 stream: a single path
// (Eq. 9) or a path pair (Eq. 10), whose joint good-probability is the
// row's right-hand side. Its link set is the path's, or the union of the
// pair's; the stream does not keep it (see linksOf).
type candidate struct {
	paths [2]topology.PathID
	n     int // 1 or 2
}

// pathIDs returns the candidate's one or two paths. The slice aliases c and
// has no spare capacity.
func (c *candidate) pathIDs() []topology.PathID { return c.paths[:c.n:c.n] }

// linksOf returns c's link set: the topology's own set for a single path,
// the pair's union built into u otherwise. The result is read-only, and a
// union is valid until u's next use.
func linksOf(top *topology.Topology, c *candidate, u *bitset.Set) *bitset.Set {
	if c.n == 1 {
		return top.PathLinkSet(c.paths[0])
	}
	u.CopyFrom(top.PathLinkSet(c.paths[0]))
	u.UnionWith(top.PathLinkSet(c.paths[1]))
	return u
}

// enumerateCandidates returns the Section-4 candidate stream: every
// admissible single path first (Eq. 9), then every deduped admissible pair
// (Eq. 10), in a deterministic order. setOf[k] is the correlation group of
// link k. The stream ends early only at the maxPairCandidates cap; the
// selection, not the enumeration, decides when enough rows were gathered.
func enumerateCandidates(top *topology.Topology, setOf []int, opts *Options) ([]candidate, error) {
	// admissible reports whether the link set touches every correlation
	// group at most once. The group-seen scratch is one slice reused across
	// all candidates (generation-stamped, so no clearing between calls)
	// instead of a per-call map — this check runs for every single-path and
	// pair candidate, so its allocations would dominate the enumeration.
	maxGroup := 0
	for _, g := range setOf {
		if g < 0 {
			return nil, fmt.Errorf("core: negative correlation group %d", g)
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
			g := setOf[k]
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
	var stream []candidate
	isAdmissiblePath := make([]bool, top.NumPaths())
	for _, p := range top.Paths() {
		if opts.PathFilter != nil && !opts.PathFilter(p.ID) {
			continue
		}
		links := top.PathLinkSet(p.ID)
		if !admissible(links) {
			continue
		}
		isAdmissiblePath[p.ID] = true
		stream = append(stream, candidate{paths: [2]topology.PathID{p.ID}, n: 1})
	}

	// Step 2: pair candidates (Eq. 10). Only pairs of admissible paths that
	// share at least one link can be independent of the single-path rows,
	// so candidates are enumerated per shared link.
	if opts.DisablePairs {
		return stream, nil
	}
	// Pair dedup: one lazily allocated partner bitset per admissible
	// path, replacing a per-run map whose boxed int64 keys were a top
	// allocation site. Memory is bounded by admissible paths that
	// actually see candidates × one word per 64 paths.
	paired := make([]*bitset.Set, top.NumPaths())
	union := bitset.New(top.NumLinks())
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
				if candidates > maxPairCandidates {
					return stream, nil
				}
				c := candidate{paths: [2]topology.PathID{i, j}, n: 2}
				if !admissible(linksOf(top, &c, union)) {
					continue
				}
				stream = append(stream, c)
			}
		}
	}
	return stream, nil
}
