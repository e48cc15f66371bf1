// Package lp implements a two-phase primal simplex solver over a
// nonzero-indexed tableau, and the L1 completion built on it.
//
// Paper mapping: Section 4's practical algorithm solves the log-linear
// system of Eqs. 9–10 for the link variables. When Assumption 4 holds only
// partially and the collected equations leave the system underdetermined,
// the paper completes it with the solution that "minimizes the L1 norm
// error". Workspace.MinimizeL1ResidualNonPositive is that completion —
// min ‖A·x − y‖₁ plus a tiny ‖x‖₁ tie-break, subject to x ≤ 0 — and the
// only entry point production code calls: core's linear estimators run it
// on every underdetermined system. (Full-rank systems and the
// UseAllEquations ablation are solved by internal/linalg instead.)
//
// Both entry points, Workspace.Solve and the L1 completion, are methods of
// a reusable Workspace; there are no allocating package-level forms. The
// L1 completion loads its standard-form program straight into the tableau,
// with no intermediate constraint matrix.
//
// The solver: Workspace.Solve runs phase 1 on the artificial variables,
// pivots any artificial left at level zero out of the basis, then runs
// phase 2 with the artificial columns frozen. The tableau's values are
// dense, but the completion's 0/1 path-incidence rows cover only a few
// links each, so it stays about 95% zeros. Beside the values the tableau
// keeps a nonzero index — per column a bitset of its possibly nonzero
// rows, per row a bitset of its possibly nonzero columns, and bitsets of
// the entry candidates (reduced cost below −costEps) and of the pricing
// rows — built while the program is loaded and kept current by each pivot
// from the fill-in it makes. The ratio test, the elimination, the pricing
// sums, the pivot-row scan and the entry rules visit only indexed entries,
// in ascending order, and a pivot reprices only the columns where the
// pivot row is nonzero. The index is a superset (an entry that cancels to
// zero may stay marked), so the only terms skipped are exact zeros, which
// can at most flip the sign of a zero sum: the solver takes exactly the
// pivots — and returns exactly the bits — of a dense solver that
// re-prices every column at every pivot (pinned by oracle_test.go; the
// index itself by index_test.go). A warm Workspace solves a same-shaped
// program without allocating, and clears only the indexed entries of the
// previous program when it loads the next.
package lp
