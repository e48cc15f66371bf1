// Package lp implements a dense two-phase primal simplex solver and the L1
// completion built on it.
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
// a reusable Workspace; there are no allocating package-level forms.
//
// The solver: Workspace.Solve runs phase 1 on the artificial variables,
// pivots any artificial left at level zero out of the basis, then runs
// phase 2 with the artificial columns frozen. Each phase prices all
// columns once; after that, a pivot changes only the columns where the
// pivot row is nonzero, so only those are eliminated and repriced. A
// repriced column is summed in full, in the same row order as the full
// sweep, so the solver takes exactly the pivots — and returns exactly the
// bits — of a dense solver that re-prices every column at every pivot
// (pinned by oracle_test.go). A warm Workspace solves a same-shaped
// program without allocating.
package lp
