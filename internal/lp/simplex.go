package lp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/scratch"
)

// Problem is a linear program in standard form:
//
//	minimize  cᵀ·x
//	subject to A·x = b, x ≥ 0.
type Problem struct {
	C []float64      // objective coefficients, length n
	A *linalg.Matrix // m×n constraint matrix
	B []float64      // right-hand side, length m
}

// Result holds the solution of a solved linear program.
type Result struct {
	X         []float64 // optimal point
	Objective float64   // cᵀ·x at the optimum
	Iters     int       // simplex pivots performed, drive-outs between phases included
}

// ErrInfeasible is returned when no x ≥ 0 satisfies A·x = b.
var ErrInfeasible = errors.New("lp: problem is infeasible")

// ErrUnbounded is returned when the objective is unbounded below.
var ErrUnbounded = errors.New("lp: problem is unbounded")

// ErrIterationLimit is returned when the simplex fails to converge within
// its pivot budget (cycling or numerically hopeless problems).
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

const (
	pivotEps = 1e-9
	costEps  = 1e-9
)

// Workspace holds the reusable state of one simplex solver: the tableau,
// the phase objectives, the reduced-cost buffer, and the problem-construction
// scratch of the L1 completion. Buffers grow monotonically and are retained
// across calls, so a steady-state caller solving same-shaped programs
// allocates nothing. A Workspace must not be used by two goroutines at once;
// slices returned by workspace methods alias workspace storage and are valid
// only until the next call on the same workspace.
type Workspace struct {
	t              tableau
	rc             []float64 // reduced costs, reused across pivots
	phase1, phase2 []float64
	x              []float64 // Solve's basic-solution buffer

	// L1 completion scratch: the standard-form problem built from (A, y) and
	// the recovered solution (kept separate from x, which Solve owns).
	pa   linalg.Matrix
	c    []float64
	xOut []float64
}

// Solve runs the two-phase primal simplex method on p using workspace
// storage. Result.X aliases the workspace.
func (ws *Workspace) Solve(p Problem) (Result, error) {
	if p.A == nil {
		return Result{}, fmt.Errorf("lp: nil constraint matrix")
	}
	m := p.A.Rows
	n := p.A.Cols
	if len(p.B) != m {
		return Result{}, fmt.Errorf("lp: b has length %d, want %d", len(p.B), m)
	}
	if len(p.C) != n {
		return Result{}, fmt.Errorf("lp: c has length %d, want %d", len(p.C), n)
	}

	// Normalize rows so b ≥ 0, then add one artificial variable per row.
	// Phase 1 minimizes the sum of artificials.
	t := &ws.t
	t.reset(m, n+m)
	for i := 0; i < m; i++ {
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1
		}
		row := t.a[i]
		ar := p.A.Row(i)
		for j := 0; j < n; j++ {
			row[j] = sign * ar[j]
		}
		row[n+i] = 1
		t.b[i] = sign * p.B[i]
		t.basis[i] = n + i
	}
	ws.phase1 = scratch.GrowZero(ws.phase1, n+m)
	phase1 := ws.phase1
	for j := n; j < n+m; j++ {
		phase1[j] = 1
	}
	ws.rc = scratch.Grow(ws.rc, n+m)
	iters, err := t.optimize(phase1, 0, ws.rc)
	if err != nil {
		return Result{}, err
	}
	if t.objective(phase1) > 1e-7 {
		return Result{}, ErrInfeasible
	}
	// Drive any artificial variables out of the basis (degenerate rows).
	// These are pivots too, so they count toward Iters and the budget.
	for i := 0; i < m; i++ {
		if t.basis[i] < n {
			continue
		}
		for j := 0; j < n; j++ {
			if math.Abs(t.a[i][j]) > pivotEps {
				t.pivot(i, j)
				iters++
				break
			}
		}
		// If no pivot was found the row is redundant; the artificial stays at
		// value 0 and never re-enters because we now forbid artificial columns.
	}

	// Phase 2: original objective; artificial columns are frozen out by
	// giving them prohibitive cost.
	ws.phase2 = scratch.Grow(ws.phase2, n+m)
	phase2 := ws.phase2
	copy(phase2, p.C)
	for j := n; j < n+m; j++ {
		phase2[j] = math.Inf(1)
	}
	it2, err := t.optimize(phase2, iters, ws.rc)
	if err != nil {
		return Result{}, err
	}

	ws.x = scratch.GrowZero(ws.x, n)
	x := ws.x
	for i, bv := range t.basis {
		if bv < n {
			x[bv] = t.b[i]
		}
	}
	return Result{X: x, Objective: linalg.Dot(p.C, x), Iters: it2}, nil
}

// tableau is a dense simplex tableau in "revised-lite" form: we keep the
// full constraint rows updated in place plus the current basis.
//
// A pivot changes only the columns where the pivot row is nonzero — every
// other column keeps its entries and its reduced cost — so pivot records
// those columns in cols, and optimize reprices just them. prow lists the
// pricing rows (basic cost neither 0 nor a frozen +Inf) in ascending order.
// Both are sized at reset, so pivots and repricing never allocate.
type tableau struct {
	m, n  int
	a     [][]float64
	b     []float64
	basis []int
	cols  []int // columns touched by the last pivot, ascending
	prow  []int // pricing rows, ascending
}

// reset prepares the tableau for an m×n program, reusing row storage from
// earlier solves. Every row is zeroed.
func (t *tableau) reset(m, n int) {
	t.m, t.n = m, n
	t.b = scratch.GrowZero(t.b, m)
	t.basis = scratch.Grow(t.basis, m)
	t.cols = scratch.Grow(t.cols, n)[:0]
	t.prow = scratch.Grow(t.prow, m)[:0]
	if cap(t.a) < m {
		rows := make([][]float64, m)
		copy(rows, t.a[:cap(t.a)])
		t.a = rows
	} else {
		t.a = t.a[:m]
	}
	for i := range t.a {
		t.a[i] = scratch.GrowZero(t.a[i], n)
	}
}

// objective evaluates cᵀx at the current basic solution.
func (t *tableau) objective(c []float64) float64 {
	s := 0.0
	for i, bv := range t.basis {
		if !math.IsInf(c[bv], 1) {
			s += c[bv] * t.b[i]
		}
	}
	return s
}

// pricingRows lists the rows that contribute to the reduced costs under
// objective c: those whose basic cost is neither zero nor a frozen +Inf
// artificial (at value 0), which would only subtract exact zeros.
func (t *tableau) pricingRows(c []float64) {
	t.prow = t.prow[:0]
	for i, bv := range t.basis {
		if cb := c[bv]; cb != 0 && !math.IsInf(cb, 1) {
			t.prow = append(t.prow, i)
		}
	}
}

// reducedCosts computes c_j − c_Bᵀ·B⁻¹·A_j for all columns into rc, given
// the current tableau (in which rows are already expressed in the basis) and
// the pricing rows of c.
//
// The sweep is row-major — rc starts at c and each pricing row subtracts its
// c_B-scaled coefficients — so it walks every tableau row sequentially. For
// each column the subtractions happen in ascending row order, the same order
// reprice uses, so the two agree bit for bit.
func (t *tableau) reducedCosts(c []float64, rc []float64) {
	copy(rc, c[:t.n])
	for _, i := range t.prow {
		cb := c[t.basis[i]]
		for j, aij := range t.a[i] {
			rc[j] -= cb * aij
		}
	}
}

// reprice recomputes the reduced costs of the columns the last pivot
// touched, each as the full column sum in ascending pricing-row order —
// the sweep of reducedCosts restricted to those columns, so the results are
// the same bits. Every other column has the same entries as before the
// pivot, and its entry in the pivot row is zero, so its reduced cost is
// unchanged (up to the sign of a zero, which no comparison or later sum can
// observe).
func (t *tableau) reprice(c []float64, rc []float64) {
	for _, j := range t.cols {
		rc[j] = c[j]
	}
	for _, i := range t.prow {
		cb, ri := c[t.basis[i]], t.a[i]
		for _, j := range t.cols {
			rc[j] -= cb * ri[j]
		}
	}
}

// optimize runs primal simplex pivots until optimality for objective c,
// using rc (capacity ≥ t.n) as the reduced-cost scratch. The reduced costs
// are swept in full once, then repriced incrementally after each pivot.
func (t *tableau) optimize(c []float64, startIter int, rc []float64) (int, error) {
	maxIters := 2000 + 40*(t.m+t.n)
	iters := startIter
	blandFrom := maxIters / 2
	rc = rc[:t.n]
	t.pricingRows(c)
	t.reducedCosts(c, rc)
	for ; iters < maxIters; iters++ {
		enter := -1
		if iters < blandFrom {
			// Dantzig: most negative reduced cost. (+Inf frozen columns can
			// never compare below the threshold, so no explicit IsInf test is
			// needed.)
			best := -costEps
			for j, v := range rc {
				if v < best {
					best, enter = v, j
				}
			}
		} else {
			// Bland's rule: smallest index with negative reduced cost
			// (guarantees no cycling).
			for j, v := range rc {
				if v < -costEps {
					enter = j
					break
				}
			}
		}
		if enter == -1 {
			return iters, nil // optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][enter] > pivotEps {
				r := t.b[i] / t.a[i][enter]
				if r < bestRatio-1e-12 || (math.Abs(r-bestRatio) <= 1e-12 && (leave == -1 || t.basis[i] < t.basis[leave])) {
					bestRatio, leave = r, i
				}
			}
		}
		if leave == -1 {
			return iters, ErrUnbounded
		}
		t.pivot(leave, enter)
		t.pricingRows(c)
		t.reprice(c, rc)
	}
	return iters, ErrIterationLimit
}

// pivot makes column `enter` basic in row `leave`. Only the columns where
// the pivot row is nonzero are scaled and eliminated; they are recorded in
// t.cols. Skipping a zero column leaves every entry as it was, where the
// full-row update would at most have flipped the sign of a zero.
func (t *tableau) pivot(leave, enter int) {
	row := t.a[leave]
	inv := 1 / row[enter]
	cols := t.cols[:0]
	for j, v := range row {
		if v != 0 {
			row[j] = v * inv
			cols = append(cols, j)
		}
	}
	t.cols = cols
	t.b[leave] *= inv
	row[enter] = 1 // kill rounding noise
	for i, ri := range t.a {
		if i == leave {
			continue
		}
		f := ri[enter]
		if f == 0 {
			continue
		}
		for _, j := range cols {
			ri[j] -= f * row[j]
		}
		ri[enter] = 0
		t.b[i] -= f * t.b[leave]
	}
	t.basis[leave] = enter
}
