package lp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

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
// the phase objectives, the reduced-cost buffer, and the objective scratch
// of the L1 completion. Buffers grow monotonically and are retained across
// calls, so a steady-state caller solving same-shaped programs allocates
// nothing. A Workspace must not be used by two goroutines at once; slices
// returned by workspace methods alias workspace storage and are valid only
// until the next call on the same workspace.
type Workspace struct {
	t              tableau
	rc             []float64 // reduced costs, reused across pivots
	phase1, phase2 []float64
	x              []float64 // the basic solution of the original columns

	// L1 completion scratch: the standard-form objective and the recovered
	// solution (kept separate from x, which run owns).
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

	ws.t.load(p)
	x, iters, err := ws.run(p.C)
	if err != nil {
		return Result{}, err
	}
	return Result{X: x, Objective: linalg.Dot(p.C, x), Iters: iters}, nil
}

// run solves the program loaded into the tableau, whose first len(c)
// columns carry objective c and whose last m columns are the artificials:
// phase 1 minimizes the sum of artificials, any artificial left basic at
// level zero is pivoted out, and phase 2 optimizes c with the artificial
// columns frozen. It returns the basic solution of the first len(c)
// columns (aliasing ws.x) and the pivots taken.
func (ws *Workspace) run(c []float64) ([]float64, int, error) {
	t := &ws.t
	n, nt := len(c), t.n
	ws.phase1 = scratch.GrowZero(ws.phase1, nt)
	phase1 := ws.phase1
	for j := n; j < nt; j++ {
		phase1[j] = 1
	}
	ws.rc = scratch.Grow(ws.rc, nt)
	iters, err := t.optimize(phase1, 0, ws.rc)
	if err != nil {
		return nil, 0, err
	}
	if t.objective(phase1) > 1e-7 {
		return nil, 0, ErrInfeasible
	}
	// Drive any artificial variables out of the basis (degenerate rows),
	// entering the lowest original column with a usable entry. These are
	// pivots too, so they count toward Iters and the budget.
	for i := 0; i < t.m; i++ {
		if t.basis[i] < n {
			continue
		}
		if j := t.driveOutColumn(i, n); j >= 0 {
			t.pivot(i, j)
			iters++
			if t.afterPivot != nil {
				t.afterPivot(nil, nil)
			}
		}
		// If no pivot was found the row is redundant; the artificial stays at
		// value 0 and never re-enters because we now forbid artificial columns.
	}

	// Phase 2: original objective; artificial columns are frozen out by
	// giving them prohibitive cost.
	ws.phase2 = scratch.Grow(ws.phase2, nt)
	phase2 := ws.phase2
	copy(phase2, c)
	for j := n; j < nt; j++ {
		phase2[j] = math.Inf(1)
	}
	iters, err = t.optimize(phase2, iters, ws.rc)
	if err != nil {
		return nil, 0, err
	}

	ws.x = scratch.GrowZero(ws.x, n)
	x := ws.x
	for i, bv := range t.basis {
		if bv < n {
			x[bv] = t.b[i]
		}
	}
	return x, iters, nil
}

// tableau is a simplex tableau in "revised-lite" form: the full constraint
// rows, updated in place, plus the current basis. The values live in the
// dense row-major a; beside them sits a nonzero index of bitsets:
//
//   - colRows, per column, the rows where the column may be nonzero;
//   - rowCols, per row, the columns where the row may be nonzero;
//   - neg, the columns whose reduced cost is below −costEps;
//   - prow, the pricing rows (basic cost neither 0 nor a frozen +Inf).
//
// The row and column bitsets are supersets: an entry that cancels to an
// exact zero may stay marked, and every visit still tests the value. Every
// loop that would walk a whole row or column walks the marked entries in
// ascending order instead, so it visits the same nonzeros in the same order
// as a dense sweep and skips only terms that are exact zeros.
//
// A pivot changes only the columns where the pivot row is nonzero — every
// other column keeps its entries and its reduced cost — so pivot records
// those columns in cols, and optimize reprices just them. Every buffer is
// sized at reset, so pivots and repricing never allocate.
type tableau struct {
	m, n   int
	mw, nw int // words of a column's row bitset and of a row's column bitset
	a      []float64
	b      []float64
	basis  []int
	cb     []float64 // basic cost of each row under the optimized objective
	cols   []int     // columns touched by the last pivot, ascending

	colRows []uint64 // n column bitsets of mw words
	rowCols []uint64 // m row bitsets of nw words
	neg     []uint64 // nw words
	prow    []uint64 // mw words
	elim    []uint64 // mw words: the rows the last pivot eliminated

	// afterPivot, when set, runs after every pivot: with the objective and
	// its reduced costs inside optimize, with nil slices after a drive-out.
	// It lets tests check the index; production leaves it nil.
	afterPivot func(c, rc []float64)
}

// words is the number of 64-bit words of a bitset over n elements.
func words(n int) int { return (n + 63) / 64 }

// reset prepares the tableau for an m×n program, reusing storage from
// earlier solves. The previous program's index marks every nonzero it left
// in a, so clearing the marked entries leaves all of a zero (a fresh
// allocation is zero too) without a sweep over the whole tableau.
func (t *tableau) reset(m, n int) {
	for i := 0; i < t.m; i++ {
		row := t.a[i*t.n : (i+1)*t.n]
		for w, word := range t.rowCols[i*t.nw : (i+1)*t.nw] {
			for ; word != 0; word &= word - 1 {
				row[w<<6|bits.TrailingZeros64(word)] = 0
			}
		}
	}
	t.m, t.n = m, n
	t.mw, t.nw = words(m), words(n)
	t.a = scratch.Grow(t.a, m*n)
	t.b = scratch.Grow(t.b, m)
	t.basis = scratch.Grow(t.basis, m)
	t.cb = scratch.Grow(t.cb, m)
	t.cols = scratch.Grow(t.cols, n)[:0]
	t.colRows = scratch.GrowZero(t.colRows, n*t.mw)
	t.rowCols = scratch.GrowZero(t.rowCols, m*t.nw)
	t.neg = scratch.Grow(t.neg, t.nw)
	t.prow = scratch.Grow(t.prow, t.mw)
	t.elim = scratch.Grow(t.elim, t.mw)
}

// load fills the tableau with the phase-1 program of p: each row
// normalized so its right-hand side is nonnegative, plus one artificial
// variable per row, indexed as it is written.
func (t *tableau) load(p Problem) {
	m, n := p.A.Rows, p.A.Cols
	t.reset(m, n+m)
	for i := 0; i < m; i++ {
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1
		}
		for j, v := range p.A.Row(i) {
			if v != 0 {
				t.put(i, j, sign*v)
			}
		}
		t.setArtificial(i, n, sign*p.B[i])
	}
}

// put sets entry (i, j) to the nonzero v and marks it in the index.
func (t *tableau) put(i, j int, v float64) {
	t.a[i*t.n+j] = v
	t.rowCols[i*t.nw+j>>6] |= 1 << (j & 63)
	t.colRows[j*t.mw+i>>6] |= 1 << (i & 63)
}

// setArtificial finishes loading row i, whose normalized right-hand side is
// bi ≥ 0: its artificial variable, column n+i, starts basic at level bi.
func (t *tableau) setArtificial(i, n int, bi float64) {
	t.put(i, n+i, 1)
	t.b[i] = bi
	t.basis[i] = n + i
}

// row returns row i of the tableau.
func (t *tableau) row(i int) []float64 { return t.a[i*t.n : (i+1)*t.n] }

// driveOutColumn returns the lowest column below n whose entry in row i
// exceeds pivotEps in magnitude, or −1.
func (t *tableau) driveOutColumn(i, n int) int {
	row := t.row(i)
	for w, word := range t.rowCols[i*t.nw : (i+1)*t.nw] {
		for ; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			if j >= n {
				return -1
			}
			if math.Abs(row[j]) > pivotEps {
				return j
			}
		}
	}
	return -1
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

// setBasicCost records row i's basic cost cb under the optimized objective
// and whether the row prices: a zero cost or a frozen +Inf artificial (at
// value 0) would only subtract exact zeros.
func (t *tableau) setBasicCost(i int, cb float64) {
	t.cb[i] = cb
	bit := uint64(1) << (i & 63)
	if cb != 0 && !math.IsInf(cb, 1) {
		t.prow[i>>6] |= bit
	} else {
		t.prow[i>>6] &^= bit
	}
}

// reducedCost returns c_j − c_Bᵀ·B⁻¹·A_j: c[j] minus the column's marked
// entries in the pricing rows, each scaled by its row's basic cost, in
// ascending row order. The unmarked entries are exact zeros, whose terms
// could at most flip the sign of a zero sum, which no comparison or later
// sum observes — so this is the dense sum over all pricing rows, bit for
// bit where it matters.
func (t *tableau) reducedCost(c []float64, j int) float64 {
	s := c[j]
	a, n, cb, prow := t.a, t.n, t.cb, t.prow[:t.mw]
	for w, word := range t.colRows[j*t.mw : (j+1)*t.mw] {
		for word &= prow[w]; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			s -= cb[i] * a[i*n+j]
		}
	}
	return s
}

// setReducedCost stores column j's reduced cost and its candidate bit.
func (t *tableau) setReducedCost(rc []float64, j int, v float64) {
	rc[j] = v
	bit := uint64(1) << (j & 63)
	if v < -costEps {
		t.neg[j>>6] |= bit
	} else {
		t.neg[j>>6] &^= bit
	}
}

// price starts a phase under objective c: every row's basic cost, and every
// column's reduced cost into rc.
func (t *tableau) price(c []float64, rc []float64) {
	clear(t.prow)
	clear(t.neg)
	for i, bv := range t.basis {
		t.setBasicCost(i, c[bv])
	}
	for j := 0; j < t.n; j++ {
		t.setReducedCost(rc, j, t.reducedCost(c, j))
	}
}

// reprice brings the pricing up to date after a pivot on (leave, enter):
// row leave's basic cost, and the reduced costs of the columns the pivot
// touched. Every other column has the same entries as before the pivot, and
// its entry in the pivot row is zero, so its reduced cost is unchanged (up
// to the sign of a zero, which no comparison or later sum can observe).
func (t *tableau) reprice(c []float64, rc []float64, leave, enter int) {
	t.setBasicCost(leave, c[enter])
	for _, j := range t.cols {
		t.setReducedCost(rc, j, t.reducedCost(c, j))
	}
}

// budget returns the pivot limit of a solve and the pivot count from which
// entry switches from Dantzig's rule to Bland's.
func (t *tableau) budget() (maxIters, blandFrom int) {
	maxIters = 2000 + 40*(t.m+t.n)
	return maxIters, maxIters / 2
}

// entering returns the entering column under Dantzig's rule (the most
// negative reduced cost, the lowest such index on ties) or, with bland set,
// Bland's rule (the lowest index with a negative reduced cost, which
// guarantees no cycling); −1 when no reduced cost is below −costEps. Only
// the candidate bitset's columns are visited, in ascending order.
func (t *tableau) entering(rc []float64, bland bool) int {
	enter := -1
	best := -costEps
	for w, word := range t.neg {
		for ; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			if bland {
				return j
			}
			if v := rc[j]; v < best {
				best, enter = v, j
			}
		}
	}
	return enter
}

// leaving runs the ratio test on column enter over its marked rows and
// returns the leaving row, or −1 when the column bounds nothing.
func (t *tableau) leaving(enter int) int {
	leave := -1
	bestRatio := math.Inf(1)
	for w, word := range t.colRows[enter*t.mw : (enter+1)*t.mw] {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if v := t.a[i*t.n+enter]; v > pivotEps {
				r := t.b[i] / v
				if r < bestRatio-1e-12 || (math.Abs(r-bestRatio) <= 1e-12 && (leave == -1 || t.basis[i] < t.basis[leave])) {
					bestRatio, leave = r, i
				}
			}
		}
	}
	return leave
}

// optimize runs primal simplex pivots until optimality for objective c,
// using rc (capacity ≥ t.n) as the reduced-cost scratch. The reduced costs
// are priced in full once, then repriced incrementally after each pivot.
func (t *tableau) optimize(c []float64, startIter int, rc []float64) (int, error) {
	maxIters, blandFrom := t.budget()
	iters := startIter
	rc = rc[:t.n]
	t.price(c, rc)
	for ; iters < maxIters; iters++ {
		enter := t.entering(rc, iters >= blandFrom)
		if enter == -1 {
			return iters, nil // optimal
		}
		leave := t.leaving(enter)
		if leave == -1 {
			return iters, ErrUnbounded
		}
		t.pivot(leave, enter)
		t.reprice(c, rc, leave, enter)
		if t.afterPivot != nil {
			t.afterPivot(c, rc)
		}
	}
	return iters, ErrIterationLimit
}

// pivot makes column `enter` basic in row `leave`. Only the pivot row's
// nonzero columns are scaled and eliminated; they are recorded in t.cols.
// Skipping a zero column leaves every entry as it was, where the full-row
// update would at most have flipped the sign of a zero. The index follows
// the fill-in: each eliminated row gains the pivot row's columns, each
// touched column gains the eliminated rows, and the entering column becomes
// the unit vector at leave.
func (t *tableau) pivot(leave, enter int) {
	n, nw := t.n, t.nw
	row := t.row(leave)
	rowBits := t.rowCols[leave*nw : (leave+1)*nw]
	inv := 1 / row[enter]
	cols := t.cols[:0]
	for w, word := range rowBits {
		live := uint64(0)
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			j := w<<6 | b
			if v := row[j]; v != 0 {
				row[j] = v * inv
				cols = append(cols, j)
				live |= 1 << b
			}
		}
		rowBits[w] = live
	}
	t.cols = cols
	t.b[leave] *= inv
	row[enter] = 1 // kill rounding noise
	bl := t.b[leave]

	elim := t.elim
	clear(elim)
	enterRows := t.colRows[enter*t.mw : (enter+1)*t.mw]
	for w, word := range enterRows {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if i == leave {
				continue
			}
			ri := t.a[i*n : (i+1)*n]
			f := ri[enter]
			if f == 0 {
				continue
			}
			for _, j := range cols {
				ri[j] -= f * row[j]
			}
			ri[enter] = 0
			t.b[i] -= f * bl
			elim[w] |= 1 << (i & 63)
			ib := t.rowCols[i*nw : (i+1)*nw]
			for k, v := range rowBits {
				ib[k] |= v
			}
			ib[enter>>6] &^= 1 << (enter & 63)
		}
	}
	for _, j := range cols {
		cj := t.colRows[j*t.mw : (j+1)*t.mw]
		for k, v := range elim {
			cj[k] |= v
		}
	}
	clear(enterRows)
	enterRows[leave>>6] = 1 << (leave & 63)
	t.basis[leave] = enter
}
