package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// The oracle below is the dense simplex the solver started from: every
// iteration re-prices all columns in a full row-major sweep, and every pivot
// scales and eliminates whole rows. It counts the drive-out pivots between
// the phases in Iters, like Workspace.Solve. It lives only in test code, as
// the reference the incremental solver must match bit for bit.

type denseTableau struct {
	m, n  int
	a     [][]float64
	b     []float64
	basis []int
}

// denseSolve is Workspace.Solve over the dense tableau. drives reports how
// many drive-out pivots ran between the phases, so tests can check that a
// case set exercises them.
func denseSolve(p Problem) (res Result, drives int, err error) {
	m, n := p.A.Rows, p.A.Cols
	t := &denseTableau{m: m, n: n + m, a: make([][]float64, m), b: make([]float64, m), basis: make([]int, m)}
	for i := 0; i < m; i++ {
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1
		}
		row := make([]float64, n+m)
		ar := p.A.Row(i)
		for j := 0; j < n; j++ {
			row[j] = sign * ar[j]
		}
		row[n+i] = 1
		t.a[i] = row
		t.b[i] = sign * p.B[i]
		t.basis[i] = n + i
	}
	phase1 := make([]float64, n+m)
	for j := n; j < n+m; j++ {
		phase1[j] = 1
	}
	rc := make([]float64, n+m)
	iters, err := t.optimize(phase1, 0, rc)
	if err != nil {
		return Result{}, 0, err
	}
	if t.objective(phase1) > 1e-7 {
		return Result{}, 0, ErrInfeasible
	}
	for i := 0; i < m; i++ {
		if t.basis[i] < n {
			continue
		}
		for j := 0; j < n; j++ {
			if math.Abs(t.a[i][j]) > pivotEps {
				t.pivot(i, j)
				iters++
				drives++
				break
			}
		}
	}
	phase2 := make([]float64, n+m)
	copy(phase2, p.C)
	for j := n; j < n+m; j++ {
		phase2[j] = math.Inf(1)
	}
	it2, err := t.optimize(phase2, iters, rc)
	if err != nil {
		return Result{}, drives, err
	}
	x := make([]float64, n)
	for i, bv := range t.basis {
		if bv < n {
			x[bv] = t.b[i]
		}
	}
	return Result{X: x, Objective: linalg.Dot(p.C, x), Iters: it2}, drives, nil
}

func (t *denseTableau) objective(c []float64) float64 {
	s := 0.0
	for i, bv := range t.basis {
		if !math.IsInf(c[bv], 1) {
			s += c[bv] * t.b[i]
		}
	}
	return s
}

func (t *denseTableau) reducedCosts(c []float64, rc []float64) {
	copy(rc, c[:t.n])
	for i, bv := range t.basis {
		cb := c[bv]
		if cb == 0 || math.IsInf(cb, 1) {
			continue
		}
		for j, aij := range t.a[i] {
			rc[j] -= cb * aij
		}
	}
}

func (t *denseTableau) optimize(c []float64, startIter int, rc []float64) (int, error) {
	maxIters := 2000 + 40*(t.m+t.n)
	iters := startIter
	blandFrom := maxIters / 2
	for ; iters < maxIters; iters++ {
		t.reducedCosts(c, rc)
		enter := -1
		if iters < blandFrom {
			best := -costEps
			for j, v := range rc {
				if v < best {
					best, enter = v, j
				}
			}
		} else {
			for j, v := range rc {
				if v < -costEps {
					enter = j
					break
				}
			}
		}
		if enter == -1 {
			return iters, nil
		}
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
	}
	return iters, ErrIterationLimit
}

func (t *denseTableau) pivot(leave, enter int) {
	row := t.a[leave]
	inv := 1 / row[enter]
	for j := range row {
		row[j] *= inv
	}
	t.b[leave] *= inv
	row[enter] = 1
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := range ri {
			ri[j] -= f * row[j]
		}
		ri[enter] = 0
		t.b[i] -= f * t.b[leave]
	}
	t.basis[leave] = enter
}

// l1NonPositiveProblem builds the standard-form program that
// Workspace.MinimizeL1ResidualNonPositive solves for (A, y).
func l1NonPositiveProblem(a *linalg.Matrix, y []float64) Problem {
	m, n := a.Rows, a.Cols
	pa := linalg.NewMatrix(m, n+2*m)
	c := make([]float64, n+2*m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			pa.Set(i, j, -a.At(i, j))
		}
		pa.Set(i, n+i, 1)
		pa.Set(i, n+m+i, -1)
	}
	for j := range c {
		c[j] = 1
		if j < n {
			c[j] = 1e-6
		}
	}
	return Problem{C: c, A: pa, B: y}
}

// sameBits reports the first element where got and want differ as float64
// bit patterns, or "" when they agree exactly.
func sameBits(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("X[%d] = %v (%#x), want %v (%#x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// checkOracle solves p with ws and with the dense oracle and fails unless X,
// Objective, Iters and the error agree exactly. It returns the oracle's
// result, drive-out count and error.
func checkOracle(t *testing.T, name string, ws *Workspace, p Problem) (want Result, drives int, err error) {
	t.Helper()
	want, drives, err = denseSolve(p)
	got, gotErr := ws.Solve(p)
	if gotErr != err {
		t.Fatalf("%s: err = %v, want %v", name, gotErr, err)
	}
	if err != nil {
		return want, drives, err
	}
	if got.Iters != want.Iters {
		t.Fatalf("%s: Iters = %d, want %d", name, got.Iters, want.Iters)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: Objective = %v, want %v", name, got.Objective, want.Objective)
	}
	if d := sameBits(got.X, want.X); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
	return want, drives, nil
}

// TestSolveMatchesDenseOracle runs random programs of every outcome through
// one reused workspace and the dense oracle: dense Gaussian programs with
// mixed-sign right-hand sides and costs (optimal, infeasible and unbounded
// outcomes), and 0/1 programs with redundant rows (drive-out pivots).
func TestSolveMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ws := new(Workspace)
	outcomes := map[error]int{}
	drives := 0
	for trial := 0; trial < 400; trial++ {
		m, n := 1+rng.Intn(12), 2+rng.Intn(30)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			if rng.Intn(3) > 0 {
				a.Data[i] = rng.NormFloat64()
			}
		}
		b := make([]float64, m)
		if trial%2 == 0 {
			// Feasible by construction from a nonnegative point.
			x0 := make([]float64, n)
			for j := range x0 {
				x0[j] = rng.Float64()
			}
			b = a.MulVec(x0)
		} else {
			for i := range b {
				b[i] = rng.NormFloat64()
			}
		}
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64()
			if trial%3 == 0 {
				c[j] -= 0.3
			}
		}
		_, _, err := checkOracle(t, fmt.Sprintf("dense trial %d (%dx%d)", trial, m, n), ws, Problem{C: c, A: a, B: b})
		outcomes[err]++
	}
	for trial := 0; trial < 200; trial++ {
		// 0/1 rows, some of them sums or copies of earlier rows.
		m, n := 2+rng.Intn(10), 2+rng.Intn(12)
		a := linalg.NewMatrix(m, n)
		for i := 0; i < m; i++ {
			row := a.Row(i)
			if i >= 2 && rng.Intn(2) == 0 {
				p, q := rng.Intn(i), rng.Intn(i)
				for j := range row {
					row[j] = a.At(p, j)
					if q != p {
						row[j] += a.At(q, j)
					}
				}
				continue
			}
			for j := range row {
				row[j] = float64(rng.Intn(2))
			}
		}
		x0 := make([]float64, n)
		for j := range x0 {
			if rng.Intn(2) == 0 {
				x0[j] = float64(rng.Intn(3))
			}
		}
		b := a.MulVec(x0)
		c := make([]float64, n)
		for j := range c {
			c[j] = float64(rng.Intn(4))
		}
		_, d, err := checkOracle(t, fmt.Sprintf("redundant trial %d (%dx%d)", trial, m, n), ws, Problem{C: c, A: a, B: b})
		outcomes[err]++
		drives += d
	}
	for _, want := range []error{nil, ErrInfeasible, ErrUnbounded} {
		if outcomes[want] == 0 {
			t.Errorf("no trial ended with err = %v; outcomes %v", want, outcomes)
		}
	}
	if drives == 0 {
		t.Error("no trial ran a drive-out pivot between the phases")
	}
}

// TestSolveMatchesDenseOracleFixed runs the hand-written edge programs of
// simplex_test.go through the oracle comparison.
func TestSolveMatchesDenseOracleFixed(t *testing.T) {
	cases := []struct {
		name string
		p    Problem
		err  error
	}{
		{"textbook", Problem{C: []float64{-3, -5, 0, 0, 0}, A: linalg.FromRows([][]float64{
			{1, 0, 1, 0, 0}, {0, 2, 0, 1, 0}, {3, 2, 0, 0, 1}}), B: []float64{4, 12, 18}}, nil},
		{"negative rhs", Problem{C: []float64{1, 1}, A: linalg.FromRows([][]float64{{-1, 0}}), B: []float64{-3}}, nil},
		{"redundant row", Problem{C: []float64{1, 1, 0, 0}, A: linalg.FromRows([][]float64{
			{1, 0, 1, 0}, {0, 1, 0, 1}, {1, 1, 1, 1}}), B: []float64{2, 3, 5}}, nil},
		{"drive-out", Problem{C: []float64{1, 1}, A: linalg.FromRows([][]float64{
			{1, 1}, {1, -1}, {2, 0}}), B: []float64{0, 0, 0}}, nil},
		{"infeasible", Problem{C: []float64{1, 1}, A: linalg.FromRows([][]float64{{1, 1}, {1, 1}}), B: []float64{1, 2}}, ErrInfeasible},
		{"unbounded", Problem{C: []float64{-1, 0}, A: linalg.FromRows([][]float64{{1, -1}}), B: []float64{0}}, ErrUnbounded},
	}
	ws := new(Workspace)
	for _, tc := range cases {
		if _, _, err := checkOracle(t, tc.name, ws, tc.p); err != tc.err {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.err)
		}
	}
}

// tomographyProgram draws a 0/1 system shaped like the tomography equation
// system — rows are paths or path pairs, each covering a few links — with a
// right-hand side from a sparse nonpositive log-probability vector plus
// noise, so the L1 completion is both underdetermined and inconsistent.
func tomographyProgram(rng *rand.Rand, m, n int) (*linalg.Matrix, []float64) {
	a := linalg.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		row := a.Row(i)
		for k := 3 + rng.Intn(10); k > 0; k-- {
			row[rng.Intn(n)] = 1
		}
	}
	x := make([]float64, n)
	for j := range x {
		if rng.Intn(8) == 0 {
			x[j] = math.Log(1 - 0.5*rng.Float64())
		}
	}
	y := a.MulVec(x)
	for i := range y {
		y[i] += 0.01 * rng.NormFloat64()
	}
	return a, y
}

// TestL1NonPositiveMatchesDenseOracle checks the production entry point,
// Workspace.MinimizeL1ResidualNonPositive, against the oracle on
// tomography-shaped programs: synthetic ones of growing size up to the
// replay shape (A of 135 × 159, a 135 × 564 tableau), then the captured
// replay systems. One workspace serves every shape, so reuse of larger
// earlier buffers is covered too.
func TestL1NonPositiveMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var systems []replaySystem
	for _, sh := range [][2]int{{4, 6}, {12, 30}, {40, 25}, {60, 90}, {135, 159}, {20, 20}} {
		a, y := tomographyProgram(rng, sh[0], sh[1])
		systems = append(systems, replaySystem{a, y})
	}
	systems = append(systems, replaySystems(t)...)
	ws := new(Workspace)
	for s, sys := range systems {
		name := fmt.Sprintf("system %d (%dx%d)", s, sys.a.Rows, sys.a.Cols)
		want, _, err := checkOracle(t, name, ws, l1NonPositiveProblem(sys.a, sys.y))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ws.MinimizeL1ResidualNonPositive(sys.a, sys.y)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		neg := make([]float64, sys.a.Cols)
		for j := range neg {
			neg[j] = -want.X[j]
		}
		if d := sameBits(got, neg); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
}
