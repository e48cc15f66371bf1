package lp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestSolveTextbook(t *testing.T) {
	// max 3a + 5b s.t. a ≤ 4, 2b ≤ 12, 3a + 2b ≤ 18 (classic Dantzig
	// example; optimum 36 at a=2, b=6). In standard form with slacks:
	// min -3a -5b.
	a := linalg.FromRows([][]float64{
		{1, 0, 1, 0, 0},
		{0, 2, 0, 1, 0},
		{3, 2, 0, 0, 1},
	})
	res, err := new(Workspace).Solve(Problem{
		C: []float64{-3, -5, 0, 0, 0},
		A: a,
		B: []float64{4, 12, 18},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective+36) > 1e-8 {
		t.Fatalf("objective = %v, want -36", res.Objective)
	}
	if math.Abs(res.X[0]-2) > 1e-8 || math.Abs(res.X[1]-6) > 1e-8 {
		t.Fatalf("x = %v, want [2 6 ...]", res.X)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x1 + x2 = -1 with x ≥ 0 is infeasible... b is normalized, so use
	// x1 + x2 = 1 and x1 + x2 = 2 instead.
	a := linalg.FromRows([][]float64{
		{1, 1},
		{1, 1},
	})
	_, err := new(Workspace).Solve(Problem{C: []float64{1, 1}, A: a, B: []float64{1, 2}})
	if err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// min -x1 s.t. x1 - x2 = 0: x1 can grow without bound.
	a := linalg.FromRows([][]float64{{1, -1}})
	_, err := new(Workspace).Solve(Problem{C: []float64{-1, 0}, A: a, B: []float64{0}})
	if err != ErrUnbounded {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// -x1 = -3 ⇒ x1 = 3; row normalization must handle b < 0.
	a := linalg.FromRows([][]float64{{-1, 0}})
	res, err := new(Workspace).Solve(Problem{C: []float64{1, 1}, A: a, B: []float64{-3}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-9 {
		t.Fatalf("x = %v", res.X)
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	a := linalg.FromRows([][]float64{{1, 0}})
	if _, err := new(Workspace).Solve(Problem{C: []float64{1}, A: a, B: []float64{1}}); err == nil {
		t.Fatal("bad c accepted")
	}
	if _, err := new(Workspace).Solve(Problem{C: []float64{1, 2}, A: a, B: []float64{1, 2}}); err == nil {
		t.Fatal("bad b accepted")
	}
}

func TestSolveDegenerateRedundantRow(t *testing.T) {
	// Redundant constraint: third row is the sum of the first two.
	a := linalg.FromRows([][]float64{
		{1, 0, 1, 0},
		{0, 1, 0, 1},
		{1, 1, 1, 1},
	})
	res, err := new(Workspace).Solve(Problem{C: []float64{1, 1, 0, 0}, A: a, B: []float64{2, 3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective < -1e-9 || res.Objective > 1e-9 {
		t.Fatalf("objective = %v, want 0 (slacks absorb everything)", res.Objective)
	}
}

// Iters counts every pivot, including the ones that drive a zero-level
// artificial out of the basis between the phases. Here the third row is the
// sum of the first two and b = 0, so phase 1 ends after one pivot with
// artificials basic at value 0 in rows 2 and 3.
func TestSolveItersCountsDriveOutPivots(t *testing.T) {
	a := linalg.FromRows([][]float64{
		{1, 1},
		{1, -1},
		{2, 0},
	})
	res, err := new(Workspace).Solve(Problem{C: []float64{1, 1}, A: a, B: []float64{0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: x1 enters in row 1 (1 pivot) and the phase-1 objective is 0.
	// Between the phases x2 replaces the artificial of row 2 (1 pivot); row
	// 3 is redundant and keeps its artificial. Phase 2 starts optimal.
	if res.Iters != 2 {
		t.Fatalf("Iters = %d, want 2 (1 phase-1 pivot + 1 drive-out pivot)", res.Iters)
	}
	if res.X[0] != 0 || res.X[1] != 0 || res.Objective != 0 {
		t.Fatalf("x = %v, objective %v, want [0 0] and 0", res.X, res.Objective)
	}
}

// Property: the simplex optimum is no worse than any random feasible point.
func TestSolveOptimalityAgainstRandomFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ws Workspace // reused across trials
	for trial := 0; trial < 40; trial++ {
		m, n := 2+rng.Intn(3), 5+rng.Intn(5)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Construct b from a random nonnegative point so the problem is
		// feasible by construction.
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.Float64()
		}
		b := a.MulVec(x0)
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.Float64() // nonnegative costs keep it bounded
		}
		res, err := ws.Solve(Problem{C: c, A: a, B: b})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Objective > linalg.Dot(c, x0)+1e-6 {
			t.Fatalf("trial %d: simplex %.6f worse than random feasible %.6f",
				trial, res.Objective, linalg.Dot(c, x0))
		}
		// Feasibility of the returned point.
		r := linalg.Sub(a.MulVec(res.X), b)
		if linalg.Norm2(r) > 1e-6 {
			t.Fatalf("trial %d: infeasible solution, residual %v", trial, linalg.Norm2(r))
		}
		for _, v := range res.X {
			if v < -1e-9 {
				t.Fatalf("trial %d: negative variable %v", trial, v)
			}
		}
	}
}

// l1Fit solves min ‖A·x − y‖₁ with x free as the standard-form program
//
//	min 1ᵀ(s⁺ + s⁻)  s.t.  A·x⁺ − A·x⁻ + s⁺ − s⁻ = y,  x±, s± ≥ 0,
//
// exercising the simplex on free-variable splits.
func l1Fit(ws *Workspace, a *linalg.Matrix, y []float64) ([]float64, error) {
	m, n := a.Rows, a.Cols
	nv := 2*n + 2*m
	pa := linalg.NewMatrix(m, nv)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			pa.Set(i, j, a.At(i, j))
			pa.Set(i, n+j, -a.At(i, j))
		}
		pa.Set(i, 2*n+i, 1)
		pa.Set(i, 2*n+m+i, -1)
	}
	c := make([]float64, nv)
	for j := 2 * n; j < nv; j++ {
		c[j] = 1
	}
	res, err := ws.Solve(Problem{C: c, A: pa, B: y})
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	for j := range x {
		x[j] = res.X[j] - res.X[n+j]
	}
	return x, nil
}

// basisPursuitNonPositive solves min ‖x‖₁ s.t. A·x = y, x ≤ 0 as the
// standard-form program min 1ᵀu s.t. (−A)·u = y, u ≥ 0, exercising the
// simplex on hard equality constraints.
func basisPursuitNonPositive(ws *Workspace, a *linalg.Matrix, y []float64) ([]float64, error) {
	na := linalg.NewMatrix(a.Rows, a.Cols)
	c := make([]float64, a.Cols)
	for i := range na.Data {
		na.Data[i] = -a.Data[i]
	}
	for j := range c {
		c[j] = 1
	}
	res, err := ws.Solve(Problem{C: c, A: na, B: y})
	if err != nil {
		return nil, err
	}
	x := make([]float64, a.Cols)
	for j := range x {
		x[j] = -res.X[j]
	}
	return x, nil
}

func TestMinimizeL1Residual(t *testing.T) {
	// Overdetermined system with one gross outlier: L1 regression must
	// ignore the outlier where L2 would not.
	a := linalg.FromRows([][]float64{{1}, {1}, {1}, {1}, {1}})
	y := []float64{1, 1, 1, 1, 100}
	x, err := l1Fit(new(Workspace), a, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-6 {
		t.Fatalf("L1 fit = %v, want 1 (median)", x[0])
	}
}

func TestMinimizeL1ResidualExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var ws Workspace // reused across trials
	for trial := 0; trial < 20; trial++ {
		m, n := 8, 3
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		want := []float64{1, -2, 0.5}
		y := a.MulVec(want)
		x, err := l1Fit(&ws, a, y)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-6 {
				t.Fatalf("trial %d: x = %v, want %v", trial, x, want)
			}
		}
	}
}

func TestBasisPursuitNonPositive(t *testing.T) {
	// x1 + x2 = -1, x ≤ 0: the L1-minimal solutions put all mass on one
	// coordinate or split it; total must be -1 and ‖x‖₁ = 1.
	a := linalg.FromRows([][]float64{{1, 1}})
	x, err := basisPursuitNonPositive(new(Workspace), a, []float64{-1})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] > 1e-12 || x[1] > 1e-12 {
		t.Fatalf("positive entries: %v", x)
	}
	if math.Abs(x[0]+x[1]+1) > 1e-9 {
		t.Fatalf("constraint violated: %v", x)
	}
	if math.Abs(linalg.Norm1(x)-1) > 1e-9 {
		t.Fatalf("‖x‖₁ = %v, want 1", linalg.Norm1(x))
	}
}

func TestBasisPursuitPicksSparse(t *testing.T) {
	// y = A·x* with sparse nonpositive x*: basis pursuit must achieve an L1
	// norm no larger than ‖x*‖₁.
	rng := rand.New(rand.NewSource(13))
	var ws Workspace // reused across trials
	for trial := 0; trial < 25; trial++ {
		m, n := 4, 10
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		xs := make([]float64, n)
		xs[rng.Intn(n)] = -1 - rng.Float64()
		y := a.MulVec(xs)
		x, err := basisPursuitNonPositive(&ws, a, y)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if linalg.Norm1(x) > linalg.Norm1(xs)+1e-6 {
			t.Fatalf("trial %d: ‖x‖₁ = %v > ‖x*‖₁ = %v", trial, linalg.Norm1(x), linalg.Norm1(xs))
		}
		r := linalg.Sub(a.MulVec(x), y)
		if linalg.Norm2(r) > 1e-6 {
			t.Fatalf("trial %d: constraints violated by %v", trial, linalg.Norm2(r))
		}
	}
}

// Property: on random overdetermined systems, the simplex L1 objective is at
// least as good as (≤) the least-squares fit's.
func TestL1ObjectiveOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var ws Workspace
	var la linalg.Workspace
	for trial := 0; trial < 20; trial++ {
		m, n := 12, 4
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		l1 := func(x []float64) float64 { return linalg.Norm1(linalg.Sub(a.MulVec(x), y)) }

		xs, err := l1Fit(&ws, a, y)
		if err != nil {
			t.Fatalf("trial %d simplex: %v", trial, err)
		}
		xl, err := la.LeastSquares(a, y)
		if err != nil {
			t.Fatalf("trial %d LS: %v", trial, err)
		}
		if l1(xs) > l1(xl)+1e-6 {
			t.Fatalf("trial %d: simplex L1 %.8f worse than least-squares %.8f", trial, l1(xs), l1(xl))
		}
	}
}
