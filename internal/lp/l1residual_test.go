package lp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestMinimizeL1ResidualNonPositiveExact(t *testing.T) {
	// Consistent system with nonpositive solution: must be recovered with
	// ~zero residual.
	a := linalg.FromRows([][]float64{
		{1, 0, 1},
		{0, 1, 1},
		{1, 1, 0},
	})
	want := []float64{-0.2, -0.5, -0.1}
	y := a.MulVec(want)
	x, err := new(Workspace).MinimizeL1ResidualNonPositive(a, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-5 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestMinimizeL1ResidualNonPositiveSignConstraint(t *testing.T) {
	// System whose unconstrained solution has a positive coordinate:
	// x1 + x2 = -1, x2 = 0.5 → unconstrained x = (-1.5, +0.5). With x ≤ 0
	// the solver must keep every coordinate nonpositive and absorb the
	// conflict in the residual.
	a := linalg.FromRows([][]float64{
		{1, 1},
		{0, 1},
	})
	y := []float64{-1, 0.5}
	x, err := new(Workspace).MinimizeL1ResidualNonPositive(a, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if v > 1e-9 {
			t.Fatalf("x[%d] = %v > 0", i, v)
		}
	}
	// Optimal residual: setting x2 = 0 costs |0.5| on row 2; row 1 is
	// satisfiable exactly with x1 = -1. Total L1 residual = 0.5.
	res := linalg.Norm1(linalg.Sub(a.MulVec(x), y))
	if res > 0.5+1e-6 {
		t.Fatalf("residual %v, want ≤ 0.5", res)
	}
}

func TestMinimizeL1ResidualNonPositiveInfeasibleEqualities(t *testing.T) {
	// The hard-equality formulation A·x = y, x ≤ 0 would be infeasible here
	// (nested equations forcing a positive coordinate); the residual
	// formulation must still return a usable answer.
	a := linalg.FromRows([][]float64{
		{1, 1, 0},
		{1, 1, 1},
	})
	// y2 > y1 forces x3 = y2 − y1 > 0 in the equality system.
	y := []float64{-0.4, -0.3}
	x, err := new(Workspace).MinimizeL1ResidualNonPositive(a, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if v > 1e-9 {
			t.Fatalf("x[%d] = %v > 0", i, v)
		}
	}
	// Best nonpositive fit: x3 = 0, fit x1+x2 between −0.4 and −0.3 with
	// total residual 0.1.
	res := linalg.Norm1(linalg.Sub(a.MulVec(x), y))
	if res > 0.1+1e-6 {
		t.Fatalf("residual %v, want ≤ 0.1", res)
	}
}

func TestMinimizeL1ResidualNonPositiveDimensions(t *testing.T) {
	a := linalg.FromRows([][]float64{{1, 0}})
	if _, err := new(Workspace).MinimizeL1ResidualNonPositive(a, []float64{1, 2}); err == nil {
		t.Fatal("bad rhs accepted")
	}
}

// Property: the residual-minimal nonpositive solution never has a larger L1
// residual than the all-zeros point (which is always feasible).
func TestMinimizeL1ResidualNeverWorseThanZero(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		m, n := 3+rng.Intn(4), 4+rng.Intn(5)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = float64(rng.Intn(2)) // 0/1 rows like the tomography system
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = -rng.Float64()
		}
		x, err := new(Workspace).MinimizeL1ResidualNonPositive(a, y)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := linalg.Norm1(linalg.Sub(a.MulVec(x), y))
		zero := linalg.Norm1(y)
		if got > zero+1e-6 {
			t.Fatalf("trial %d: residual %v worse than the zero point %v", trial, got, zero)
		}
	}
}
