package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEqual(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func TestSolveLUKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  => x = 1, y = 3
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := new(Workspace).SolveLU(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(x, []float64{1, 3}, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := new(Workspace).SolveLU(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveLUNeedsPivoting(t *testing.T) {
	// Zero on the initial diagonal forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := new(Workspace).SolveLU(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(x, []float64{3, 2}, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveLUDimensionErrors(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if _, err := new(Workspace).SolveLU(a, []float64{1, 2}); err == nil {
		t.Fatal("non-square accepted")
	}
	sq := FromRows([][]float64{{1, 0}, {0, 1}})
	if _, err := new(Workspace).SolveLU(sq, []float64{1}); err == nil {
		t.Fatal("bad rhs accepted")
	}
}

// Property: for random well-conditioned square systems, SolveLU recovers the
// planted solution.
func TestSolveLURandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ws Workspace // reused across trials
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance keeps the system well conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := ws.SolveLU(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !vecAlmostEqual(got, want, 1e-8) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Consistent overdetermined system: solution must be exact.
	a := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	want := []float64{2, -3}
	b := a.MulVec(want)
	got, err := new(Workspace).LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(got, want, 1e-10) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(2))
	var ws Workspace // reused across trials
	for trial := 0; trial < 50; trial++ {
		m, n := 8+rng.Intn(8), 2+rng.Intn(5)
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := ws.LeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := Sub(a.MulVec(x), b)
		atr := a.TransposeMulVec(r)
		for _, v := range atr {
			if math.Abs(v) > 1e-8 {
				t.Fatalf("trial %d: Aᵀr = %v not ~0", trial, atr)
			}
		}
	}
}

func TestLeastSquaresRankDeficient(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := new(Workspace).LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("rank-deficient system accepted")
	}
}

func TestLeastSquaresUnderdeterminedRejected(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}})
	if _, err := new(Workspace).LeastSquares(a, []float64{1}); err == nil {
		t.Fatal("underdetermined system accepted")
	}
}

func TestMinNormSolve(t *testing.T) {
	// x + y = 2 has min-norm solution (1, 1).
	a := FromRows([][]float64{{1, 1}})
	x, err := new(Workspace).MinNormSolve(a, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(x, []float64{1, 1}, 1e-6) {
		t.Fatalf("x = %v, want [1 1]", x)
	}
}

// Property: MinNormSolve satisfies the constraints, and any feasible
// perturbation within the row space has larger norm.
func TestMinNormSolveIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m, n := 2+rng.Intn(3), 6+rng.Intn(6) // underdetermined
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := new(Workspace).MinNormSolve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := Sub(a.MulVec(x), b); Norm2(r) > 1e-5 {
			t.Fatalf("trial %d: infeasible, residual %v", trial, Norm2(r))
		}
		// Add a random null-space direction: norm must not decrease.
		z := make([]float64, n)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		// Project z onto null space: z - Aᵀ(AAᵀ)⁻¹Az
		az := a.MulVec(z)
		corr, err := new(Workspace).MinNormSolve(a, az)
		if err != nil {
			t.Fatal(err)
		}
		null := Sub(z, corr)
		pert := make([]float64, n)
		for i := range pert {
			pert[i] = x[i] + null[i]
		}
		if Norm2(pert) < Norm2(x)-1e-6 {
			t.Fatalf("trial %d: found feasible point with smaller norm", trial)
		}
	}
}

func TestMulVecAndTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := a.MulVec([]float64{1, 1})
	if !vecAlmostEqual(got, []float64{3, 7, 11}, 0) {
		t.Fatalf("MulVec = %v", got)
	}
	gt := a.TransposeMulVec([]float64{1, 0, 1})
	if !vecAlmostEqual(gt, []float64{6, 8}, 0) {
		t.Fatalf("TransposeMulVec = %v", gt)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot")
	}
	if Norm1([]float64{-1, 2, -3}) != 6 {
		t.Fatal("Norm1")
	}
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2")
	}
	if !vecAlmostEqual(Sub([]float64{3, 4}, []float64{1, 1}), []float64{2, 3}, 0) {
		t.Fatal("Sub")
	}
}

// Property (quick): Dot is symmetric and bilinear over random vectors.
func TestDotProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a, b := raw[:half], raw[half:2*half]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true // skip pathological inputs
			}
		}
		d1, d2 := Dot(a, b), Dot(b, a)
		return almostEqual(d1, d2, 1e-9*(1+math.Abs(d1)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
