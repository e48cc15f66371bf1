package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestSolverDimensionErrors pins the exact error strings of the dense
// solvers on malformed inputs — nil matrices and mismatched dimensions must
// surface as errors, never panics.
func TestSolverDimensionErrors(t *testing.T) {
	a32 := NewMatrix(3, 2)
	a23 := NewMatrix(2, 3)
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"SolveLU nil matrix", func() error { _, err := new(Workspace).SolveLU(nil, nil); return err },
			"linalg: SolveLU: nil matrix"},
		{"SolveLU non-square", func() error { _, err := new(Workspace).SolveLU(a32, make([]float64, 3)); return err },
			"linalg: SolveLU needs a square matrix, got 3×2"},
		{"SolveLU short rhs", func() error { _, err := new(Workspace).SolveLU(NewMatrix(2, 2), []float64{1}); return err },
			"linalg: SolveLU rhs has length 1, want 2"},
		{"LeastSquares nil matrix", func() error { _, err := new(Workspace).LeastSquares(nil, nil); return err },
			"linalg: LeastSquares: nil matrix"},
		{"LeastSquares underdetermined", func() error { _, err := new(Workspace).LeastSquares(a23, make([]float64, 2)); return err },
			"linalg: LeastSquares needs rows ≥ cols, got 2×3 (use MinNormSolve)"},
		{"LeastSquares short rhs", func() error { _, err := new(Workspace).LeastSquares(a32, []float64{1}); return err },
			"linalg: LeastSquares rhs has length 1, want 3"},
		{"MinNormSolve nil matrix", func() error { _, err := new(Workspace).MinNormSolve(nil, nil); return err },
			"linalg: MinNormSolve: nil matrix"},
		{"MinNormSolve short rhs", func() error { _, err := new(Workspace).MinNormSolve(a23, []float64{1}); return err },
			"linalg: MinNormSolve rhs has length 1, want 2"},
	}
	// The same checks on a workspace whose buffers an earlier solve grew.
	var ws Workspace
	if _, err := ws.SolveLU(NewMatrix(3, 3), make([]float64, 3)); err != ErrSingular {
		t.Fatalf("warm-up solve: err = %v, want ErrSingular", err)
	}
	wsCases := []struct {
		name string
		call func() error
		want string
	}{
		{"Workspace.SolveLU nil", func() error { _, err := ws.SolveLU(nil, nil); return err },
			"linalg: SolveLU: nil matrix"},
		{"Workspace.LeastSquares nil", func() error { _, err := ws.LeastSquares(nil, nil); return err },
			"linalg: LeastSquares: nil matrix"},
		{"Workspace.MinNormSolve nil", func() error { _, err := ws.MinNormSolve(nil, nil); return err },
			"linalg: MinNormSolve: nil matrix"},
	}
	for _, c := range append(cases, wsCases...) {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			if err == nil {
				t.Fatalf("no error, want %q", c.want)
			}
			if err.Error() != c.want {
				t.Fatalf("error = %q, want %q", err.Error(), c.want)
			}
		})
	}
}

// TestSolversSurviveRandomShapes: fuzz-style randomized shapes must never
// panic any solver, on a workspace reused across every shape.
func TestSolversSurviveRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	var ws Workspace
	for trial := 0; trial < 400; trial++ {
		m, n := rng.Intn(5), rng.Intn(5)
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, rng.Intn(6))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		_, _ = ws.SolveLU(a, b)
		_, _ = ws.LeastSquares(a, b)
		_, _ = ws.MinNormSolve(a, b)
	}
}

// TestWorkspaceSolversMatchAllocating pins a workspace reused across
// systems of changing shapes against a fresh workspace per solve (the
// allocating way to call the solvers): leftover buffers must never leak
// into a result, so the solutions agree bit for bit.
func TestWorkspaceSolversMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var ws Workspace
	check := func(name string, want, got []float64, wantErr, gotErr error) {
		t.Helper()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: reused workspace err %v, fresh err %v", name, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if len(want) != len(got) {
			t.Fatalf("%s: reused workspace len %d, fresh %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s: x[%d] reused workspace %v != fresh %v", name, i, got[i], want[i])
			}
		}
	}
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(3)
		sq := NewMatrix(n, n)
		for i := range sq.Data {
			sq.Data[i] = rng.NormFloat64()
		}
		tall := NewMatrix(m, n)
		for i := range tall.Data {
			tall.Data[i] = rng.NormFloat64()
		}
		bn := make([]float64, n)
		bm := make([]float64, m)
		for i := range bn {
			bn[i] = rng.NormFloat64()
		}
		for i := range bm {
			bm[i] = rng.NormFloat64()
		}

		want, wantErr := new(Workspace).SolveLU(sq, bn)
		got, gotErr := ws.SolveLU(sq, bn)
		check("SolveLU", want, got, wantErr, gotErr)

		want, wantErr = new(Workspace).LeastSquares(tall, bm)
		got, gotErr = ws.LeastSquares(tall, bm)
		check("LeastSquares", want, got, wantErr, gotErr)

		want, wantErr = new(Workspace).MinNormSolve(tall, bm)
		got, gotErr = ws.MinNormSolve(tall, bm)
		check("MinNormSolve", want, got, wantErr, gotErr)
	}
}
