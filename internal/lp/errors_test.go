package lp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// TestSolverDimensionErrors pins the exact error strings of every lp entry
// point on malformed inputs — mismatched dimensions and nil matrices must
// surface as errors, never panics (the estimator error-contract
// style).
func TestSolverDimensionErrors(t *testing.T) {
	a23 := linalg.NewMatrix(2, 3)
	var ws Workspace
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"Solve nil matrix", func() error { _, err := ws.Solve(Problem{C: []float64{1}, B: []float64{1}}); return err },
			"lp: nil constraint matrix"},
		{"Solve short b", func() error { _, err := ws.Solve(Problem{C: make([]float64, 3), A: a23, B: []float64{1}}); return err },
			"lp: b has length 1, want 2"},
		{"Solve short c", func() error { _, err := ws.Solve(Problem{C: []float64{1}, A: a23, B: make([]float64, 2)}); return err },
			"lp: c has length 1, want 3"},
		{"MinimizeL1ResidualNonPositive nil matrix", func() error { _, err := ws.MinimizeL1ResidualNonPositive(nil, nil); return err },
			"lp: MinimizeL1ResidualNonPositive: nil matrix"},
		{"MinimizeL1ResidualNonPositive short y", func() error { _, err := ws.MinimizeL1ResidualNonPositive(a23, []float64{1, 2, 3}); return err },
			"lp: y has length 3, want 2"},
	}
	for _, c := range cases {
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

// TestSolversSurviveRandomShapes is the fuzz-style randomized-input check:
// every solver fed random (often inconsistent) shapes must return — with a
// result or an error — and never panic.
func TestSolversSurviveRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var ws Workspace // reused, so every shape also meets leftover buffers
	for trial := 0; trial < 300; trial++ {
		m, n := rng.Intn(5), rng.Intn(5)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		y := make([]float64, rng.Intn(6))
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		c := make([]float64, rng.Intn(6))
		_, _ = ws.Solve(Problem{C: c, A: a, B: y})
		_, _ = ws.MinimizeL1ResidualNonPositive(a, y)
	}
}

// TestWorkspaceSolveMatchesSolve pins a workspace reused across programs of
// changing shapes against a fresh workspace per program (the allocating
// way to call it): leftover buffers must never leak into a result, so the
// solutions and errors agree bit for bit.
func TestWorkspaceSolveMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ws Workspace
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(4), 1+rng.Intn(6)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		want, wantErr := new(Workspace).MinimizeL1ResidualNonPositive(a, y)
		got, gotErr := ws.MinimizeL1ResidualNonPositive(a, y)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: reused workspace err %v, fresh err %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("trial %d: reused workspace x[%d]=%v, fresh %v", trial, i, got[i], want[i])
			}
		}
	}
}
