package lp

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/scratch"
)

// MinimizeL1ResidualNonPositive solves
//
//	min ‖A·x − y‖₁ + ε·‖x‖₁  s.t.  x ≤ 0.
//
// This is the completion rule of Section 4 for underdetermined systems
// ("we pick the one that minimizes the L1 norm error"): always feasible
// (x = 0), robust to measurement noise that would make the hard equality
// system A·x = y, x ≤ 0 infeasible, and the tiny ε·‖x‖₁ tie-break prefers
// the least-congestion solution among residual-minimal ones.
//
// With u = −x ≥ 0 it is the standard-form LP
//
//	min 1ᵀ(s⁺+s⁻) + ε·1ᵀu  s.t.  −A·u + s⁺ − s⁻ = y,  u, s± ≥ 0.
//
// The standard-form program is loaded straight into the tableau, as Solve
// would load it, and the solution lives in reused workspace storage; the
// returned slice aliases the workspace.
func (ws *Workspace) MinimizeL1ResidualNonPositive(a *linalg.Matrix, y []float64) ([]float64, error) {
	if a == nil {
		return nil, fmt.Errorf("lp: MinimizeL1ResidualNonPositive: nil matrix")
	}
	m, n := a.Rows, a.Cols
	if len(y) != m {
		return nil, fmt.Errorf("lp: y has length %d, want %d", len(y), m)
	}
	const tieEps = 1e-6
	nv := n + 2*m
	// Row i of the standard form is [−A_i | e_i | −e_i] = y_i, normalized
	// like Solve's rows so the right-hand side is nonnegative.
	t := &ws.t
	t.reset(m, nv+m)
	for i := 0; i < m; i++ {
		sign := 1.0
		if y[i] < 0 {
			sign = -1
		}
		for j, v := range a.Row(i) {
			if v != 0 {
				t.put(i, j, sign*-v)
			}
		}
		t.put(i, n+i, sign)
		t.put(i, n+m+i, -sign)
		t.setArtificial(i, nv, sign*y[i])
	}
	ws.c = scratch.Grow(ws.c, nv)
	c := ws.c
	for j := 0; j < n; j++ {
		c[j] = tieEps
	}
	for j := n; j < nv; j++ {
		c[j] = 1
	}
	u, _, err := ws.run(c)
	if err != nil {
		return nil, err
	}
	ws.xOut = scratch.Grow(ws.xOut, n)
	x := ws.xOut
	for j := 0; j < n; j++ {
		x[j] = -u[j]
	}
	return x, nil
}
