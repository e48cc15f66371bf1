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
// The standard-form program and the solution live in reused workspace
// storage; the returned slice aliases the workspace.
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
	ws.pa.Reshape(m, nv)
	ws.pa.Zero()
	pa := &ws.pa
	for i := 0; i < m; i++ {
		row := pa.Row(i)
		ar := a.Row(i)
		for j := 0; j < n; j++ {
			row[j] = -ar[j]
		}
		row[n+i] = 1
		row[n+m+i] = -1
	}
	ws.c = scratch.GrowZero(ws.c, nv)
	c := ws.c
	for j := 0; j < n; j++ {
		c[j] = tieEps
	}
	for j := n; j < nv; j++ {
		c[j] = 1
	}
	res, err := ws.Solve(Problem{C: c, A: pa, B: y})
	if err != nil {
		return nil, err
	}
	ws.xOut = scratch.Grow(ws.xOut, n)
	x := ws.xOut
	for j := 0; j < n; j++ {
		x[j] = -res.X[j]
	}
	return x, nil
}
