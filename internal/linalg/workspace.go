package linalg

import "repro/internal/scratch"

// Workspace holds the scratch state of the solvers, which do not allocate
// per call: clone targets for the destructive elimination cores and
// reusable solution buffers. A Workspace may be reused across any number of
// solves of any sizes (buffers grow monotonically and are retained), but a
// single Workspace must not be used by two goroutines at once, and every
// returned slice aliases workspace storage — it is valid only until the next
// call on the same workspace.
type Workspace struct {
	m     Matrix    // clone/Gram scratch destroyed by the elimination cores
	x     []float64 // solution buffer returned to the caller
	y     []float64 // rhs scratch destroyed by the QR / Gram cores
	rdiag []float64 // R-diagonal scratch of the QR core
}

// SolveLU solves the square system A·x = b by Gaussian elimination with
// partial pivoting. A and b are not modified; the solution slice is
// workspace-owned.
func (ws *Workspace) SolveLU(a *Matrix, b []float64) ([]float64, error) {
	if err := checkSolveLU(a, b); err != nil {
		return nil, err
	}
	ws.m.CopyFrom(a)
	ws.x = scratch.Grow(ws.x, a.Rows)
	copy(ws.x, b)
	if err := solveLUInPlace(&ws.m, ws.x); err != nil {
		return nil, err
	}
	return ws.x, nil
}

// LeastSquares solves min‖A·x − b‖₂ for an m×n matrix with m ≥ n using
// Householder QR. Returns ErrSingular if A is (numerically) rank deficient.
// A and b are not modified; the solution slice is workspace-owned.
func (ws *Workspace) LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if err := checkLeastSquares(a, b); err != nil {
		return nil, err
	}
	ws.m.CopyFrom(a)
	ws.y = scratch.Grow(ws.y, a.Rows)
	copy(ws.y, b)
	ws.rdiag = scratch.Grow(ws.rdiag, a.Cols)
	ws.x = scratch.Grow(ws.x, a.Cols)
	if err := leastSquaresInPlace(&ws.m, ws.y, ws.rdiag, ws.x); err != nil {
		return nil, err
	}
	return ws.x, nil
}

// MinNormSolve returns the minimum-L2-norm x with A·x ≈ b for an
// underdetermined (or any) system, computed as x = Aᵀ·(A·Aᵀ + λI)⁻¹·b with a
// tiny Tikhonov term λ for numerical safety. A and b are not modified; the
// solution slice is workspace-owned.
func (ws *Workspace) MinNormSolve(a *Matrix, b []float64) ([]float64, error) {
	if err := checkMinNorm(a, b); err != nil {
		return nil, err
	}
	ws.m.Reshape(a.Rows, a.Rows)
	ws.y = scratch.Grow(ws.y, a.Rows)
	if err := minNormGram(a, b, &ws.m, ws.y); err != nil {
		return nil, err
	}
	ws.x = scratch.Grow(ws.x, a.Cols)
	a.TransposeMulVecInto(ws.y, ws.x)
	return ws.x, nil
}
