package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zero-valued r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices, which must all have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (not a copy).
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Reshape resizes m to r×c in place, reusing the backing array when it is
// large enough. The element values after a reshape are unspecified; callers
// must fill (or Zero) the matrix before reading it.
func (m *Matrix) Reshape(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", r, c))
	}
	n := r * c
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = r, c
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CopyFrom reshapes m to src's dimensions and copies src's elements.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.Reshape(src.Rows, src.Cols)
	copy(m.Data, src.Data)
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %d cols vs %d vec", m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		s := 0.0
		for c, v := range row {
			s += v * x[c]
		}
		out[r] = s
	}
	return out
}

// TransposeMulVec returns mᵀ·x.
func (m *Matrix) TransposeMulVec(x []float64) []float64 {
	out := make([]float64, m.Cols)
	m.TransposeMulVecInto(x, out)
	return out
}

// TransposeMulVecInto computes mᵀ·x into out (which must have length Cols) —
// the allocation-free form of TransposeMulVec.
func (m *Matrix) TransposeMulVecInto(x, out []float64) {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("linalg: TransposeMulVec dimension mismatch: %d rows vs %d vec", m.Rows, len(x)))
	}
	if len(out) != m.Cols {
		panic(fmt.Sprintf("linalg: TransposeMulVec out has length %d, want %d", len(out), m.Cols))
	}
	for c := range out {
		out[c] = 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		xr := x[r]
		if xr == 0 {
			continue
		}
		for c, v := range row {
			out[c] += v * xr
		}
	}
}

// ErrSingular is returned when a square solve encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

func checkSolveLU(a *Matrix, b []float64) error {
	if a == nil {
		return fmt.Errorf("linalg: SolveLU: nil matrix")
	}
	if a.Cols != a.Rows {
		return fmt.Errorf("linalg: SolveLU needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return fmt.Errorf("linalg: SolveLU rhs has length %d, want %d", len(b), a.Rows)
	}
	return nil
}

// solveLUInPlace is the elimination core of Workspace.SolveLU and of the
// min-norm Gram solve: m is destroyed, x holds b on entry and the solution
// on return. Dimensions must already be validated.
func solveLUInPlace(m *Matrix, x []float64) error {
	n := m.Rows
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, pmax := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > pmax {
				piv, pmax = r, v
			}
		}
		if pmax < 1e-12 {
			return ErrSingular
		}
		if piv != col {
			ra, rb := m.Row(col), m.Row(piv)
			for c := range ra {
				ra[c], rb[c] = rb[c], ra[c]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			rowR, rowC := m.Row(r), m.Row(col)
			for c := col; c < n; c++ {
				rowR[c] -= f * rowC[c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		row := m.Row(r)
		for c := r + 1; c < n; c++ {
			s -= row[c] * x[c]
		}
		x[r] = s / row[r]
	}
	return nil
}

func checkLeastSquares(a *Matrix, b []float64) error {
	if a == nil {
		return fmt.Errorf("linalg: LeastSquares: nil matrix")
	}
	if a.Rows < a.Cols {
		return fmt.Errorf("linalg: LeastSquares needs rows ≥ cols, got %d×%d (use MinNormSolve)", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return fmt.Errorf("linalg: LeastSquares rhs has length %d, want %d", len(b), a.Rows)
	}
	return nil
}

// leastSquaresInPlace is the QR core of Workspace.LeastSquares: qr and y
// are destroyed, rdiag (length Cols) is scratch, and the solution lands in
// x (length Cols). Dimensions must already be validated.
func leastSquaresInPlace(qr *Matrix, y, rdiag, x []float64) error {
	m, n := qr.Rows, qr.Cols

	// Householder QR, LINPACK/JAMA formulation: column k of qr below the
	// diagonal stores the (scaled) Householder vector, rdiag[k] stores R's
	// diagonal, and qr's strict upper triangle stores the rest of R.
	for k := 0; k < n; k++ {
		nrm := 0.0
		for r := k; r < m; r++ {
			nrm = math.Hypot(nrm, qr.At(r, k))
		}
		if nrm < 1e-12 {
			return ErrSingular
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for r := k; r < m; r++ {
			qr.Set(r, k, qr.At(r, k)/nrm)
		}
		qr.Set(k, k, qr.At(k, k)+1)

		// Apply the reflector to the remaining columns.
		for c := k + 1; c < n; c++ {
			s := 0.0
			for r := k; r < m; r++ {
				s += qr.At(r, k) * qr.At(r, c)
			}
			s = -s / qr.At(k, k)
			for r := k; r < m; r++ {
				qr.Set(r, c, qr.At(r, c)+s*qr.At(r, k))
			}
		}
		// Apply the reflector to the right-hand side.
		s := 0.0
		for r := k; r < m; r++ {
			s += qr.At(r, k) * y[r]
		}
		s = -s / qr.At(k, k)
		for r := k; r < m; r++ {
			y[r] += s * qr.At(r, k)
		}
		rdiag[k] = -nrm
	}

	// Back substitution with R.
	for r := n - 1; r >= 0; r-- {
		s := y[r]
		for c := r + 1; c < n; c++ {
			s -= qr.At(r, c) * x[c]
		}
		if math.Abs(rdiag[r]) < 1e-12 {
			return ErrSingular
		}
		x[r] = s / rdiag[r]
	}
	return nil
}

func checkMinNorm(a *Matrix, b []float64) error {
	if a == nil {
		return fmt.Errorf("linalg: MinNormSolve: nil matrix")
	}
	if len(b) != a.Rows {
		return fmt.Errorf("linalg: MinNormSolve rhs has length %d, want %d", len(b), a.Rows)
	}
	return nil
}

// minNormGram builds the regularized Gram system G = A·Aᵀ + λI into g
// (pre-reshaped to Rows×Rows) and solves G·w = b in place: g is destroyed
// and w (length Rows) receives the dual solution. The core of
// Workspace.MinNormSolve.
func minNormGram(a *Matrix, b []float64, g *Matrix, w []float64) error {
	m := a.Rows
	for i := 0; i < m; i++ {
		ri := a.Row(i)
		for j := i; j < m; j++ {
			rj := a.Row(j)
			s := 0.0
			for c := range ri {
				s += ri[c] * rj[c]
			}
			g.Set(i, j, s)
			g.Set(j, i, s)
		}
	}
	const lambda = 1e-10
	for i := 0; i < m; i++ {
		g.Set(i, i, g.At(i, i)+lambda)
	}
	copy(w, b)
	return solveLUInPlace(g, w)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// Norm1 returns the L1 norm of v.
func Norm1(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Sub returns a − b.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
