package linalg

import (
	"fmt"

	"repro/internal/scratch"
)

// RowBasis incrementally maintains an orthonormal basis for the row space of
// the rows accepted so far. It is the rank tracker of the Section-4 equation
// selection: candidate rows are offered one at a time, and only those that
// raise the rank are kept.
//
// Offer orthogonalizes a row against the basis with modified Gram–Schmidt,
// run twice (the classic "twice is enough" re-orthogonalization, which keeps
// the basis numerically orthonormal after thousands of insertions), and
// keeps the residual. Accept appends that residual, normalized, so an
// accepted row is orthogonalized once. One residual buffer serves every
// offer.
//
// Basis rows are stored packed: the ascending indices of a row's nonzero
// entries and the values there. Each projection d = r·b and each update
// r[i] -= d·b[i] runs over those entries only. The result is bit-identical
// to the dense computation over all entries: d still sums its nonzero terms
// in ascending order from +0, and a skipped r[i]·0 term could change only
// the sign of a zero, which Norm2 squares away before any decision. Rows
// must be finite.
//
// Basis row j depends only on the rows accepted before it, so the basis
// after k accepted rows is the first k rows of every later state of the same
// basis. Resume starts a basis from another basis's first k rows, which it
// reads in place.
type RowBasis struct {
	dim int
	tol float64
	// prefix, when set, holds this basis's first nPrefix rows, read only.
	prefix  *RowBasis
	nPrefix int
	// The basis's own rows, packed: row j's nonzero entries are at indices
	// idx[end[j-1]:end[j]] (end[-1] = 0) with values val[end[j-1]:end[j]].
	end []int
	idx []int32
	val []float64
	// r is the residual of the last Offer, and inv its inverse norm when the
	// offer raised the rank (0 otherwise).
	r   []float64
	inv float64
}

// NewRowBasis creates a basis tracker for rows of the given dimension.
// tol is the relative tolerance below which a residual is considered zero;
// pass 0 for the default (1e-9).
func NewRowBasis(dim int, tol float64) *RowBasis {
	if dim <= 0 {
		panic(fmt.Sprintf("linalg: RowBasis dimension %d", dim))
	}
	if tol <= 0 {
		tol = 1e-9
	}
	return &RowBasis{dim: dim, tol: tol, r: make([]float64, dim)}
}

// Resume makes rb the basis of base's first k rows and of nothing else.
// Those rows are read from base in place, so base must not change while rb
// is in use; base must not itself be resumed. rb's own storage, grown by
// earlier use, is kept for the rows it accepts next, so a warm rb resumes
// without allocating. The zero RowBasis may be resumed.
func (rb *RowBasis) Resume(base *RowBasis, k int) {
	if base.prefix != nil {
		panic("linalg: RowBasis resumed from a resumed basis")
	}
	if k < 0 || k > base.Rank() {
		panic(fmt.Sprintf("linalg: RowBasis resumed at row %d of %d", k, base.Rank()))
	}
	rb.dim, rb.tol = base.dim, base.tol
	rb.prefix, rb.nPrefix = base, k
	rb.end, rb.idx, rb.val = rb.end[:0], rb.idx[:0], rb.val[:0]
	rb.r = scratch.Grow(rb.r, rb.dim)
	rb.inv = 0
}

// Rank returns the number of linearly independent rows accepted so far.
func (rb *RowBasis) Rank() int { return rb.nPrefix + len(rb.end) }

// Full reports whether the basis spans the whole space.
func (rb *RowBasis) Full() bool { return rb.Rank() == rb.dim }

// Offer computes the residual of row against the basis and reports whether
// the row is linearly independent of the accepted rows. The basis is not
// changed; Accept appends the residual.
func (rb *RowBasis) Offer(row []float64) bool {
	if len(row) != rb.dim {
		panic(fmt.Sprintf("linalg: RowBasis row has dim %d, want %d", len(row), rb.dim))
	}
	rb.inv = 0
	if rb.Full() {
		return false
	}
	orig := Norm2(row)
	if orig == 0 {
		return false
	}
	r := rb.r
	copy(r, row)
	for pass := 0; pass < 2; pass++ {
		if rb.prefix != nil {
			rb.prefix.project(r, rb.nPrefix)
		}
		rb.project(r, len(rb.end))
	}
	n := Norm2(r)
	if n <= rb.tol*orig {
		return false
	}
	rb.inv = 1 / n
	return true
}

// Accept appends the residual of the last Offer, normalized, as the next
// basis row. It panics unless that Offer returned true and no Accept
// followed it.
func (rb *RowBasis) Accept() {
	if rb.inv == 0 {
		panic("linalg: RowBasis.Accept without an independent Offer")
	}
	for i, v := range rb.r {
		if v *= rb.inv; v != 0 {
			rb.idx = append(rb.idx, int32(i))
			rb.val = append(rb.val, v)
		}
	}
	rb.end = append(rb.end, len(rb.idx))
	rb.inv = 0
}

// project subtracts from r its projection on each of rb's first k own rows,
// in order.
func (rb *RowBasis) project(r []float64, k int) {
	lo := 0
	for _, hi := range rb.end[:k] {
		idx, val := rb.idx[lo:hi], rb.val[lo:hi]
		lo = hi
		val = val[:len(idx)]
		d := 0.0
		for t, i := range idx {
			d += r[i] * val[t]
		}
		if d == 0 {
			continue
		}
		for t, i := range idx {
			r[i] -= d * val[t]
		}
	}
}
