package core

import (
	"repro/internal/bitset"
	"repro/internal/linalg"
)

// denseTracker is the dense two-pass Gram–Schmidt rank tracker that the
// packed linalg.RowBasis replaced, kept as the oracle of its decisions:
// every basis row is a full |E|-length slice, and a row is projected on
// every basis row over all entries, zeros included.
type denseTracker struct {
	dim   int
	tol   float64
	basis [][]float64
	row   []float64
	// res is the residual of the last offer that raised the rank.
	res []float64
}

func newDenseTracker(dim int) *denseTracker {
	return &denseTracker{dim: dim, tol: 1e-9, row: make([]float64, dim)}
}

// oracleTracker is the fused oracle's rank tracker: the dense float
// tracker, or a fresh GF(2) tracker when gf2 is set.
func oracleTracker(nl int, gf2 bool) rankTracker {
	if gf2 {
		return newRankTracker(nl, true)
	}
	return newDenseTracker(nl)
}

func (t *denseTracker) offer(links *bitset.Set) bool {
	t.res = nil
	if t.full() {
		return false
	}
	row := toRow(t.row, links)
	orig := linalg.Norm2(row)
	if orig == 0 {
		return false
	}
	r := append([]float64(nil), row...)
	for pass := 0; pass < 2; pass++ {
		for _, b := range t.basis {
			d := linalg.Dot(r, b)
			if d == 0 {
				continue
			}
			for i := range r {
				r[i] -= d * b[i]
			}
		}
	}
	n := linalg.Norm2(r)
	if n <= t.tol*orig {
		return false
	}
	inv := 1 / n
	for i := range r {
		r[i] *= inv
	}
	t.res = r
	return true
}

func (t *denseTracker) accept() {
	if t.res == nil {
		panic("denseTracker.accept without an independent offer")
	}
	t.basis = append(t.basis, t.res)
	t.res = nil
}

func (t *denseTracker) rank() int  { return len(t.basis) }
func (t *denseTracker) full() bool { return len(t.basis) == t.dim }

// resume copies the first k rows' slice headers: the rows themselves are
// never written after accept.
func (t *denseTracker) resume(_ *Workspace, k int) rankTracker {
	return &denseTracker{dim: t.dim, tol: t.tol, basis: t.basis[:k:k], row: make([]float64, t.dim)}
}
