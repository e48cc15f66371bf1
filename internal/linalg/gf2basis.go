package linalg

import (
	"fmt"

	"repro/internal/bitset"
)

// GF2Basis incrementally tracks the GF(2) row space of 0/1 equation rows,
// represented as bit sets. It is the fast-path rank tracker for large
// tomography systems: XOR elimination over packed words is orders of
// magnitude cheaper than floating-point Gram–Schmidt.
//
// Soundness: rows independent over GF(2) are independent over the rationals
// (a primitive integer dependency survives reduction mod 2), so every row
// accepted by GF2Basis genuinely increases the real rank. The converse can
// fail — a row may be rejected although it is rationally independent — so a
// GF2-driven selection can under-collect equations; the solver's
// underdetermined completion covers that rare case.
//
// Invariant: the accepted rows have distinct pivots, a row's pivot being its
// minimum set bit. Rows are not back-reduced: an older row may contain a
// newer row's pivot (accepting {1,2} after {0,1} leaves bit 1 in {0,1}).
// Reduction needs only the distinct pivots: XORing the row with pivot m
// into a residual whose minimum bit is m clears bit m and sets no bit below
// it, so the residual's minimum strictly rises until it is no pivot.
//
// Like RowBasis, the basis after k accepted rows is the first k rows of every
// later state (Accept reduces only the new row), and Resume starts a basis
// from another basis's first k rows, read in place. The zero GF2Basis is an
// empty basis.
type GF2Basis struct {
	// prefix, when set, holds this basis's first nPrefix rows, read only.
	prefix  *GF2Basis
	nPrefix int
	// rows[:n] are the basis's own rows; rows[n:] is spare storage kept for
	// reuse. pivot[m] is one more than the index of the own row whose pivot
	// is m, or 0.
	rows  []*bitset.Set
	n     int
	pivot []int32
	// r is the residual of the last Offer; ok reports whether it raised the
	// rank.
	r  bitset.Set
	ok bool
}

// Resume makes b the basis of base's first k rows and of nothing else.
// Those rows are read from base in place, so base must not change while b
// is in use; base must not itself be resumed. b's own storage is kept for
// the rows it accepts next.
func (b *GF2Basis) Resume(base *GF2Basis, k int) {
	if base.prefix != nil {
		panic("linalg: GF2Basis resumed from a resumed basis")
	}
	if k < 0 || k > base.Rank() {
		panic(fmt.Sprintf("linalg: GF2Basis resumed at row %d of %d", k, base.Rank()))
	}
	b.prefix, b.nPrefix = base, k
	b.n = 0
	clear(b.pivot)
	b.ok = false
}

// Rank returns the number of independent rows accepted so far.
func (b *GF2Basis) Rank() int { return b.nPrefix + b.n }

// pivotRow returns the row among b's first k own rows whose pivot is m, or
// nil.
func (b *GF2Basis) pivotRow(m, k int) *bitset.Set {
	if m < len(b.pivot) {
		if j := int(b.pivot[m]) - 1; j >= 0 && j < k {
			return b.rows[j]
		}
	}
	return nil
}

// Offer reduces a copy of row against the basis and reports whether the row
// is GF(2)-independent of the accepted rows. The basis is not changed;
// Accept appends the reduced row.
func (b *GF2Basis) Offer(row *bitset.Set) bool {
	r := &b.r
	r.CopyFrom(row)
	for {
		m := r.Min()
		if m < 0 {
			break
		}
		var p *bitset.Set
		if b.prefix != nil {
			p = b.prefix.pivotRow(m, b.nPrefix)
		}
		if p == nil {
			p = b.pivotRow(m, b.n)
		}
		if p == nil {
			break
		}
		r.SymmetricDifferenceWith(p)
	}
	b.ok = !r.IsEmpty()
	return b.ok
}

// Accept appends the reduced row of the last Offer. It panics unless that
// Offer returned true and no Accept followed it.
func (b *GF2Basis) Accept() {
	if !b.ok {
		panic("linalg: GF2Basis.Accept without an independent Offer")
	}
	if b.n == len(b.rows) {
		b.rows = append(b.rows, &bitset.Set{})
	}
	b.rows[b.n].CopyFrom(&b.r)
	m := b.r.Min()
	for len(b.pivot) <= m {
		b.pivot = append(b.pivot, 0)
	}
	b.n++
	b.pivot[m] = int32(b.n)
	b.ok = false
}
