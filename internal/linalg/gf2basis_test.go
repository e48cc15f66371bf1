package linalg

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// gf2Add offers row to b and accepts it when it raises the rank.
func gf2Add(b *GF2Basis, row *bitset.Set) bool {
	if !b.Offer(row) {
		return false
	}
	b.Accept()
	return true
}

func TestGF2BasisBasics(t *testing.T) {
	b := new(GF2Basis)
	if b.Rank() != 0 {
		t.Fatal("fresh basis has nonzero rank")
	}
	if !gf2Add(b, bitset.FromIndices(0, 1)) {
		t.Fatal("first row rejected")
	}
	if gf2Add(b, bitset.FromIndices(0, 1)) {
		t.Fatal("duplicate row accepted")
	}
	if !b.Offer(bitset.FromIndices(1, 2)) {
		t.Fatal("independent row not recognized")
	}
	if b.Rank() != 1 {
		t.Fatal("Offer mutated the basis")
	}
	b.Accept()
	// {0,1} ⊕ {1,2} = {0,2}: dependent.
	if gf2Add(b, bitset.FromIndices(0, 2)) {
		t.Fatal("XOR-dependent row accepted")
	}
	if gf2Add(b, bitset.New(8)) {
		t.Fatal("zero row accepted")
	}
	if b.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", b.Rank())
	}
}

// TestGF2BasisInvariant pins the invariant GF2Basis keeps: accepted rows
// have distinct pivots (minimum bits), reduction only raises a row's
// minimum, and older rows are not back-reduced — {1,2} accepted after
// {0,1} leaves bit 1, the new row's pivot, in the older row.
func TestGF2BasisInvariant(t *testing.T) {
	b := new(GF2Basis)
	first := bitset.FromIndices(0, 1)
	gf2Add(b, first)
	gf2Add(b, bitset.FromIndices(1, 2))
	if !b.rows[0].Equal(first) || b.rows[1].Min() != 1 {
		t.Fatalf("rows %v %v, want {0,1} kept as accepted and pivot 1", b.rows[0], b.rows[1])
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		dim := 4 + rng.Intn(60)
		b := new(GF2Basis)
		for i := 0; i < 2*dim; i++ {
			row := bitset.New(dim)
			for k := 0; k < dim; k++ {
				if rng.Intn(4) == 0 {
					row.Add(k)
				}
			}
			if !gf2Add(b, row) {
				continue
			}
			got := b.rows[b.n-1]
			if got.Min() < row.Min() {
				t.Fatalf("trial %d: reduction lowered the minimum from %d to %d", trial, row.Min(), got.Min())
			}
			seen := map[int]bool{}
			for j, r := range b.rows[:b.n] {
				m := r.Min()
				if seen[m] {
					t.Fatalf("trial %d: pivot %d repeated", trial, m)
				}
				seen[m] = true
				if b.pivotRow(m, b.n) != r {
					t.Fatalf("trial %d: pivot %d does not map to row %d", trial, m, j)
				}
			}
		}
	}
}

// TestGF2BasisResumeMatchesRebuild is TestRowBasisResumeMatchesRebuild for
// the GF(2) tracker: at every prefix k, the resumed basis decides every
// further offer as a rebuilt one does and ends with identical rows.
func TestGF2BasisResumeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var resumed GF2Basis
	for trial := 0; trial < 30; trial++ {
		dim := 6 + rng.Intn(90)
		var rows []*bitset.Set
		for i := 0; i < 2*dim; i++ {
			row := bitset.New(dim)
			for c := 1 + rng.Intn(5); c > 0; c-- {
				row.Add(rng.Intn(dim))
			}
			rows = append(rows, row)
		}
		base := new(GF2Basis)
		var accepted []*bitset.Set
		for _, row := range rows {
			if gf2Add(base, row) {
				accepted = append(accepted, row)
			}
		}
		for k := 0; k <= base.Rank(); k++ {
			rebuilt := new(GF2Basis)
			for _, row := range accepted[:k] {
				gf2Add(rebuilt, row)
			}
			resumed.Resume(base, k)
			for i, row := range rows {
				if a, b := resumed.Offer(row), rebuilt.Offer(row); a != b {
					t.Fatalf("trial %d k %d row %d: resumed offer %v, rebuilt %v", trial, k, i, a, b)
				} else if a {
					resumed.Accept()
					rebuilt.Accept()
				}
			}
			if resumed.Rank() != rebuilt.Rank() {
				t.Fatalf("trial %d k %d: rank %d, rebuilt %d", trial, k, resumed.Rank(), rebuilt.Rank())
			}
			for j := 0; j < rebuilt.Rank(); j++ {
				got := base.rows[j]
				if j >= k {
					got = resumed.rows[j-k]
				}
				if !got.Equal(rebuilt.rows[j]) {
					t.Fatalf("trial %d k %d: row %d is %v, rebuilt %v", trial, k, j, got, rebuilt.rows[j])
				}
			}
		}
	}
}

// Property: on random 0/1 rows, GF2-accepted rows are also independent over
// the reals (the soundness direction the equation builder relies on).
func TestGF2AcceptedRowsAreRealIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		dim := 8 + rng.Intn(12)
		gf2 := new(GF2Basis)
		real := NewRowBasis(dim, 0)
		for i := 0; i < 3*dim; i++ {
			row := bitset.New(dim)
			for k := 0; k < dim; k++ {
				if rng.Intn(3) == 0 {
					row.Add(k)
				}
			}
			if !gf2Add(gf2, row) {
				continue
			}
			frow := make([]float64, dim)
			row.ForEach(func(k int) bool {
				frow[k] = 1
				return true
			})
			if !offerAccept(real, frow) {
				t.Fatalf("trial %d: GF2 accepted a row that is real-dependent", trial)
			}
		}
	}
}

// Property: GF2 rank never exceeds dimension, and equals dimension when all
// singleton rows are offered.
func TestGF2FullRank(t *testing.T) {
	const dim = 50
	b := new(GF2Basis)
	for k := 0; k < dim; k++ {
		if !gf2Add(b, bitset.FromIndices(k)) {
			t.Fatalf("singleton %d rejected", k)
		}
	}
	if b.Rank() != dim {
		t.Fatalf("rank = %d, want %d", b.Rank(), dim)
	}
	// Any further row is dependent.
	row := bitset.FromIndices(3, 17, 42)
	if gf2Add(b, row) {
		t.Fatal("row accepted after full rank")
	}
}

func TestBitsetSymmetricDifference(t *testing.T) {
	a := bitset.FromIndices(1, 2, 100)
	a.SymmetricDifferenceWith(bitset.FromIndices(2, 3, 200))
	want := bitset.FromIndices(1, 3, 100, 200)
	if !a.Equal(want) {
		t.Fatalf("xor = %v, want %v", a, want)
	}
	// XOR with self = empty.
	b := bitset.FromIndices(5, 6)
	b.SymmetricDifferenceWith(bitset.FromIndices(5, 6))
	if !b.IsEmpty() {
		t.Fatal("self-xor not empty")
	}
}
