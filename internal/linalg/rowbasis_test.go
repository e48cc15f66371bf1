package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// offerAccept offers row to rb and accepts it when it raises the rank.
func offerAccept(rb *RowBasis, row []float64) bool {
	if !rb.Offer(row) {
		return false
	}
	rb.Accept()
	return true
}

// rowRank returns the numerical rank of a matrix, computed by offering its
// rows to a RowBasis.
func rowRank(m *Matrix) int {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	rb := NewRowBasis(m.Cols, 0)
	for r := 0; r < m.Rows && !rb.Full(); r++ {
		offerAccept(rb, m.Row(r))
	}
	return rb.Rank()
}

func TestRowBasisBasics(t *testing.T) {
	rb := NewRowBasis(3, 0)
	if !offerAccept(rb, []float64{1, 0, 0}) {
		t.Fatal("first row rejected")
	}
	if offerAccept(rb, []float64{2, 0, 0}) {
		t.Fatal("dependent row accepted")
	}
	if !rb.Offer([]float64{0, 1, 0}) {
		t.Fatal("independent row not recognized")
	}
	if rb.Rank() != 1 {
		t.Fatalf("Rank = %d after Offer (must not mutate)", rb.Rank())
	}
	rb.Accept()
	offerAccept(rb, []float64{1, 1, 0}) // dependent
	if rb.Rank() != 2 {
		t.Fatalf("Rank = %d, want 2", rb.Rank())
	}
	offerAccept(rb, []float64{1, 1, 1})
	if !rb.Full() {
		t.Fatal("basis should be full")
	}
	if offerAccept(rb, []float64{9, 9, 9}) {
		t.Fatal("full basis accepted another row")
	}
	if offerAccept(rb, make([]float64, 3)) {
		t.Fatal("zero row accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Accept after a rejected Offer did not panic")
			}
		}()
		rb.Accept()
	}()
}

// Property: RowBasis rank equals the true rank of random low-rank matrices
// constructed as products of random factors.
func TestRowBasisRankMatchesConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(8)
		r := 1 + rng.Intn(n)
		// m = L·R with L m×r and R r×n ⇒ rank ≤ r, almost surely == r.
		rows := 2 * n
		l := NewMatrix(rows, r)
		rm := NewMatrix(r, n)
		for i := range l.Data {
			l.Data[i] = rng.NormFloat64()
		}
		for i := range rm.Data {
			rm.Data[i] = rng.NormFloat64()
		}
		m := NewMatrix(rows, n)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < r; k++ {
					s += l.At(i, k) * rm.At(k, j)
				}
				m.Set(i, j, s)
			}
		}
		if got := rowRank(m); got != r {
			t.Fatalf("trial %d: rank = %d, want %d", trial, got, r)
		}
	}
}

func TestRankEdgeCases(t *testing.T) {
	if rowRank(NewMatrix(0, 0)) != 0 {
		t.Fatal("empty matrix rank")
	}
	if rowRank(NewMatrix(3, 3)) != 0 {
		t.Fatal("zero matrix rank")
	}
}

// randomIncidenceRows returns n 0/1 rows of dimension dim shaped like
// tomography equations: singletons, short paths, and unions of two earlier
// rows, so many rows depend exactly on earlier ones and many residual
// entries cancel to exact zeros.
func randomIncidenceRows(rng *rand.Rand, dim, n int) [][]float64 {
	rows := make([][]float64, 0, n)
	for len(rows) < n {
		row := make([]float64, dim)
		switch k := rng.Intn(4); {
		case k == 0 || len(rows) < 2:
			row[rng.Intn(dim)] = 1
		case k == 1:
			for c := 2 + rng.Intn(4); c > 0; c-- {
				row[rng.Intn(dim)] = 1
			}
		default:
			a, b := rows[rng.Intn(len(rows))], rows[rng.Intn(len(rows))]
			for i := range row {
				if a[i] != 0 || b[i] != 0 {
					row[i] = 1
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// packedRow returns basis row j of rb: its nonzero indices and values.
func packedRow(rb *RowBasis, j int) ([]int32, []float64) {
	if j < rb.nPrefix {
		return packedRow(rb.prefix, j)
	}
	j -= rb.nPrefix
	lo := 0
	if j > 0 {
		lo = rb.end[j-1]
	}
	return rb.idx[lo:rb.end[j]], rb.val[lo:rb.end[j]]
}

// TestRowBasisResumeMatchesRebuild pins the prefix property Resume relies
// on: at every prefix k of a basis's accepted rows, a basis resumed from
// the first k rows decides every further offer as a basis rebuilt from
// those k rows does, and ends with bit-identical packed rows. One resumed
// basis is reused across every k and trial, so its kept storage is
// exercised too.
func TestRowBasisResumeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var resumed RowBasis
	for trial := 0; trial < 30; trial++ {
		dim := 6 + rng.Intn(20)
		rows := randomIncidenceRows(rng, dim, 3*dim)
		base := NewRowBasis(dim, 0)
		var accepted [][]float64
		for _, row := range rows {
			if offerAccept(base, row) {
				accepted = append(accepted, row)
			}
		}
		for k := 0; k <= base.Rank(); k++ {
			rebuilt := NewRowBasis(dim, 0)
			for _, row := range accepted[:k] {
				if !offerAccept(rebuilt, row) {
					t.Fatalf("trial %d: accepted row rejected on rebuild", trial)
				}
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
				gi, gv := packedRow(&resumed, j)
				wi, wv := packedRow(rebuilt, j)
				if len(gi) != len(wi) {
					t.Fatalf("trial %d k %d: row %d has %d entries, rebuilt %d", trial, k, j, len(gi), len(wi))
				}
				for e := range gi {
					if gi[e] != wi[e] || math.Float64bits(gv[e]) != math.Float64bits(wv[e]) {
						t.Fatalf("trial %d k %d: row %d entry %d differs from the rebuild", trial, k, j, e)
					}
				}
			}
		}
	}
}
