package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// has reports whether bit k of the bitset words is set.
func has(words []uint64, k int) bool { return words[k>>6]&(1<<(k&63)) != 0 }

// checkIndex fails unless the tableau's index covers its values: every
// nonzero entry is marked in its row's and its column's bitset, and no
// bitset marks an element past the tableau. With the objective c and its
// reduced costs rc (inside optimize), the candidate bitset must also be
// exactly {j : rc[j] < −costEps} and the pricing bitset exactly the rows
// whose basic cost is neither zero nor +Inf.
func checkIndex(t *testing.T, name string, tab *tableau, c, rc []float64) {
	t.Helper()
	m, n := tab.m, tab.n
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if tab.a[i*n+j] == 0 {
				continue
			}
			if !has(tab.rowCols[i*tab.nw:(i+1)*tab.nw], j) {
				t.Fatalf("%s: a[%d][%d] = %v is not marked in its row", name, i, j, tab.a[i*n+j])
			}
			if !has(tab.colRows[j*tab.mw:(j+1)*tab.mw], i) {
				t.Fatalf("%s: a[%d][%d] = %v is not marked in its column", name, i, j, tab.a[i*n+j])
			}
		}
		for j := n; j < 64*tab.nw; j++ {
			if has(tab.rowCols[i*tab.nw:(i+1)*tab.nw], j) {
				t.Fatalf("%s: row %d marks column %d of %d", name, i, j, n)
			}
		}
	}
	for j := 0; j < n; j++ {
		for i := m; i < 64*tab.mw; i++ {
			if has(tab.colRows[j*tab.mw:(j+1)*tab.mw], i) {
				t.Fatalf("%s: column %d marks row %d of %d", name, j, i, m)
			}
		}
	}
	if rc == nil {
		return
	}
	for j := 0; j < 64*tab.nw; j++ {
		if want := j < n && rc[j] < -costEps; has(tab.neg, j) != want {
			t.Fatalf("%s: candidate bit %d = %v, reduced cost %v", name, j, has(tab.neg, j), rc[j])
		}
	}
	for i := 0; i < 64*tab.mw; i++ {
		want := false
		if i < m {
			cb := c[tab.basis[i]]
			if math.Float64bits(tab.cb[i]) != math.Float64bits(cb) {
				t.Fatalf("%s: row %d basic cost %v, want %v", name, i, tab.cb[i], cb)
			}
			want = cb != 0 && !math.IsInf(cb, 1)
		}
		if has(tab.prow, i) != want {
			t.Fatalf("%s: pricing bit %d = %v, want %v", name, i, has(tab.prow, i), want)
		}
	}
}

// TestTableauIndexInvariant checks the index after every pivot — inside
// both phases and after every drive-out — on the captured replay systems
// and on random programs of every shape through one reused workspace, and
// that resetting the tableau afterwards leaves all of its storage zero.
func TestTableauIndexInvariant(t *testing.T) {
	ws := new(Workspace)
	var name string
	pivots, drives := 0, 0
	ws.t.afterPivot = func(c, rc []float64) {
		if rc == nil {
			drives++
		}
		pivots++
		checkIndex(t, name, &ws.t, c, rc)
	}
	checkReset := func() {
		t.Helper()
		ws.t.reset(1, 1)
		for k, v := range ws.t.a[:cap(ws.t.a)] {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("%s: a[%d] = %v after reset, want +0", name, k, v)
			}
		}
	}
	for s, sys := range replaySystems(t) {
		name = fmt.Sprintf("replay system %d", s)
		if _, err := ws.MinimizeL1ResidualNonPositive(sys.a, sys.y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReset()
	}
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		m, n := 1+rng.Intn(12), 2+rng.Intn(30)
		name = fmt.Sprintf("random trial %d (%dx%d)", trial, m, n)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			switch rng.Intn(4) {
			case 0:
				a.Data[i] = rng.NormFloat64()
			case 1:
				a.Data[i] = float64(rng.Intn(2))
			}
		}
		if trial%3 == 0 && m > 2 {
			copy(a.Row(m-1), a.Row(0)) // a redundant row: drive-outs
		}
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = float64(rng.Intn(3))
		}
		b := a.MulVec(x0)
		if trial%2 == 1 {
			for i := range b {
				b[i] += rng.NormFloat64()
			}
		}
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64() - 0.2
		}
		_, _ = ws.Solve(Problem{C: c, A: a, B: b})
		if trial%4 == 0 {
			_, _ = ws.MinimizeL1ResidualNonPositive(a, b)
		}
		checkReset()
	}
	if pivots == 0 || drives == 0 {
		t.Fatalf("checked %d pivots, %d of them drive-outs; want both", pivots, drives)
	}
}

// newDenseTableau loads p's phase-1 program into the dense oracle tableau,
// as denseSolve does.
func newDenseTableau(p Problem) *denseTableau {
	m, n := p.A.Rows, p.A.Cols
	t := &denseTableau{m: m, n: n + m, a: make([][]float64, m), b: make([]float64, m), basis: make([]int, m)}
	for i := 0; i < m; i++ {
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1
		}
		row := make([]float64, n+m)
		for j, v := range p.A.Row(i) {
			row[j] = sign * v
		}
		row[n+i] = 1
		t.a[i] = row
		t.b[i] = sign * p.B[i]
		t.basis[i] = n + i
	}
	return t
}

// sameTableau fails unless the indexed and the dense tableau hold the same
// basis, the same right-hand side bits and the same values (a zero's sign
// aside: the dense pivot flips it where the indexed one skips the entry).
func sameTableau(t *testing.T, name string, got *tableau, want *denseTableau) {
	t.Helper()
	for i := 0; i < want.m; i++ {
		if got.basis[i] != want.basis[i] {
			t.Fatalf("%s: basis[%d] = %d, want %d", name, i, got.basis[i], want.basis[i])
		}
		if math.Float64bits(got.b[i]) != math.Float64bits(want.b[i]) {
			t.Fatalf("%s: b[%d] = %v, want %v", name, i, got.b[i], want.b[i])
		}
		for j, v := range want.a[i] {
			if g := got.a[i*got.n+j]; g != v {
				t.Fatalf("%s: a[%d][%d] = %v, want %v", name, i, j, g, v)
			}
		}
	}
}

// TestBlandMatchesDenseOracle runs the simplex under Bland's rule — started
// at its budget's blandFrom, so every entry takes the lowest candidate —
// on the indexed and the dense tableau, and requires the same pivots and
// bits. Phase 1 is stepped one pivot at a time (a start one short of the
// budget allows exactly one) and compared after each; phase 2 runs whole,
// with its incremental repricing, and is compared at the end.
func TestBlandMatchesDenseOracle(t *testing.T) {
	var probs []Problem
	for _, sys := range replaySystems(t) {
		probs = append(probs, l1NonPositiveProblem(sys.a, sys.y))
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		a, y := tomographyProgram(rng, 4+rng.Intn(20), 4+rng.Intn(30))
		probs = append(probs, l1NonPositiveProblem(a, y))
	}
	ws := new(Workspace)
	pivots := 0
	for k, p := range probs {
		name := fmt.Sprintf("program %d (%dx%d)", k, p.A.Rows, p.A.Cols)
		m, n := p.A.Rows, p.A.Cols
		got, want := &ws.t, newDenseTableau(p)
		got.load(p)
		maxIters, blandFrom := got.budget()
		phase1 := make([]float64, n+m)
		phase2 := make([]float64, n+m)
		copy(phase2, p.C)
		for j := n; j < n+m; j++ {
			phase1[j], phase2[j] = 1, math.Inf(1)
		}
		rcGot, rcWant := make([]float64, n+m), make([]float64, n+m)
		for step := 0; ; step++ {
			_, gotErr := got.optimize(phase1, maxIters-1, rcGot)
			_, wantErr := want.optimize(phase1, maxIters-1, rcWant)
			if gotErr != wantErr {
				t.Fatalf("%s: phase 1 step %d: err = %v, want %v", name, step, gotErr, wantErr)
			}
			sameTableau(t, fmt.Sprintf("%s: phase 1 step %d", name, step), got, want)
			if gotErr != ErrIterationLimit {
				break
			}
			pivots++
		}
		gotIters, gotErr := got.optimize(phase2, blandFrom, rcGot)
		wantIters, wantErr := want.optimize(phase2, blandFrom, rcWant)
		if gotErr != wantErr || gotIters != wantIters {
			t.Fatalf("%s: phase 2: %d pivots, err %v; want %d, %v", name, gotIters-blandFrom, gotErr, wantIters-blandFrom, wantErr)
		}
		sameTableau(t, name+": phase 2", got, want)
		pivots += gotIters - blandFrom
	}
	if pivots == 0 {
		t.Fatal("no Bland pivot ran")
	}
}
