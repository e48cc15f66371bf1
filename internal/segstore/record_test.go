package segstore

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
)

// recordChunkSizes are the chunkings the record tests run under: one chunk
// per record, and small chunks so records span several, the last one
// short.
var recordChunkSizes = []int{recordChunkRows, 64, 128}

// appendRecord builds a finished record through the Append path.
func appendRecord(series int, rows []*bitset.Set, chunkRows int) *Columns {
	b := newBuilder(series, len(rows), chunkRows)
	for _, r := range rows {
		b.Append(r)
	}
	return b.Finish()
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

// TestAppendMatchesFromRows pins the two build paths against each other:
// a record filled row by row with Append equals one filled bit by bit
// (fromRows), for random shapes that straddle word and chunk boundaries.
func TestAppendMatchesFromRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		series := 1 + rng.Intn(70)
		n := rng.Intn(400)
		chunkRows := recordChunkSizes[trial%len(recordChunkSizes)]
		rows := randomRows(rng, series, n, 3)

		stream := appendRecord(series, rows, chunkRows)
		if !equalColumns(stream, fromRows(series, rows, chunkRows)) {
			t.Fatalf("trial %d: appended record differs from the bit-by-bit record", trial)
		}
		if !equalColumns(stream, fromRows(series, rows, recordChunkRows)) {
			t.Fatalf("trial %d: %d-row chunks change the record", trial, chunkRows)
		}
		if stream.Snapshots() != n || stream.NumSeries() != series || stream.Capacity() != 0 {
			t.Fatalf("trial %d: shape %d×%d capacity %d, want %d×%d capacity 0",
				trial, stream.NumSeries(), stream.Snapshots(), stream.Capacity(), series, n)
		}
	}
}

// TestRowsRoundTrip pins that a record's rows read back exactly as built,
// through a reused destination, across chunk boundaries.
func TestRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := randomRows(rng, 67, 300, 3) // series straddle a word boundary
	for _, chunkRows := range recordChunkSizes {
		rec := fromRows(67, rows, chunkRows)
		scratch := bitset.New(67)
		scratch.Add(66) // must be cleared
		for i := range rows {
			rec.RowInto(i, scratch)
			if !scratch.Equal(rows[i]) {
				t.Fatalf("chunks of %d: RowInto(%d) = %v, want %v", chunkRows, i, scratch, rows[i])
			}
		}
		mustPanic(t, "RowInto past the record", func() { rec.RowInto(len(rows), scratch) })
	}
}

// TestCountsMatchRowMajorReference pins every count kernel of a record
// against the row-major oracle.
func TestCountsMatchRowMajorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	series, n := 40, 500
	rows := randomRows(rng, series, n, 3)
	ref := rowOracle{rows: rows}
	for _, chunkRows := range recordChunkSizes {
		rec := fromRows(series, rows, chunkRows)
		for trial := 0; trial < 100; trial++ {
			var q []int
			for i := 0; i < series; i++ {
				if rng.Intn(8) == 0 {
					q = append(q, i)
				}
			}
			if got, want := rec.CountAllGood(q), ref.CountAllGood(q); got != want {
				t.Fatalf("chunks of %d: CountAllGood(%v) = %d, want %d", chunkRows, q, got, want)
			}
			if len(q) >= 2 {
				if got, want := rec.CountPairGood(q[0], q[1]), ref.CountAllGood(q[:2]); got != want {
					t.Fatalf("chunks of %d: CountPairGood(%d, %d) = %d, want %d", chunkRows, q[0], q[1], got, want)
				}
			}
		}
		for i := 0; i < series; i++ {
			if got, want := rec.CongestedCount(i), ref.CongestedCount(i); got != want {
				t.Fatalf("chunks of %d: CongestedCount(%d) = %d, want %d", chunkRows, i, got, want)
			}
		}
		if rec.CountAllGood(nil) != n {
			t.Fatal("empty query must count every snapshot good")
		}
	}
}

// TestFixedBit pins Append and Bit at word and chunk boundaries, and that a
// finished Builder refuses rows.
func TestFixedBit(t *testing.T) {
	b := newBuilder(3, 130, 64)
	marks := map[int]int{0: 0, 64: 1, 129: 2}
	for r := 0; r < 130; r++ {
		row := bitset.New(3)
		if i, ok := marks[r]; ok {
			row.Add(i)
		}
		b.Append(row)
	}
	rec := b.Finish()
	for _, c := range []struct {
		i, t int
		want bool
	}{
		{0, 0, true}, {0, 1, false}, {1, 64, true}, {2, 129, true}, {2, 128, false}, {0, 130, false}, {0, -1, false},
	} {
		if rec.Bit(c.i, c.t) != c.want {
			t.Fatalf("Bit(%d,%d) = %v", c.i, c.t, !c.want)
		}
	}
	if rec.CongestedCount(2) != 1 {
		t.Fatalf("CongestedCount(2) = %d, want 1", rec.CongestedCount(2))
	}
	mustPanic(t, "Append after Finish", func() { b.Append(bitset.New(3)) })
}

// TestAppendPastRecordPanics pins the Append path's bounds: a record holds
// exactly the rows it was built for, and a series out of range is refused
// without corrupting its neighbours.
func TestAppendPastRecordPanics(t *testing.T) {
	b := newBuilder(2, 2, 64)
	b.Append(bitset.FromIndices(0))
	mustPanic(t, "Append of a series out of range", func() { b.Append(bitset.FromIndices(1, 2)) })
	b.Append(bitset.FromIndices(0, 1))
	mustPanic(t, "Append past the record", func() { b.Append(bitset.FromIndices(0)) })
	rec := b.Finish()
	if rec.Snapshots() != 2 || !rec.Bit(0, 0) || rec.Bit(1, 0) || !rec.Bit(0, 1) || !rec.Bit(1, 1) {
		t.Fatal("Append panics corrupted the record")
	}
}

// TestEqualShapeMismatch pins the equality oracle itself.
func TestEqualShapeMismatch(t *testing.T) {
	a, b := newBuilder(2, 10, 64).Finish(), newBuilder(2, 11, 64).Finish()
	if equalColumns(a, b) {
		t.Fatal("different snapshot counts reported equal")
	}
	if !equalColumns(newBuilder(2, 10, recordChunkRows).Finish(), a) {
		t.Fatal("identical empty records reported unequal")
	}
}

// TestRecordChunks pins the preallocated layout: full chunks, then one
// chunk holding only the remaining rows, so a record carries no unused
// buffer.
func TestRecordChunks(t *testing.T) {
	for _, c := range []struct{ rows, chunkRows, chunks, lastRows int }{
		{0, 64, 1, 0},
		{1, 64, 1, 1},
		{64, 64, 1, 64},
		{65, 64, 2, 1},
		{1000, 128, 8, 104},
		{3000, recordChunkRows, 1, 3000},
	} {
		rec := newBuilder(5, c.rows, c.chunkRows).Finish()
		if got := len(rec.sealed) + 1; got != c.chunks {
			t.Errorf("%d rows in chunks of %d: %d chunks, want %d", c.rows, c.chunkRows, got, c.chunks)
		}
		if rec.active.rows != c.lastRows || len(rec.active.data) != 5*((c.lastRows+63)/64) {
			t.Errorf("%d rows in chunks of %d: last chunk %d rows, %d words, want %d rows",
				c.rows, c.chunkRows, rec.active.rows, len(rec.active.data), c.lastRows)
		}
	}
}

// sparseRows draws rows in which every third series is never congested
// and the others only inside one random row span, so most chunks hold
// all-good columns — the shapes that drive CountPairsGood's popcount
// skips rather than its word sweep.
func sparseRows(rng *rand.Rand, series, n int) []*bitset.Set {
	type span struct{ lo, hi int }
	spans := make([]span, series)
	for i := range spans {
		lo := rng.Intn(n)
		spans[i] = span{lo: lo, hi: lo + rng.Intn(n-lo) + 1}
	}
	rows := make([]*bitset.Set, n)
	for t := range rows {
		rows[t] = bitset.New(series)
		for i := 0; i < series; i++ {
			if i%3 != 2 && t >= spans[i].lo && t < spans[i].hi && rng.Intn(4) == 0 {
				rows[t].Add(i)
			}
		}
	}
	return rows
}

// allPairs draws a random half of the ordered series pairs, self-pairs
// included.
func allPairs(rng *rand.Rand, series int) []Pair {
	var pairs []Pair
	for a := 0; a < series; a++ {
		for b := 0; b < series; b++ {
			if rng.Intn(2) == 0 {
				pairs = append(pairs, Pair{A: a, B: b})
			}
		}
	}
	return pairs
}

// TestCountPairsGoodMatchesPerPair pins the batched pair sweep against the
// per-pair kernel on random records of many shapes, chunked finely and
// not at all.
func TestCountPairsGoodMatchesPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range []struct{ series, snapshots int }{
		{1, 1}, {5, 63}, {8, 64}, {17, 1000}, {9, 2*recordChunkRows + 129}, {13, 700},
	} {
		rows := randomRows(rng, sh.series, sh.snapshots, 3)
		pairs := allPairs(rng, sh.series)
		out := make([]int, len(pairs))
		for _, chunkRows := range recordChunkSizes {
			rec := fromRows(sh.series, rows, chunkRows)
			rec.CountPairsGood(pairs, out)
			for i, p := range pairs {
				if want := rec.CountPairGood(p.A, p.B); out[i] != want {
					t.Fatalf("record %dx%d, chunks of %d, pair %v: batched %d, per-pair %d",
						sh.series, sh.snapshots, chunkRows, p, out[i], want)
				}
			}
		}
	}
}

// TestCountPairsSkipsMatchOracle pins the popcount skips of the batched
// pair sweep — both columns all-good in a chunk, one all-good over a whole
// chunk, and the partial chunks at a window's edges — against the
// row-major oracle, on sparse and dense records and on windows.
func TestCountPairsSkipsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range []struct {
		series, snapshots int
		sparse            bool
	}{
		{1, 1, false}, {8, 64, true}, {17, 1000, false}, {7, 2000, true}, {11, 900, true},
	} {
		var rows []*bitset.Set
		if sh.sparse {
			rows = sparseRows(rng, sh.series, sh.snapshots)
		} else {
			rows = randomRows(rng, sh.series, sh.snapshots, 3)
		}
		pairs := allPairs(rng, sh.series)
		out := make([]int, len(pairs))
		check := func(what string, c *Columns, ref rowOracle) {
			t.Helper()
			c.CountPairsGood(pairs, out)
			for i, p := range pairs {
				if want := ref.CountAllGood([]int{p.A, p.B}); out[i] != want {
					t.Fatalf("%s %dx%d sparse=%v pair %v: %d, oracle %d",
						what, sh.series, sh.snapshots, sh.sparse, p, out[i], want)
				}
			}
		}
		for _, chunkRows := range recordChunkSizes {
			check("record", fromRows(sh.series, rows, chunkRows), rowOracle{rows: rows})
		}
		// A window whose start sits mid-chunk sweeps partial chunks.
		capacity := max(sh.snapshots*2/3, 1)
		ts, err := NewTiered(sh.series, capacity, Options{SegmentRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			appendRow(ts, r, nil)
		}
		check("window", &ts.Columns, rowOracle{rows: rows[len(rows)-ts.Snapshots():]})
		ts.Close()
	}
}

// TestCountPairsGoodValidation pins the sweep's misuse panics.
func TestCountPairsGoodValidation(t *testing.T) {
	rec := newBuilder(3, 10, 64).Finish()
	mustPanic(t, "short out", func() { rec.CountPairsGood(make([]Pair, 2), make([]int, 1)) })
	mustPanic(t, "series out of range", func() { rec.CountPairsGood([]Pair{{A: 0, B: 3}}, make([]int, 1)) })
	mustPanic(t, "negative series", func() { rec.CountPairsGood([]Pair{{A: -1, B: 0}}, make([]int, 1)) })
}

// TestCountsReusableAfterPanic pins that a misuse panic leaves a
// multi-chunk record, and its count scratch, fit for the next count: the
// counts after the panics still match the row oracle.
func TestCountsReusableAfterPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randomRows(rng, 4, 300, 3)
	rec := fromRows(4, rows, 64)
	ref := rowOracle{rows: rows}
	mustPanic(t, "short out", func() { rec.CountPairsGood(make([]Pair, 2), make([]int, 1)) })
	mustPanic(t, "pair out of range", func() { rec.CountPairsGood([]Pair{{A: 0, B: 1}, {A: 0, B: 4}}, make([]int, 2)) })
	mustPanic(t, "all-good out of range", func() { rec.CountAllGood([]int{0, 4}) })

	pairs := []Pair{{0, 1}, {2, 3}}
	got := make([]int, len(pairs))
	rec.CountPairsGood(pairs, got)
	for i, p := range pairs {
		if want := ref.CountAllGood([]int{p.A, p.B}); got[i] != want {
			t.Fatalf("after panic: pair %v got %d, want %d", p, got[i], want)
		}
	}
	if got, want := rec.CountAllGood([]int{0, 2, 3}), ref.CountAllGood([]int{0, 2, 3}); got != want {
		t.Fatalf("after panic: CountAllGood got %d, want %d", got, want)
	}
}

// TestCountPairsGoodSteadyStateAllocs is the sweep's 0 allocs/op gate on a
// record spanning several chunks.
func TestCountPairsGoodSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rec := fromRows(8, randomRows(rng, 8, 1000, 3), 128)
	pairs := []Pair{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {1, 6}}
	out := make([]int, len(pairs))
	if allocs := testing.AllocsPerRun(20, func() { rec.CountPairsGood(pairs, out) }); allocs != 0 {
		t.Fatalf("CountPairsGood: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { rec.CountAllGood([]int{0, 3, 5}) }); allocs != 0 {
		t.Fatalf("CountAllGood: %.1f allocs/op, want 0", allocs)
	}
}

// TestCloneSharesChunks pins Clone: a clone counts exactly like its
// record on the same chunks with its own scratch, so clones can count
// concurrently (run under -race), and the live columns of a window refuse
// to be cloned.
func TestCloneSharesChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const series = 20
	rows := randomRows(rng, series, 700, 4)
	rec := fromRows(series, rows, 128)
	ref := rowOracle{rows: rows}
	pairs := allPairs(rng, series)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		c := rec.Clone()
		if &c.acc[0] == &rec.acc[0] || c.active != rec.active {
			t.Fatal("a clone must share the chunks and own its scratch")
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int, len(pairs))
			for k := 0; k < 20; k++ {
				set := []int{g, (g + k) % series, (3 * k) % series}
				if c.CountAllGood(set) != ref.CountAllGood(set) {
					errs <- "CountAllGood"
					return
				}
				c.CountPairsGood(pairs, out)
				for i, p := range pairs {
					if out[i] != ref.CountAllGood([]int{p.A, p.B}) {
						errs <- "CountPairsGood"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("a concurrent clone's %s disagrees with the oracle", e)
	}
	ts, err := NewTiered(series, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	mustPanic(t, "Clone of a window's columns", func() { ts.Clone() })
}
