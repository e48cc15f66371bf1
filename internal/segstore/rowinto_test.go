package segstore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// TestRowIntoDenseMatchesBit is the oracle for the word-building row read
// of dense chunks: at series counts on both sides of word boundaries, rows
// at both ends of a column word and the last row, RowInto sets exactly the
// series whose Bit is set. A destination shorter than the series count is
// grown, and one longer than it reads as cleared past the last series.
func TestRowIntoDenseMatchesBit(t *testing.T) {
	const rows = 200
	rng := rand.New(rand.NewSource(23))
	for _, series := range []int{1, 63, 64, 65, 129, 150} {
		for _, chunkRows := range recordChunkSizes {
			rec := fromRows(series, randomRows(rng, series, rows, 2), chunkRows)
			for _, r := range []int{0, 63, 64, rows - 1} {
				short := bitset.New(series / 2)
				short.Add(0)
				long := bitset.New(series + 130)
				for i := 0; i < series+130; i++ {
					long.Add(i)
				}
				for _, dst := range []*bitset.Set{short, long} {
					rec.RowInto(r, dst)
					for i := 0; i < series; i++ {
						if dst.Contains(i) != rec.Bit(i, r) {
							t.Fatalf("series=%d chunks of %d row %d: RowInto has series %d = %v, Bit %v",
								series, chunkRows, r, i, dst.Contains(i), rec.Bit(i, r))
						}
					}
					for i := series; i < 64*len(dst.Words()); i++ {
						if dst.Contains(i) {
							t.Fatalf("series=%d chunks of %d row %d: element %d past the series is set, want cleared",
								series, chunkRows, r, i)
						}
					}
				}
			}
		}
	}
}

// TestRowIntoSteadyStateAllocs is the 0 allocs/op gate on reading a
// record's row into a warm destination, over a record spanning chunks.
func TestRowIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rec := fromRows(150, randomRows(rng, 150, 500, 3), 128)
	dst := bitset.New(150)
	r := 0
	if allocs := testing.AllocsPerRun(100, func() {
		rec.RowInto(r, dst)
		r = (r + 37) % rec.Snapshots()
	}); allocs != 0 {
		t.Fatalf("RowInto: %.1f allocs/op, want 0", allocs)
	}
}

// TestTranspose64 checks the bit transposition against its definition on
// random matrices and on each single bit.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var ms [][wordBits]uint64
	for i := 0; i < wordBits; i++ {
		for j := 0; j < wordBits; j += 7 {
			var m [wordBits]uint64
			m[i] = 1 << uint(j)
			ms = append(ms, m)
		}
	}
	for k := 0; k < 20; k++ {
		var m [wordBits]uint64
		for i := range m {
			m[i] = rng.Uint64()
		}
		ms = append(ms, m)
	}
	for _, m := range ms {
		got := m
		transpose64(&got)
		for i := 0; i < wordBits; i++ {
			for j := 0; j < wordBits; j++ {
				if got[j]>>uint(i)&1 != m[i]>>uint(j)&1 {
					t.Fatalf("transpose: bit %d of word %d is %d, want bit %d of word %d = %d",
						i, j, got[j]>>uint(i)&1, j, i, m[i]>>uint(j)&1)
				}
			}
		}
	}
}

// TestRowIntoSequentialMatchesBit reads every row of records in order,
// as a feed does, and then in orders that leave and re-enter 64-row
// blocks, so rows come from the direct read, from a freshly transposed
// block and from a cached one; each must hold exactly the series whose
// Bit is set, and nothing past the last series. A clone reads through its
// own cache.
func TestRowIntoSequentialMatchesBit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, series := range []int{1, 63, 64, 65, 150} {
		for _, chunkRows := range recordChunkSizes {
			const rows = 300
			rec := fromRows(series, randomRows(rng, series, rows, 3), chunkRows)
			var order []int
			for r := 0; r < rows; r++ {
				order = append(order, r)
			}
			for r := rows - 1; r >= 0; r -= 5 {
				order = append(order, r, r/2, r/2+1, r)
			}
			dst := bitset.New(series)
			for _, h := range []*Columns{rec, rec.Clone()} {
				for _, r := range order {
					h.RowInto(r, dst)
					for i := 0; i < 64*len(dst.Words()); i++ {
						if dst.Contains(i) != (i < series && h.Bit(i, r)) {
							t.Fatalf("series=%d chunks of %d row %d: RowInto has element %d = %v",
								series, chunkRows, r, i, dst.Contains(i))
						}
					}
				}
			}
		}
	}
}

// TestRowIntoConcurrentReaders reads one record handle from several
// goroutines at once, each walking the rows in order from its own start:
// every row must read back exactly (run under -race, the row cache must
// not be shared unguarded).
func TestRowIntoConcurrentReaders(t *testing.T) {
	const series, rows, readers = 150, 1000, 4
	rng := rand.New(rand.NewSource(43))
	want := randomRows(rng, series, rows, 3)
	rec := fromRows(series, want, 256)
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		go func(start int) {
			dst := bitset.New(series)
			for k := 0; k < 2*rows; k++ {
				r := (start + k) % rows
				rec.RowInto(r, dst)
				if !dst.Equal(want[r]) {
					errs <- fmt.Errorf("reader from %d: row %d reads %v, want %v", start, r, dst, want[r])
					return
				}
			}
			errs <- nil
		}(g * rows / readers)
	}
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkRowInto reads rows of a 150-series record — the diurnal
// scenario's path count — held in one dense chunk of recordChunkRows rows,
// into a warm set: in order, as the offline feed and the benchmark's
// replay read them, and 37 rows apart, so every read lands in another
// 64-row block.
func BenchmarkRowInto(b *testing.B) {
	const series, rows = 150, recordChunkRows
	rng := rand.New(rand.NewSource(31))
	rec := fromRows(series, randomRows(rng, series, rows, 3), rows)
	dst := bitset.New(series)
	for _, step := range []int{1, 37} {
		name := "sequential"
		if step > 1 {
			name = "strided"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.RowInto(i*step%rows, dst)
			}
		})
	}
}
