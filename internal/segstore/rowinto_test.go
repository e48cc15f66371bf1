package segstore

import (
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
