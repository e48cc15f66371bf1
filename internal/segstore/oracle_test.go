package segstore

import (
	"fmt"
	mathbits "math/bits"
	"math/rand"

	"repro/internal/bitset"
)

// rowOracle is the row-major reference every column count is checked
// against: the rows themselves, scanned one by one.
type rowOracle struct {
	rows []*bitset.Set
}

func (o rowOracle) Snapshots() int { return len(o.rows) }

// CongestedCount counts the rows with series i set.
func (o rowOracle) CongestedCount(i int) int {
	n := 0
	for _, r := range o.rows {
		if r.Contains(i) {
			n++
		}
	}
	return n
}

// CountAllGood counts the rows with none of the series set.
func (o rowOracle) CountAllGood(series []int) int {
	n := 0
	for _, r := range o.rows {
		good := true
		for _, i := range series {
			if r.Contains(i) {
				good = false
				break
			}
		}
		if good {
			n++
		}
	}
	return n
}

// Bit reports whether series i is set in row t, false outside the rows.
func (o rowOracle) Bit(i, t int) bool {
	return t >= 0 && t < len(o.rows) && o.rows[t].Contains(i)
}

// fromRows builds a finished record from row-major rows bit by bit,
// setting each congested bit straight in its chunk's column word and
// counting it in the column's popcount — a fill independent of the stage —
// in chunks of chunkRows rows: rows[t] is the set of congested series in
// row t.
func fromRows(series int, rows []*bitset.Set, chunkRows int) *Columns {
	b := newBuilder(series, len(rows), chunkRows)
	for t, row := range rows {
		s := b.cols.chunk(t)
		r := t - s.base
		row.ForEach(func(i int) bool {
			s.data[i*s.words+r/wordBits] |= 1 << uint(r%wordBits)
			s.meta[i].pop++
			return true
		})
	}
	return b.Finish()
}

// scatterRow is the reference window fill, independent of the stage: it
// appends one packed row (missing words mean all-good) to a store that
// nothing else writes, dropping the oldest snapshot first when the window
// is full, and scatters the row into the write buffer bit by bit, sealing
// the buffer when the row fills it. A bit at or past the series count
// panics, before the row counts as appended.
func scatterRow(ts *TieredStore, rowWords []uint64) {
	if ts.capacity > 0 && ts.retained == ts.capacity {
		ts.DropOldest(1)
	}
	a := ts.active
	r := ts.n - a.base
	w, mask := r/wordBits, uint64(1)<<uint(r%wordBits)
	for wi, wv := range rowWords {
		for wv != 0 {
			b := mathbits.TrailingZeros64(wv)
			wv &= wv - 1
			i := wi*wordBits + b
			if i >= ts.series {
				panic(fmt.Sprintf("segstore: series %d out of range (%d series)", i, ts.series))
			}
			m := &a.meta[i]
			p := &a.data[m.off+w]
			if *p&mask == 0 {
				*p |= mask
				m.pop++
			}
		}
	}
	ts.n++
	ts.retained++
	if r+1 == ts.segRows {
		ts.seal()
	}
}

// equalColumns reports whether two column sets hold identical rows, in
// order, whatever their chunking.
func equalColumns(a, b *Columns) bool {
	if a.NumSeries() != b.NumSeries() || a.Snapshots() != b.Snapshots() {
		return false
	}
	ra, rb := bitset.New(a.NumSeries()), bitset.New(b.NumSeries())
	for t := 0; t < a.Snapshots(); t++ {
		a.RowInto(t, ra)
		b.RowInto(t, rb)
		if !ra.Equal(rb) {
			return false
		}
	}
	return true
}

// randomRows draws n random rows over series columns, each bit set with
// probability 1/density.
func randomRows(rng *rand.Rand, series, n, density int) []*bitset.Set {
	rows := make([]*bitset.Set, n)
	for t := range rows {
		s := bitset.New(series)
		for i := 0; i < series; i++ {
			if rng.Intn(density) == 0 {
				s.Add(i)
			}
		}
		rows[t] = s
	}
	return rows
}
