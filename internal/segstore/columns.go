package segstore

import (
	"fmt"
	mathbits "math/bits"
	"sync"

	"repro/internal/bitset"
)

// Columns is the read side of every column store in this package: the
// sealed chunks that overlap a window, the last chunk (a window's write
// buffer), and the window's absolute row range. Every count query is one
// sweep over these pieces. TieredStore and TieredView embed it, and a
// finished record (Builder.Finish) is one.
//
// Count queries use the handle's own scratch, so one handle serves one
// goroutine at a time. A frozen record's handle may be cloned (Clone) for
// each further reader.
type Columns struct {
	series   int
	segRows  int
	capacity int // 0: unbounded
	n        int // snapshots appended over the lifetime
	retained int // snapshots in the window

	sealed []*segment // sealed chunks overlapping the window, oldest first
	active *segment   // write buffer for rows [active.base, active.base+segRows)
	acc    []uint64   // CountAllGood's scratch, one chunk's words; never shared
	frozen bool       // a finished record: no chunk ever changes again
	rows   *rowCache  // a finished record's row-read cache; nil otherwise
}

// rowCache holds, for a finished record's handle, one 64-row block of a
// chunk (word w of every column) transposed to rows. A reader that walks
// rows in order pays one 64×64 bit transposition per block where the
// direct read gathers a word from every column per row. Only a read of the
// row after the previous one transposes a block, so readers that jump
// about keep the direct read. Records are immutable and may be read from
// several goroutines through one handle, so the cache has a lock, and a
// reader that finds it held reads the chunk directly.
type rowCache struct {
	mu   sync.Mutex
	seg  *segment // the transposed block's chunk; nil before the first
	w    int      // the transposed block: word w of every column
	rows []uint64 // its 64 rows of ⌈series/64⌉ words
	prev *segment // the previous read's chunk and row
	r    int
}

// read materializes row r of the record chunk s into dst (cleared, at
// least ⌈series/64⌉ words) through the cache. The caller holds rc.mu.
func (rc *rowCache) read(s *segment, r int, dst []uint64) {
	w := r / wordBits
	next := s == rc.prev && r == rc.r+1
	rc.prev, rc.r = s, r
	if s != rc.seg || w != rc.w {
		if !next {
			s.rowInto(r, dst)
			return
		}
		nw := (len(s.meta) + wordBits - 1) / wordBits
		if cap(rc.rows) < wordBits*nw {
			rc.rows = make([]uint64, wordBits*nw)
		}
		rc.rows = rc.rows[:wordBits*nw]
		s.transposeBlock(w, rc.rows)
		rc.seg, rc.w = s, w
	}
	nw := len(rc.rows) / wordBits
	copy(dst, rc.rows[(r%wordBits)*nw:][:nw])
}

// Pair identifies one unordered pair of series for CountPairsGood.
type Pair struct {
	A, B int
}

// recordChunkRows is the chunk size of a record: 512 words per column, so
// one chunk of a few hundred columns stays in L2 while CountPairsGood
// serves every pair from it.
const recordChunkRows = 32768

// Builder fills the columns of a record whose row count is known up front,
// in RAM chunks preallocated by NewBuilder, and freezes them with Finish.
// Rows are filled by Append in row order.
type Builder struct {
	cols Columns
	next int // the row Append fills next
}

// NewBuilder preallocates an all-good record of rows rows over series
// columns, in chunks of recordChunkRows rows; the last chunk holds only the
// remaining rows.
func NewBuilder(series, rows int) *Builder {
	return newBuilder(series, rows, recordChunkRows)
}

func newBuilder(series, rows, chunkRows int) *Builder {
	series, rows = max(series, 0), max(rows, 0)
	b := &Builder{cols: Columns{series: series, segRows: chunkRows, n: rows, retained: rows}}
	for base := 0; ; base += chunkRows {
		s := newBuffer(series, min(chunkRows, rows-base), nil)
		s.base = base
		if base+chunkRows >= rows {
			b.cols.active = s
			break
		}
		b.cols.sealed = append(b.cols.sealed, s)
	}
	first, _, _ := b.cols.piece(0)
	b.cols.acc = make([]uint64, first.words)
	return b
}

// Append fills the next row in order with the congested series. It panics
// past the record's last row and on a series out of range.
func (b *Builder) Append(congested *bitset.Set) {
	c := &b.cols
	if b.next >= c.n {
		panic(fmt.Sprintf("segstore: Append past the record's %d rows", c.n))
	}
	s, r := c.locate(b.next)
	w, mask := r/wordBits, uint64(1)<<uint(r%wordBits)
	for wi, wv := range congested.Words() {
		for wv != 0 {
			i := wi*wordBits + mathbits.TrailingZeros64(wv)
			wv &= wv - 1
			c.checkSeries(i)
			s.data[i*s.words+w] |= mask
		}
	}
	b.next++
}

// Finish sums every chunk's column popcounts and returns the frozen
// record. The Builder must not be used afterwards.
func (b *Builder) Finish() *Columns {
	c := b.cols
	b.cols = Columns{}
	for k := 0; k <= len(c.sealed); k++ {
		s, _, _ := c.piece(k)
		for i := range s.meta {
			m := &s.meta[i]
			m.pop = bitset.PopCountWords(s.data[m.off : m.off+s.words])
		}
	}
	c.frozen = true
	c.rows = new(rowCache)
	return &c
}

// Clone returns another handle on a finished record: it shares every chunk
// but owns its count scratch, so each reader goroutine can count on its
// own handle. It panics on the live columns of a window or view, which
// change under a copied handle.
func (c *Columns) Clone() *Columns {
	if !c.frozen {
		panic("segstore: Clone of columns that are not a finished record")
	}
	d := *c
	d.acc = make([]uint64, len(c.acc))
	d.rows = new(rowCache)
	return &d
}

// NumSeries returns the number of columns.
func (c *Columns) NumSeries() int { return c.series }

// Snapshots returns the window occupancy — the rows count queries run over.
func (c *Columns) Snapshots() int { return c.retained }

// Appended returns the number of snapshots ever appended.
func (c *Columns) Appended() int { return c.n }

// Capacity returns the window capacity, 0 for an unbounded store.
func (c *Columns) Capacity() int { return c.capacity }

// SegmentRows returns the seal granularity.
func (c *Columns) SegmentRows() int { return c.segRows }

// overlap clips the window [from, to) to segment s and returns the
// segment-relative row range, empty (lo ≥ hi) when they do not meet.
func overlap(s *segment, from, to int) (lo, hi int) {
	return max(from-s.base, 0), min(to-s.base, s.rows)
}

// piece returns the k-th piece of the window sweep — sealed chunks oldest
// first, then the write buffer at k == len(sealed) — with its
// segment-relative row range inside the window.
func (c *Columns) piece(k int) (s *segment, lo, hi int) {
	s = c.active
	if k < len(c.sealed) {
		s = c.sealed[k]
	}
	lo, hi = overlap(s, c.n-c.retained, c.n)
	return s, lo, hi
}

// CongestedCount returns the number of window snapshots in which series i
// was congested.
func (c *Columns) CongestedCount(i int) int {
	c.checkSeries(i)
	n := 0
	for k := 0; k <= len(c.sealed); k++ {
		s, lo, hi := c.piece(k)
		n += s.seriesCount(i, lo, hi)
	}
	return n
}

// CountAllGood returns the number of window snapshots in which none of the
// given series was congested. An empty series list counts every retained
// snapshot.
func (c *Columns) CountAllGood(series []int) int {
	for _, i := range series {
		c.checkSeries(i)
	}
	bad := 0
	for k := 0; k <= len(c.sealed); k++ {
		s, lo, hi := c.piece(k)
		bad += s.anyCount(series, lo, hi, c.acc)
	}
	return c.retained - bad
}

// CountPairGood returns the number of window snapshots in which neither
// series i nor j was congested.
func (c *Columns) CountPairGood(i, j int) int {
	c.checkSeries(i)
	c.checkSeries(j)
	bad := 0
	for k := 0; k <= len(c.sealed); k++ {
		s, lo, hi := c.piece(k)
		bad += s.pairCount(i, j, lo, hi)
	}
	return c.retained - bad
}

// CountPairsGood fills out[i] with the number of window snapshots in which
// neither series of pairs[i] was congested. The sweep is chunk-major so
// each chunk's words (a mapped segment's pages) are touched once for the
// whole batch. Each chunk's column popcounts settle most pairs with a
// branch: both columns all-good in the chunk adds nothing, and over a
// whole chunk one all-good column adds the other's popcount. Only pairs
// with both columns congested somewhere in the chunk pay a word sweep.
func (c *Columns) CountPairsGood(pairs []Pair, out []int) {
	if len(out) < len(pairs) {
		panic(fmt.Sprintf("segstore: CountPairsGood out has %d slots for %d pairs", len(out), len(pairs)))
	}
	for i, p := range pairs {
		c.checkSeries(p.A)
		c.checkSeries(p.B)
		out[i] = 0
	}
	for k := 0; k <= len(c.sealed); k++ {
		s, lo, hi := c.piece(k)
		if lo >= hi {
			continue
		}
		whole := lo == 0 && hi == s.rows
		for i, p := range pairs {
			pa, pb := s.meta[p.A].pop, s.meta[p.B].pop
			switch {
			case pa == 0 && pb == 0:
			case whole && pa == 0:
				out[i] += pb
			case whole && pb == 0:
				out[i] += pa
			default:
				out[i] += s.pairCount(p.A, p.B, lo, hi)
			}
		}
	}
	for i := range pairs {
		out[i] = c.retained - out[i]
	}
}

// Bit reports whether series i was congested in window snapshot t.
func (c *Columns) Bit(i, t int) bool {
	c.checkSeries(i)
	if t < 0 || t >= c.retained {
		return false
	}
	s, r := c.locate(c.n - c.retained + t)
	return s.bit(i, r)
}

// RowInto materializes window snapshot t as a set of congested series into
// dst (cleared first); t = 0 is the oldest retained snapshot.
func (c *Columns) RowInto(t int, dst *bitset.Set) {
	if t < 0 || t >= c.retained {
		panic(fmt.Sprintf("segstore: snapshot %d outside window [0, %d)", t, c.retained))
	}
	c.rowInto(c.n-c.retained+t, dst)
}

// rowInto materializes absolute window row abs into dst (cleared first).
func (c *Columns) rowInto(abs int, dst *bitset.Set) {
	s, r := c.locate(abs)
	words := dst.ResetWords(c.series)
	if c.rows == nil || !s.dense || !c.rows.mu.TryLock() {
		s.rowInto(r, words)
		return
	}
	c.rows.read(s, r, words)
	c.rows.mu.Unlock()
}

// locate maps absolute window row abs to its chunk and chunk-relative row.
func (c *Columns) locate(abs int) (*segment, int) {
	if len(c.sealed) > 0 && abs < c.active.base {
		s := c.sealed[(abs-c.sealed[0].base)/c.segRows]
		return s, abs - s.base
	}
	return c.active, abs - c.active.base
}

func (c *Columns) checkSeries(i int) {
	if i < 0 || i >= c.series {
		panic(fmt.Sprintf("segstore: series %d out of range (%d series)", i, c.series))
	}
}
