package segstore

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/bitset"
)

// colMeta describes one column of a segment: the word span [lo, hi) that
// holds its set bits, where that span starts in the segment's data area,
// and the column's popcount. A column with pop == 0 stores no words at all
// (lo == hi) — the zero-span compression that makes cold all-good columns
// free to store and free to skip.
type colMeta struct {
	lo, hi int // word span [lo, hi) of the full column that is materialized
	off    int // index of word lo in segment.data
	pop    int // set bits in the whole column
}

// segment is one block of rows: a sealed chunk (data aliases a mapped or
// heap-read file image, or is a RAM write buffer that was sealed as is;
// meta is immutable either way), a window's write buffer, or one chunk of a
// record. The last two are filled by the stage's flush (Columns.flush),
// which keeps their pops current. The count kernels below serve all of
// them.
type segment struct {
	base   int // absolute index of row 0
	rows   int
	words  int // ⌈rows/64⌉
	meta   []colMeta
	data   []uint64
	mapped []byte // non-nil when data aliases an mmap'ed file image
	path   string
	crc    uint32     // data CRC of the sealed file (0 for RAM chunks)
	pool   *chunkPool // where a RAM chunk goes on its last release; nil for files
	// dense marks a RAM chunk whose data holds every column in full:
	// column i's word w sits at data[i*words+w], whatever its meta span.
	// Write buffers, RAM chunks and record chunks are dense; a segment read
	// from a file is span-compressed.
	dense bool

	// refs counts owners of a sealed chunk: 1 for the store (or Reader)
	// that sealed or opened it, plus one per snapshot view holding it. The
	// last release unmaps a file or recycles a RAM chunk, so a view reader
	// can never see its words torn down or overwritten. Zero for a write
	// buffer, which is never shared, and for a record's chunks, which the
	// record owns and nothing releases.
	refs atomic.Int32
}

// release drops one reference; the reference that hits zero unmaps the
// segment, or returns a RAM chunk to its pool. Callers must hold a
// reference and must not touch the segment after releasing it.
func (s *segment) release() {
	if s.refs.Add(-1) != 0 {
		return
	}
	if s.pool != nil {
		s.pool.put(s)
		return
	}
	if s.mapped != nil {
		munmap(s.mapped)
		s.mapped = nil
	}
	s.data = nil
}

// clear empties a dense write buffer for reuse.
func (s *segment) clear() {
	bitset.ZeroWords(s.data)
	for i := range s.meta {
		s.meta[i].pop = 0
	}
}

// span returns the materialized words [lo, hi) of column m; callers must
// keep lo ≥ m.lo and hi ≤ m.hi.
func (s *segment) span(m *colMeta, lo, hi int) []uint64 {
	return s.data[m.off+(lo-m.lo) : m.off+(hi-m.lo)]
}

// word returns word w of column m, materialized or not.
func (s *segment) word(m *colMeta, w int) uint64 {
	if w < m.lo || w >= m.hi {
		return 0
	}
	return s.data[m.off+w-m.lo]
}

// rangeMasks resolves a row range [fromRow, toRow) to the word index of its
// first and last partial word plus the masks that trim them. Either mask is
// all-ones when the boundary is word-aligned; tailW is -1 then so it never
// matches.
func rangeMasks(fromRow, toRow int) (headW int, headMask uint64, tailW int, tailMask uint64) {
	headW = fromRow / wordBits
	headMask = ^uint64(0) << uint(fromRow%wordBits)
	tailW, tailMask = -1, ^uint64(0)
	if r := toRow % wordBits; r != 0 {
		tailW = toRow / wordBits
		tailMask = ^uint64(0) >> uint(wordBits-r)
	}
	return
}

// seriesCount returns the set bits of column i within rows [fromRow, toRow).
func (s *segment) seriesCount(i, fromRow, toRow int) int {
	m := &s.meta[i]
	if m.pop == 0 || fromRow >= toRow {
		return 0
	}
	if fromRow == 0 && toRow == s.rows {
		return m.pop
	}
	wLo, wHi := fromRow/wordBits, (toRow+wordBits-1)/wordBits
	if wLo < m.lo {
		wLo = m.lo
	}
	if wHi > m.hi {
		wHi = m.hi
	}
	headW, headMask, tailW, tailMask := rangeMasks(fromRow, toRow)
	n := 0
	for w := wLo; w < wHi; w++ {
		v := s.data[m.off+w-m.lo]
		if w == headW {
			v &= headMask
		}
		if w == tailW {
			v &= tailMask
		}
		n += bits.OnesCount64(v)
	}
	return n
}

// pairCount returns the rows in [fromRow, toRow) where column a OR column b
// has a set bit. The full-segment call is the hot shape (every window
// boundary except the oldest segment's is segment-aligned): it runs span
// algebra on the directory — disjoint spans sum their popcounts without
// touching a word, overlapping spans pay one fused OR+POPCNT sweep over the
// overlap plus plain popcounts of the exclusive leads/tails.
func (s *segment) pairCount(a, b, fromRow, toRow int) int {
	if fromRow >= toRow {
		return 0
	}
	am, bm := &s.meta[a], &s.meta[b]
	if am.pop == 0 {
		return s.seriesCount(b, fromRow, toRow)
	}
	if bm.pop == 0 {
		return s.seriesCount(a, fromRow, toRow)
	}
	if fromRow == 0 && toRow == s.rows {
		if am.hi <= bm.lo || bm.hi <= am.lo {
			return am.pop + bm.pop
		}
		iLo, iHi := am.lo, am.hi
		if bm.lo > iLo {
			iLo = bm.lo
		}
		if bm.hi < iHi {
			iHi = bm.hi
		}
		n := bitset.OrPopCountWords(s.span(am, iLo, iHi), s.span(bm, iLo, iHi))
		if am.lo < iLo {
			n += bitset.PopCountWords(s.span(am, am.lo, iLo))
		}
		if bm.lo < iLo {
			n += bitset.PopCountWords(s.span(bm, bm.lo, iLo))
		}
		if am.hi > iHi {
			n += bitset.PopCountWords(s.span(am, iHi, am.hi))
		}
		if bm.hi > iHi {
			n += bitset.PopCountWords(s.span(bm, iHi, bm.hi))
		}
		return n
	}
	// Boundary range: masked word loop over the union of the two spans
	// clipped to the row range.
	wLo, wHi := fromRow/wordBits, (toRow+wordBits-1)/wordBits
	uLo, uHi := am.lo, am.hi
	if bm.lo < uLo {
		uLo = bm.lo
	}
	if bm.hi > uHi {
		uHi = bm.hi
	}
	if wLo < uLo {
		wLo = uLo
	}
	if wHi > uHi {
		wHi = uHi
	}
	headW, headMask, tailW, tailMask := rangeMasks(fromRow, toRow)
	n := 0
	for w := wLo; w < wHi; w++ {
		v := s.word(am, w) | s.word(bm, w)
		if w == headW {
			v &= headMask
		}
		if w == tailW {
			v &= tailMask
		}
		n += bits.OnesCount64(v)
	}
	return n
}

// anyCount returns the rows in [fromRow, toRow) where at least one of the
// given columns has a set bit — the OR-reduction kernel behind
// CountAllGood. Each column's materialized span inside the range is ORed
// into acc (at least s.words words, owned by the caller), so columns with
// pop == 0 cost nothing; the head and tail words are masked to the range
// before the popcount.
func (s *segment) anyCount(series []int, fromRow, toRow int, acc []uint64) int {
	if fromRow >= toRow || len(series) == 0 {
		return 0
	}
	if len(series) == 1 {
		return s.seriesCount(series[0], fromRow, toRow)
	}
	wLo, wHi := fromRow/wordBits, (toRow+wordBits-1)/wordBits
	acc = acc[wLo:wHi]
	clear(acc)
	for _, i := range series {
		m := &s.meta[i]
		lo, hi := max(m.lo, wLo), min(m.hi, wHi)
		if m.pop != 0 && lo < hi {
			bitset.OrWords(acc[lo-wLo:hi-wLo], s.span(m, lo, hi))
		}
	}
	headW, headMask, tailW, tailMask := rangeMasks(fromRow, toRow)
	acc[headW-wLo] &= headMask
	if tailW >= 0 {
		acc[tailW-wLo] &= tailMask
	}
	return bitset.PopCountWords(acc)
}

// bit reports whether column i has row r set.
func (s *segment) bit(i, r int) bool {
	m := &s.meta[i]
	w := r / wordBits
	if m.pop == 0 || w < m.lo || w >= m.hi {
		return false
	}
	return s.data[m.off+w-m.lo]&(1<<uint(r%wordBits)) != 0
}

// rowInto sets bit i of dst for every column i with row r set; dst is
// cleared and holds at least ⌈columns/64⌉ words (bitset.Set.ResetWords). A
// dense chunk is read with a plain stride loop that builds each 64-column
// word from its last column down, shifting the word left by one and ORing
// in the next column's bit — no variable shifts, and one bounds check per
// word — and stores it once; only a span-compressed segment pays the span
// checks.
func (s *segment) rowInto(r int, dst []uint64) {
	w := r / wordBits
	if s.dense {
		mask := uint64(1) << uint(r%wordBits)
		stride, n := s.words, len(s.meta)
		for base := 0; base < n; base += wordBits {
			last := (min(n-base, wordBits) - 1) * stride
			col := s.data[(base*stride + w):][:last+1]
			var acc uint64
			for off := last; off >= 0; off -= stride {
				var bit uint64
				if col[off]&mask != 0 {
					bit = 1
				}
				acc = acc<<1 | bit
			}
			dst[base/wordBits] = acc
		}
		return
	}
	mask := uint64(1) << uint(r%wordBits)
	for i := range s.meta {
		m := &s.meta[i]
		if m.pop != 0 && w >= m.lo && w < m.hi && s.data[m.off+w-m.lo]&mask != 0 {
			dst[i/wordBits] |= 1 << uint(i%wordBits)
		}
	}
}

// transposeBlock writes rows 64w to 64w+63 of a dense chunk into rows, row
// b's columns at rows[b*nw:(b+1)*nw] with nw = ⌈columns/64⌉: each
// 64-column group of word w is one 64×64 bit transposition.
func (s *segment) transposeBlock(w int, rows []uint64) {
	nw := (len(s.meta) + wordBits - 1) / wordBits
	var m [wordBits]uint64
	for g := 0; g < nw; g++ {
		base := g * wordBits
		k := min(len(s.meta)-base, wordBits)
		for i := 0; i < k; i++ {
			m[i] = s.data[(base+i)*s.words+w]
		}
		clear(m[k:])
		transpose64(&m)
		for b, v := range m {
			rows[b*nw+g] = v
		}
	}
}

// transpose64 transposes the 64×64 bit matrix m in place: bit j of m[i]
// trades places with bit i of m[j]. Round j swaps the off-diagonal j×j
// quadrants of every 2j×2j block (Hacker's Delight §7-3, for bits numbered
// from the least significant end). Each round walks its blocks through
// fixed-size array pointers, so the compiler drops the bounds checks; the
// last two rounds run together on each 4-word block, which they alone
// touch.
func transpose64(m *[wordBits]uint64) {
	for k := 0; k < 32; k++ {
		m[k], m[k+32] = swapBits(m[k], m[k+32], 32, 0x00000000ffffffff)
	}
	for b := 0; b < wordBits; b += 32 {
		h := (*[32]uint64)(m[b:])
		for k := 0; k < 16; k++ {
			h[k], h[k+16] = swapBits(h[k], h[k+16], 16, 0x0000ffff0000ffff)
		}
	}
	for b := 0; b < wordBits; b += 16 {
		h := (*[16]uint64)(m[b:])
		for k := 0; k < 8; k++ {
			h[k], h[k+8] = swapBits(h[k], h[k+8], 8, 0x00ff00ff00ff00ff)
		}
	}
	for b := 0; b < wordBits; b += 8 {
		h := (*[8]uint64)(m[b:])
		for k := 0; k < 4; k++ {
			h[k], h[k+4] = swapBits(h[k], h[k+4], 4, 0x0f0f0f0f0f0f0f0f)
		}
	}
	for b := 0; b < wordBits; b += 4 {
		h := (*[4]uint64)(m[b:])
		h[0], h[2] = swapBits(h[0], h[2], 2, 0x3333333333333333)
		h[1], h[3] = swapBits(h[1], h[3], 2, 0x3333333333333333)
		h[0], h[1] = swapBits(h[0], h[1], 1, 0x5555555555555555)
		h[2], h[3] = swapBits(h[2], h[3], 1, 0x5555555555555555)
	}
}

// swapBits exchanges the bits of a under mask<<j with the bits of b under
// mask.
func swapBits(a, b uint64, j uint, mask uint64) (uint64, uint64) {
	t := (a>>j ^ b) & mask
	return a ^ t<<j, b ^ t
}
