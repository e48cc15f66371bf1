// Package snapstore is the columnar measurement store: per-snapshot Boolean
// observations ("was path/link i congested in snapshot t?") stored
// path-major as one packed uint64 bit column per series.
//
// The tomography algorithms overwhelmingly ask one question of a
// measurement record: in how many snapshots was at least one path of a
// small set congested? Row-major storage (one bitset per snapshot) answers
// it by scanning all N snapshots per query. Column-major storage answers it
// word-parallel: OR the selected columns together and popcount, which is
// O(N/64 · |paths|) with sequential memory access — the layout BuildEquations'
// hundreds of thousands of single/pair queries want.
//
// A Store is built in one of three ways:
//
//   - NewFixed preallocates all columns for a known snapshot count so the
//     simulator's workers can fill disjoint 64-snapshot-aligned blocks
//     concurrently with SetBit: block b owns word b of every column, so
//     shards never share a word and the merged result is deterministic (the
//     "merge" is the layout itself).
//   - New + Append ingests snapshots one at a time — the streaming path.
//     Appending grows every column in lockstep, so a reader that arrives
//     between Appends always sees a consistent prefix.
//   - FromRows converts a legacy row-major record ([]*bitset.Set, one per
//     snapshot) — the compatibility constructor.
//
// Sliding windows live in internal/segstore, whose chunked store answers
// every count exactly like a fixed store over the window's rows.
package snapstore

import (
	"fmt"

	"repro/internal/bitset"
)

const wordBits = 64

// BlockSnapshots is the snapshot-block granularity for concurrent fixed
// fills: writers that each own a disjoint range of whole 64-snapshot blocks
// touch disjoint words of every column, so no synchronization or merge step
// is needed and the result is independent of the writer count.
const BlockSnapshots = wordBits

// Store holds one bit column per series (path or link) over snapshots.
// Queries are safe for concurrent use once filling is complete; Append and
// SetBit are writer-side operations with the ownership rules documented on
// each.
type Store struct {
	n    int        // snapshots stored
	cols [][]uint64 // cols[series][t/64] bit t%64
}

// New returns an empty streaming store with the given number of series.
func New(series int) *Store {
	if series < 0 {
		series = 0
	}
	return &Store{cols: make([][]uint64, series)}
}

// NewFixed returns a store preallocated for exactly the given snapshot
// count, for concurrent filling with SetBit.
func NewFixed(series, snapshots int) *Store {
	s := New(series)
	if snapshots < 0 {
		snapshots = 0
	}
	s.n = snapshots
	words := (snapshots + wordBits - 1) / wordBits
	if words > 0 {
		// One backing array for all columns: predictable layout, one
		// allocation, and the whole store is contiguous for the OR kernels.
		backing := make([]uint64, words*series)
		for i := range s.cols {
			s.cols[i] = backing[i*words : (i+1)*words : (i+1)*words]
		}
	}
	return s
}

// FromRows builds a store from a row-major record: rows[t] is the set of
// congested series in snapshot t. This is the compatibility constructor for
// code that still assembles []*bitset.Set snapshots.
func FromRows(series int, rows []*bitset.Set) *Store {
	s := NewFixed(series, len(rows))
	for t, row := range rows {
		row.ForEach(func(i int) bool {
			if i >= series {
				panic(fmt.Sprintf("snapstore: series %d out of range (%d series)", i, series))
			}
			s.SetBit(i, t)
			return true
		})
	}
	return s
}

// NumSeries returns the number of series (paths or links).
func (s *Store) NumSeries() int { return len(s.cols) }

// Snapshots returns the number of snapshots the store holds.
func (s *Store) Snapshots() int { return s.n }

// Words returns the number of words in every column.
func (s *Store) Words() int { return (s.n + wordBits - 1) / wordBits }

// SetBit marks series i congested in snapshot t of a fixed store. Concurrent
// callers must own disjoint 64-snapshot-aligned blocks of t (see
// BlockSnapshots); SetBit panics if t is outside the preallocated range.
func (s *Store) SetBit(i, t int) {
	if t < 0 || t >= s.n {
		panic(fmt.Sprintf("snapstore: snapshot %d outside fixed range [0,%d)", t, s.n))
	}
	s.cols[i][t/wordBits] |= 1 << uint(t%wordBits)
}

// Bit reports whether series i was congested in snapshot t.
func (s *Store) Bit(i, t int) bool {
	if t < 0 || t >= s.n {
		return false
	}
	col := s.cols[i]
	w := t / wordBits
	return w < len(col) && col[w]&(1<<uint(t%wordBits)) != 0
}

// Append ingests one snapshot: congested holds the congested series. It
// returns the new snapshot's index. Append must not run concurrently with
// other writers or readers.
func (s *Store) Append(congested *bitset.Set) int {
	t := s.n
	s.n++
	if w := s.Words(); w > 0 && (len(s.cols) == 0 || len(s.cols[0]) < w) {
		for i := range s.cols {
			s.cols[i] = append(s.cols[i], 0)
		}
	}
	congested.ForEach(func(i int) bool {
		if i >= len(s.cols) {
			panic(fmt.Sprintf("snapstore: series %d out of range (%d series)", i, len(s.cols)))
		}
		s.cols[i][t/wordBits] |= 1 << uint(t%wordBits)
		return true
	})
	return t
}

// Column exposes series i's packed column. The slice aliases store storage
// and must be treated as read-only.
func (s *Store) Column(i int) []uint64 { return s.cols[i] }

// CongestedCount returns the number of snapshots in which series i was
// congested (a column popcount).
func (s *Store) CongestedCount(i int) int {
	return bitset.PopCountWords(s.cols[i])
}

// CountAnyCongested returns the number of snapshots in which at least one of
// the given series was congested: OR of the columns, then popcount. scratch
// is an optional reusable buffer of at least Words() words; pass nil to
// allocate. Bits past the last snapshot are never set, so no tail masking is
// needed.
func (s *Store) CountAnyCongested(series []int, scratch []uint64) int {
	switch len(series) {
	case 0:
		return 0
	case 1:
		return bitset.PopCountWords(s.cols[series[0]])
	}
	words := s.Words()
	if cap(scratch) < words {
		scratch = make([]uint64, words)
	}
	scratch = scratch[:words]
	copy(scratch, s.cols[series[0]])
	for _, i := range series[1:] {
		bitset.OrWords(scratch, s.cols[i])
	}
	return bitset.PopCountWords(scratch)
}

// CountAllGood returns the number of snapshots in which none of the given
// series was congested. An empty series list counts every snapshot.
func (s *Store) CountAllGood(series []int, scratch []uint64) int {
	return s.Snapshots() - s.CountAnyCongested(series, scratch)
}

// Pair identifies one unordered pair of series for the batched count
// kernels.
type Pair struct {
	A, B int
}

// pairBlockWords is the cache-block size of the batched pair-count kernel:
// the blocked sweep touches at most series·pairBlockWords·8 bytes of column
// data per block, so with a few hundred series the working set of one block
// stays inside L2 and every column word is streamed from memory once per
// call instead of once per pair that uses it.
const pairBlockWords = 512

// RowInto materializes snapshot t as a set of congested series into dst
// (cleared first).
func (s *Store) RowInto(t int, dst *bitset.Set) {
	dst.Clear()
	w := t / wordBits
	mask := uint64(1) << uint(t%wordBits)
	for i, col := range s.cols {
		if w < len(col) && col[w]&mask != 0 {
			dst.Add(i)
		}
	}
}

// Row materializes snapshot t as a freshly allocated set.
func (s *Store) Row(t int) *bitset.Set {
	dst := bitset.New(len(s.cols))
	s.RowInto(t, dst)
	return dst
}

// Rows materializes every snapshot row-major — the compatibility view for code that still wants
// []*bitset.Set. It costs O(snapshots · series); hot paths should query
// columns instead.
func (s *Store) Rows() []*bitset.Set {
	out := make([]*bitset.Set, s.Snapshots())
	for t := range out {
		out[t] = s.Row(t)
	}
	return out
}

// Equal reports whether the two stores hold identical observations, in
// order.
func (s *Store) Equal(t *Store) bool {
	if s.n != t.n || len(s.cols) != len(t.cols) {
		return false
	}
	for i := range s.cols {
		a, b := s.cols[i], t.cols[i]
		for w := 0; w < s.Words(); w++ {
			var av, bv uint64
			if w < len(a) {
				av = a[w]
			}
			if w < len(b) {
				bv = b[w]
			}
			if av != bv {
				return false
			}
		}
	}
	return true
}
