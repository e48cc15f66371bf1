// Package bitset provides a compact dynamic bit set used throughout the
// tomography library to represent sets of links and sets of paths.
//
// Links and paths are identified by small dense integer indices, so a bit set
// is both the fastest and the most memory-efficient representation for the
// set algebra the algorithms need: path coverage ψ(A), unions of congested
// links across correlation sets, and equality tests between coverage sets
// (the heart of the Assumption-4 identifiability check).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dynamic bit set. The zero value is an empty set of capacity zero;
// it grows on demand when bits are set. Sets are value-like: use Clone to
// copy, and note that the assignment operator shares the underlying storage.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity for n bits preallocated.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns a set containing exactly the given indices.
func FromIndices(indices ...int) *Set {
	s := &Set{}
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// FromWords returns a set holding a copy of the packed words (bit i of
// word w is element w*wordBits+i) — the inverse of Words, for decoders
// that materialize sets from columnar word buffers.
func FromWords(words []uint64) *Set {
	s := &Set{words: make([]uint64, len(words))}
	copy(s.words, words)
	return s
}

func (s *Set) ensure(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts index i into the set. It panics if i is negative.
func (s *Set) Add(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitset: negative index %d", i))
	}
	w := i / wordBits
	s.ensure(w)
	s.words[w] |= 1 << uint(i%wordBits)
}

// Remove deletes index i from the set; it is a no-op if i is absent.
func (s *Set) Remove(i int) {
	if i < 0 {
		return
	}
	w := i / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(i%wordBits)
	}
}

// Contains reports whether index i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(i%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// CopyFrom replaces s's contents with t's, reusing s's storage when large
// enough.
func (s *Set) CopyFrom(t *Set) {
	if cap(s.words) < len(t.words) {
		s.words = make([]uint64, len(t.words))
	}
	s.words = s.words[:len(t.words)]
	copy(s.words, t.words)
}

// Clear removes all elements, keeping the allocated capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ResetWords empties the set, grows it to hold at least n bits, and returns
// its backing words for the caller to fill in place (bit i of word w is
// element w*64+i). Unlike Words, the result may be written; it is
// invalidated by any later mutation that grows the set. Words past n bits,
// if the set was already longer, stay cleared.
func (s *Set) ResetWords(n int) []uint64 {
	s.Clear()
	if n > 0 {
		s.ensure((n - 1) / wordBits)
	}
	return s.words
}

// UnionWith adds all elements of t to s.
func (s *Set) UnionWith(t *Set) {
	s.ensure(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s all elements not in t.
func (s *Set) IntersectWith(t *Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// SymmetricDifferenceWith replaces s with s XOR t (elements in exactly one
// of the two sets). This is GF(2) row addition when sets encode 0/1 vectors.
func (s *Set) SymmetricDifferenceWith(t *Set) {
	s.ensure(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] ^= w
	}
}

// DifferenceWith removes all elements of t from s.
func (s *Set) DifferenceWith(t *Set) {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= t.words[i]
	}
}

// Union returns a new set holding s ∪ t.
func Union(s, t *Set) *Set {
	u := s.Clone()
	u.UnionWith(t)
	return u
}

// Intersect returns a new set holding s ∩ t.
func Intersect(s, t *Set) *Set {
	u := s.Clone()
	u.IntersectWith(t)
	return u
}

// Intersects reports whether s and t share at least one element.
func (s *Set) Intersects(t *Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |s ∩ t| without allocating.
func (s *Set) IntersectionCount(t *Set) int {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(t.words) {
			b = t.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// IsSubsetOf reports whether every element of s is in t.
func (s *Set) IsSubsetOf(t *Set) bool {
	for i, w := range s.words {
		var b uint64
		if i < len(t.words) {
			b = t.words[i]
		}
		if w&^b != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order. If fn returns false
// the iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Indices returns the elements of the set in ascending order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// AppendIndices appends the elements of the set in ascending order to dst
// and returns the extended slice — the allocation-free form of Indices for
// callers with a reusable buffer.
func (s *Set) AppendIndices(dst []int) []int {
	s.ForEach(func(i int) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// hexDigits is the alphabet AppendKey encodes words with.
const hexDigits = "0123456789abcdef"

// Key returns a string usable as a map key identifying the set's contents.
// Two sets with equal contents always produce the same key, regardless of
// their internal capacity.
func (s *Set) Key() string {
	return string(s.AppendKey(nil))
}

// AppendKey appends the set's Key bytes to dst and returns the extended
// slice — the allocation-free form of Key for callers that look up
// string-keyed maps with a reusable buffer (m[string(buf)] compiles to a
// no-copy lookup). The bytes are identical to Key's.
func (s *Set) AppendKey(dst []byte) []byte {
	return AppendKeyWords(dst, s.words)
}

// AppendKeyWords is AppendKey over a raw packed word slice: it appends the
// key a Set with exactly those words would produce. Trailing zero words are
// trimmed first, so two slices that encode the same bits under different
// strides (wire rows padded to a fixed words-per-row, say) key identically.
func AppendKeyWords(dst []byte, words []uint64) []byte {
	// Trim trailing zero words so capacity differences do not matter.
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	for i := 0; i < n; i++ {
		w := words[i]
		for shift := 60; shift >= 0; shift -= 4 {
			dst = append(dst, hexDigits[(w>>uint(shift))&0xf])
		}
	}
	return dst
}

// String renders the set as "{1, 4, 7}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Words exposes the set's backing words (least-significant bit of word 0 is
// element 0). The returned slice aliases the set's storage and must be
// treated as read-only; it is invalidated by any mutation that grows the
// set. It exists so columnar consumers (internal/segstore's record and
// window appends) can read a set word by word.
func (s *Set) Words() []uint64 { return s.words }

// --- Word-level kernels. ---
//
// The columnar snapshot store keeps one packed []uint64 bit column per path;
// its hot queries are OR-reductions and popcounts over such columns. The
// kernels live here so the store and the set share one implementation of the
// word arithmetic.
//
// The reduction kernels are 8-way unrolled: eight independent OR+POPCNT
// chains per iteration give the out-of-order core enough parallelism to
// saturate its popcount ports, and under GOAMD64 ≥ v2 the compiler lowers
// each bits.OnesCount64 to a bare POPCNT (no feature-check branch), so the
// unrolled body is a straight run of loads, ORs and POPCNTs.

// OrWords sets dst |= src element-wise over the common prefix.
func OrWords(dst, src []uint64) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	dst, src = dst[:n], src[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
		d[0] |= s[0]
		d[1] |= s[1]
		d[2] |= s[2]
		d[3] |= s[3]
		d[4] |= s[4]
		d[5] |= s[5]
		d[6] |= s[6]
		d[7] |= s[7]
	}
	for ; i < n; i++ {
		dst[i] |= src[i]
	}
}

// AndNotWords sets dst &^= src element-wise over the common prefix.
func AndNotWords(dst, src []uint64) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	dst, src = dst[:n], src[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
		d[0] &^= s[0]
		d[1] &^= s[1]
		d[2] &^= s[2]
		d[3] &^= s[3]
		d[4] &^= s[4]
		d[5] &^= s[5]
		d[6] &^= s[6]
		d[7] &^= s[7]
	}
	for ; i < n; i++ {
		dst[i] &^= src[i]
	}
}

// PopCountWords returns the total number of set bits across the words.
func PopCountWords(ws []uint64) int {
	c := 0
	i, n := 0, len(ws)
	for ; i+8 <= n; i += 8 {
		w := ws[i : i+8 : i+8]
		c += bits.OnesCount64(w[0]) + bits.OnesCount64(w[1]) +
			bits.OnesCount64(w[2]) + bits.OnesCount64(w[3]) +
			bits.OnesCount64(w[4]) + bits.OnesCount64(w[5]) +
			bits.OnesCount64(w[6]) + bits.OnesCount64(w[7])
	}
	for ; i < n; i++ {
		c += bits.OnesCount64(ws[i])
	}
	return c
}

// OrPopCountWords returns popcount(a | b) over the common prefix without
// materializing the OR — the fused kernel of the pair-count sweeps. One pass,
// no store traffic: each 8-word group issues eight loads per side, eight ORs
// and eight POPCNTs.
func OrPopCountWords(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a, b = a[:n], b[:n]
	c := 0
	i := 0
	for ; i+8 <= n; i += 8 {
		x, y := a[i:i+8:i+8], b[i:i+8:i+8]
		c += bits.OnesCount64(x[0]|y[0]) + bits.OnesCount64(x[1]|y[1]) +
			bits.OnesCount64(x[2]|y[2]) + bits.OnesCount64(x[3]|y[3]) +
			bits.OnesCount64(x[4]|y[4]) + bits.OnesCount64(x[5]|y[5]) +
			bits.OnesCount64(x[6]|y[6]) + bits.OnesCount64(x[7]|y[7])
	}
	for ; i < n; i++ {
		c += bits.OnesCount64(a[i] | b[i])
	}
	return c
}

// AndNotPopCountWords returns popcount(a &^ b) over the common prefix — the
// fused difference-count companion of OrPopCountWords (snapshots where a is
// set but b is not).
func AndNotPopCountWords(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a, b = a[:n], b[:n]
	c := 0
	i := 0
	for ; i+8 <= n; i += 8 {
		x, y := a[i:i+8:i+8], b[i:i+8:i+8]
		c += bits.OnesCount64(x[0]&^y[0]) + bits.OnesCount64(x[1]&^y[1]) +
			bits.OnesCount64(x[2]&^y[2]) + bits.OnesCount64(x[3]&^y[3]) +
			bits.OnesCount64(x[4]&^y[4]) + bits.OnesCount64(x[5]&^y[5]) +
			bits.OnesCount64(x[6]&^y[6]) + bits.OnesCount64(x[7]&^y[7])
	}
	for ; i < n; i++ {
		c += bits.OnesCount64(a[i] &^ b[i])
	}
	return c
}

// ZeroWords clears every word.
func ZeroWords(ws []uint64) {
	for i := range ws {
		ws[i] = 0
	}
}

// EnumerateSubsets calls fn for every non-empty subset of the given elements,
// in an order that guarantees subsets with fewer elements are visited before
// their supersets is NOT guaranteed; callers needing an ordering should sort.
// It panics if len(elements) > 30 to avoid accidental exponential blowups.
func EnumerateSubsets(elements []int, fn func(subset *Set) bool) {
	if len(elements) > 30 {
		panic(fmt.Sprintf("bitset: refusing to enumerate 2^%d subsets", len(elements)))
	}
	n := uint(len(elements))
	for mask := uint64(1); mask < 1<<n; mask++ {
		s := &Set{}
		for b := uint(0); b < n; b++ {
			if mask&(1<<b) != 0 {
				s.Add(elements[b])
			}
		}
		if !fn(s) {
			return
		}
	}
}
