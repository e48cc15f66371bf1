package bitset

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddContainsRemove(t *testing.T) {
	s := New(10)
	if !s.IsEmpty() {
		t.Fatal("new set not empty")
	}
	s.Add(3)
	s.Add(200) // beyond initial capacity, must grow
	if !s.Contains(3) || !s.Contains(200) {
		t.Fatal("missing added elements")
	}
	if s.Contains(4) || s.Contains(199) {
		t.Fatal("contains elements never added")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s.Remove(3)
	if s.Contains(3) {
		t.Fatal("remove failed")
	}
	s.Remove(1000) // out of range remove is a no-op
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestContainsNegative(t *testing.T) {
	s := New(8)
	if s.Contains(-1) {
		t.Fatal("Contains(-1) = true")
	}
	s.Remove(-5) // must not panic
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	New(0).Add(-1)
}

func TestUnionIntersectDifference(t *testing.T) {
	a := FromIndices(1, 2, 3, 64, 100)
	b := FromIndices(3, 64, 200)

	u := Union(a, b)
	want := []int{1, 2, 3, 64, 100, 200}
	if got := u.Indices(); !equalInts(got, want) {
		t.Fatalf("union = %v, want %v", got, want)
	}

	i := Intersect(a, b)
	if got := i.Indices(); !equalInts(got, []int{3, 64}) {
		t.Fatalf("intersect = %v", got)
	}

	d := a.Clone()
	d.DifferenceWith(b)
	if got := d.Indices(); !equalInts(got, []int{1, 2, 100}) {
		t.Fatalf("difference = %v", got)
	}
}

func TestEqualIgnoresCapacity(t *testing.T) {
	a := New(1000)
	a.Add(5)
	b := FromIndices(5)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("sets with equal contents but different capacity not Equal")
	}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

func TestSubset(t *testing.T) {
	a := FromIndices(1, 2)
	b := FromIndices(1, 2, 3)
	if !a.IsSubsetOf(b) {
		t.Fatal("a ⊆ b expected")
	}
	if b.IsSubsetOf(a) {
		t.Fatal("b ⊆ a unexpected")
	}
	empty := New(0)
	if !empty.IsSubsetOf(a) {
		t.Fatal("∅ ⊆ a expected")
	}
}

func TestIntersects(t *testing.T) {
	a := FromIndices(10, 20)
	b := FromIndices(20, 30)
	c := FromIndices(31)
	if !a.Intersects(b) {
		t.Fatal("a ∩ b nonempty expected")
	}
	if b.Intersects(c) == false && b.IntersectionCount(c) != 0 {
		t.Fatal("inconsistent Intersects / IntersectionCount")
	}
	if a.Intersects(c) {
		t.Fatal("a ∩ c empty expected")
	}
	if got := a.IntersectionCount(b); got != 1 {
		t.Fatalf("IntersectionCount = %d, want 1", got)
	}
}

func TestMin(t *testing.T) {
	if got := New(0).Min(); got != -1 {
		t.Fatalf("empty Min = %d, want -1", got)
	}
	if got := FromIndices(65, 3, 128).Min(); got != 3 {
		t.Fatalf("Min = %d, want 3", got)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIndices(1, 2, 3, 4, 5)
	count := 0
	s.ForEach(func(i int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("visited %d, want 3", count)
	}
}

func TestClear(t *testing.T) {
	s := FromIndices(1, 100)
	s.Clear()
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatal("Clear did not empty the set")
	}
}

// TestResetWords pins ResetWords: it empties the set, grows it to hold n
// bits, keeps longer storage cleared, and its words write through.
func TestResetWords(t *testing.T) {
	s := FromIndices(3)
	w := s.ResetWords(130)
	if len(w) != 3 || !s.IsEmpty() {
		t.Fatalf("ResetWords(130) on a 1-word set: %d words, empty=%v; want 3, true", len(w), s.IsEmpty())
	}
	w[2] = 1
	if !s.Contains(128) {
		t.Fatal("a word written through ResetWords is not in the set")
	}
	long := FromIndices(0, 300)
	if w := long.ResetWords(10); len(w) != 5 || !long.IsEmpty() {
		t.Fatalf("ResetWords(10) on a 5-word set: %d words, empty=%v; want 5, true", len(w), long.IsEmpty())
	}
	if w := New(0).ResetWords(0); len(w) != 0 {
		t.Fatalf("ResetWords(0) on an empty set: %d words", len(w))
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(2, 0).String(); got != "{0, 2}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(0).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestEnumerateSubsets(t *testing.T) {
	var seen []string
	EnumerateSubsets([]int{4, 7, 9}, func(s *Set) bool {
		seen = append(seen, s.String())
		return true
	})
	if len(seen) != 7 { // 2^3 - 1 non-empty subsets
		t.Fatalf("enumerated %d subsets, want 7", len(seen))
	}
	uniq := map[string]bool{}
	for _, k := range seen {
		if uniq[k] {
			t.Fatalf("duplicate subset %s", k)
		}
		uniq[k] = true
	}
}

func TestEnumerateSubsetsEarlyStop(t *testing.T) {
	n := 0
	EnumerateSubsets([]int{1, 2, 3, 4}, func(s *Set) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("enumerated %d, want early stop at 5", n)
	}
}

func TestEnumerateSubsetsTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >30 elements")
		}
	}()
	big := make([]int, 31)
	EnumerateSubsets(big, func(*Set) bool { return true })
}

// Property: union/intersection/difference agree with a map-based reference
// implementation on random inputs.
func TestSetAlgebraAgainstReference(t *testing.T) {
	f := func(aIdx, bIdx []uint8) bool {
		ref := func(xs []uint8) map[int]bool {
			m := map[int]bool{}
			for _, x := range xs {
				m[int(x)] = true
			}
			return m
		}
		ma, mb := ref(aIdx), ref(bIdx)
		a, b := New(0), New(0)
		for i := range ma {
			a.Add(i)
		}
		for i := range mb {
			b.Add(i)
		}

		u := Union(a, b)
		for i := 0; i < 256; i++ {
			if u.Contains(i) != (ma[i] || mb[i]) {
				return false
			}
		}
		in := Intersect(a, b)
		for i := 0; i < 256; i++ {
			if in.Contains(i) != (ma[i] && mb[i]) {
				return false
			}
		}
		d := a.Clone()
		d.DifferenceWith(b)
		for i := 0; i < 256; i++ {
			if d.Contains(i) != (ma[i] && !mb[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Key is injective over contents — two random sets have equal keys
// iff they are Equal.
func TestKeyInjective(t *testing.T) {
	f := func(aIdx, bIdx []uint16) bool {
		a, b := New(0), New(0)
		for _, i := range aIdx {
			a.Add(int(i) % 500)
		}
		for _, i := range bIdx {
			b.Add(int(i) % 500)
		}
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Indices is sorted and round-trips through FromIndices.
func TestIndicesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64)
		s := New(0)
		for i := 0; i < n; i++ {
			s.Add(rng.Intn(300))
		}
		idx := s.Indices()
		if !sort.IntsAreSorted(idx) {
			t.Fatalf("Indices not sorted: %v", idx)
		}
		if got := FromIndices(idx...); !got.Equal(s) {
			t.Fatalf("round trip failed: %v vs %v", got, s)
		}
		if len(idx) != s.Len() {
			t.Fatalf("len(Indices)=%d, Len()=%d", len(idx), s.Len())
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWordKernels(t *testing.T) {
	a := []uint64{0b1010, 0xff00, 1}
	b := []uint64{0b0110, 0x00ff}

	or := append([]uint64(nil), a...)
	OrWords(or, b)
	if or[0] != 0b1110 || or[1] != 0xffff || or[2] != 1 {
		t.Fatalf("OrWords: %x", or)
	}

	an := append([]uint64(nil), a...)
	AndNotWords(an, b)
	if an[0] != 0b1000 || an[1] != 0xff00 || an[2] != 1 {
		t.Fatalf("AndNotWords: %x", an)
	}

	if got := PopCountWords(a); got != 2+8+1 {
		t.Fatalf("PopCountWords = %d, want 11", got)
	}

	z := append([]uint64(nil), a...)
	ZeroWords(z)
	if PopCountWords(z) != 0 {
		t.Fatalf("ZeroWords left bits: %x", z)
	}

	// Kernels over mismatched lengths only touch the common prefix.
	short := []uint64{^uint64(0)}
	OrWords(short, a)
	if len(short) != 1 {
		t.Fatal("OrWords grew dst")
	}
}

func TestWordsView(t *testing.T) {
	s := FromIndices(0, 64, 65)
	ws := s.Words()
	if len(ws) != 2 || ws[0] != 1 || ws[1] != 0b11 {
		t.Fatalf("Words() = %x", ws)
	}
	if got := PopCountWords(ws); got != s.Len() {
		t.Fatalf("popcount %d != Len %d", got, s.Len())
	}
}

// TestAppendKeyMatchesKey pins the allocation-free key encoder against Key:
// identical bytes for every shape, including trailing-zero-word trimming and
// buffer reuse.
func TestAppendKeyMatchesKey(t *testing.T) {
	sets := []*Set{
		New(0),
		New(100),
		FromIndices(0),
		FromIndices(63),
		FromIndices(64),
		FromIndices(0, 63, 64, 127, 128),
		FromIndices(5, 999),
	}
	// A set whose high words were set then cleared exercises trimming.
	trimmed := FromIndices(3, 500)
	trimmed.Remove(500)
	sets = append(sets, trimmed)

	buf := make([]byte, 0, 64)
	for _, s := range sets {
		want := s.Key()
		buf = s.AppendKey(buf[:0])
		if string(buf) != want {
			t.Fatalf("AppendKey(%v) = %q, Key = %q", s, string(buf), want)
		}
	}
	if got := New(10).Key(); got != "" {
		t.Fatalf("empty set key = %q, want empty string", got)
	}
}

// TestUnrolledKernelsAgainstReference pins the 8-way unrolled word kernels
// (and the fused OR/AND-NOT popcount variants) bit-identical to naive
// single-word reference loops, across lengths that exercise every unroll
// remainder (0..17 words) and mismatched slice lengths.
func TestUnrolledKernelsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	randWords := func(n int) []uint64 {
		ws := make([]uint64, n)
		for i := range ws {
			ws[i] = rng.Uint64()
			if rng.Intn(4) == 0 {
				ws[i] = 0 // zero words exercise skip-friendly inputs
			}
		}
		return ws
	}
	for la := 0; la <= 17; la++ {
		for _, lb := range []int{0, 1, la, la + 3} {
			a, b := randWords(la), randWords(lb)
			n := min(la, lb)

			wantOrPop, wantAndNotPop := 0, 0
			for i := 0; i < n; i++ {
				wantOrPop += bits.OnesCount64(a[i] | b[i])
				wantAndNotPop += bits.OnesCount64(a[i] &^ b[i])
			}
			if got := OrPopCountWords(a, b); got != wantOrPop {
				t.Fatalf("OrPopCountWords(len %d, %d) = %d, want %d", la, lb, got, wantOrPop)
			}
			if got := AndNotPopCountWords(a, b); got != wantAndNotPop {
				t.Fatalf("AndNotPopCountWords(len %d, %d) = %d, want %d", la, lb, got, wantAndNotPop)
			}

			wantPop := 0
			for _, w := range a {
				wantPop += bits.OnesCount64(w)
			}
			if got := PopCountWords(a); got != wantPop {
				t.Fatalf("PopCountWords(len %d) = %d, want %d", la, got, wantPop)
			}

			or := append([]uint64(nil), a...)
			OrWords(or, b)
			an := append([]uint64(nil), a...)
			AndNotWords(an, b)
			for i := range a {
				wo, wa := a[i], a[i]
				if i < n {
					wo, wa = a[i]|b[i], a[i]&^b[i]
				}
				if or[i] != wo {
					t.Fatalf("OrWords(len %d, %d)[%d] = %x, want %x", la, lb, i, or[i], wo)
				}
				if an[i] != wa {
					t.Fatalf("AndNotWords(len %d, %d)[%d] = %x, want %x", la, lb, i, an[i], wa)
				}
			}
		}
	}
}
