package segstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bitset"
)

// fillRow derives a deterministic sparse congestion row from a lifetime
// index: roughly density of the series congested, pattern varying with t.
func fillRow(dst *bitset.Set, series, t, density int) {
	dst.Clear()
	for i := 0; i < series; i++ {
		if (t*31+i*17+t*i)%density == 0 {
			dst.Add(i)
		}
	}
}

func testPairs(series int) []Pair {
	var pairs []Pair
	for i := 0; i < series; i++ {
		for d := 1; d <= 3 && i+d < series; d++ {
			pairs = append(pairs, Pair{A: i, B: i + d})
		}
	}
	return pairs
}

// windowRows keeps the rows a window should retain — the reference every
// store test compares against, through the row-major oracle.
type windowRows struct {
	capacity int // 0: unbounded
	rows     []*bitset.Set
}

func (w *windowRows) append(row *bitset.Set) {
	if w.capacity > 0 && len(w.rows) == w.capacity {
		w.rows = w.rows[1:]
	}
	w.rows = append(w.rows, row.Clone())
}

func (w *windowRows) drop(k int) int {
	k = min(k, len(w.rows))
	w.rows = w.rows[k:]
	return k
}

func (w *windowRows) fixed() rowOracle {
	return rowOracle{rows: w.rows}
}

// appendRow appends a set through the store's word path.
func appendRow(ts *TieredStore, row, evicted *bitset.Set) bool {
	return ts.AppendEvictWords(row.Words(), evicted)
}

// storeModes runs a test over a RAM store and a spilling one.
func storeModes(t *testing.T, segRows int) map[string]Options {
	return map[string]Options{
		"ram":   {SegmentRows: segRows},
		"spill": {Dir: t.TempDir(), SegmentRows: segRows},
	}
}

// TestTieredMatchesRing drives a tiered store and a reference window
// through the same append/evict/drop sequence and requires every count
// kernel to agree exactly at every step with the row-major oracle over
// the retained rows — across chunk seals, chunks leaving the window,
// and windows whose head sits mid-chunk, for RAM and spilled chunks alike.
// This is the subsystem's core contract: chunking and disk are
// implementation details the counts cannot see.
func TestTieredMatchesRing(t *testing.T) {
	const (
		series   = 70 // straddles a word boundary
		segRows  = 128
		capacity = 300 // not a multiple of segRows: head usually mid-segment
		steps    = 1000
	)
	for mode, opts := range storeModes(t, segRows) {
		t.Run(mode, func(t *testing.T) {
			ts, err := NewTiered(series, capacity, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()
			ref := &windowRows{capacity: capacity}
			appended := 0

			row := bitset.New(series)
			ev := bitset.New(series)
			pairs := testPairs(series)
			out := make([]int, len(pairs))
			all := make([]int, series)
			for i := range all {
				all[i] = i
			}

			check := func(step int) {
				t.Helper()
				fixed := ref.fixed()
				if ts.Snapshots() != fixed.Snapshots() || ts.Appended() != appended {
					t.Fatalf("step %d: tiered %d/%d snapshots, want %d/%d",
						step, ts.Snapshots(), ts.Appended(), fixed.Snapshots(), appended)
				}
				for i := 0; i < series; i++ {
					if g, w := ts.CongestedCount(i), fixed.CongestedCount(i); g != w {
						t.Fatalf("step %d: series %d congested count %d, want %d", step, i, g, w)
					}
				}
				ts.CountPairsGood(pairs, out)
				for i, p := range pairs {
					if w := fixed.CountAllGood([]int{p.A, p.B}); out[i] != w {
						t.Fatalf("step %d: pair %v good count %d, want %d", step, p, out[i], w)
					}
				}
				for i := 0; i+2 < series; i += 7 {
					sub := all[i : i+3]
					if g, w := ts.CountAllGood(sub), fixed.CountAllGood(sub); g != w {
						t.Fatalf("step %d: all-good %v count %d, want %d", step, sub, g, w)
					}
					if g, w := ts.CountPairGood(i, i+2), fixed.CountAllGood([]int{i, i + 2}); g != w {
						t.Fatalf("step %d: pair-good (%d,%d) count %d, want %d", step, i, i+2, g, w)
					}
				}
				if g, w := ts.CountAllGood(nil), fixed.Snapshots(); g != w {
					t.Fatalf("step %d: empty all-good %d, want %d", step, g, w)
				}
			}

			for step := 0; step < steps; step++ {
				switch {
				case step%97 == 96:
					if got, want := ts.DropOldest(step%37), ref.drop(step%37); got != want {
						t.Fatalf("step %d: DropOldest dropped %d, want %d", step, got, want)
					}
				case step%23 == 22:
					var want *bitset.Set
					if len(ref.rows) > 0 {
						want = ref.rows[0]
					}
					ok := ts.EvictOldest(ev)
					ref.drop(1)
					if ok != (want != nil) || (ok && !ev.Equal(want)) {
						t.Fatalf("step %d: EvictOldest (%v, %v), want %v", step, ok, ev, want)
					}
				default:
					fillRow(row, series, step, 5+step%11)
					var want *bitset.Set
					if len(ref.rows) == capacity {
						want = ref.rows[0]
					}
					ok := appendRow(ts, row, ev)
					ref.append(row)
					appended++
					if ok != (want != nil) || (ok && !ev.Equal(want)) {
						t.Fatalf("step %d: AppendEvictWords (%v, %v), want %v", step, ok, ev, want)
					}
				}
				if step%13 == 0 || step == steps-1 {
					check(step)
				}
				if step%101 == 0 {
					// Window rows must come back identically, oldest first.
					for w := 0; w < ts.Snapshots(); w += 29 {
						ts.RowInto(w, ev)
						if !ev.Equal(ref.rows[w]) {
							t.Fatalf("step %d: window row %d %v, want %v", step, w, ev, ref.rows[w])
						}
					}
				}
			}
			if ts.SealedSegments() == 0 {
				t.Fatal("no chunks sealed")
			}
			check(steps)
			ts.ReleaseMapped() // pages fault back in; counts must be unchanged
			check(steps + 1)
		})
	}
}

// TestTieredBitAndRows pins the row-addressing paths (Bit, RowInto) across
// the sealed/active boundary.
func TestTieredBitAndRows(t *testing.T) {
	const series, segRows, capacity = 10, 64, 200
	for mode, opts := range storeModes(t, segRows) {
		ts, err := NewTiered(series, capacity, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := &windowRows{capacity: capacity}
		row := bitset.New(series)
		for step := 0; step < 170; step++ {
			fillRow(row, series, step, 3)
			appendRow(ts, row, nil)
			ref.append(row)
		}
		fixed := ref.fixed()
		for w := 0; w < fixed.Snapshots(); w++ {
			for i := 0; i < series; i++ {
				if g, want := ts.Bit(i, w), fixed.Bit(i, w); g != want {
					t.Fatalf("%s: Bit(%d, %d) = %v, want %v", mode, i, w, g, want)
				}
			}
		}
		if ts.Bit(0, -1) || ts.Bit(0, fixed.Snapshots()) {
			t.Fatalf("%s: out-of-window Bit must be false", mode)
		}
		ts.Close()
	}
}

// TestChunkRows pins the RAM chunk size derived from the window and the
// store NewTiered opens with it.
func TestChunkRows(t *testing.T) {
	for _, c := range []struct{ capacity, want int }{
		{0, DefaultSegmentRows}, {1, 64}, {512, 64}, {513, 128}, {2048, 256},
		{1 << 16, 8192}, {1 << 20, DefaultSegmentRows},
	} {
		if got := chunkRows(c.capacity); got != c.want {
			t.Errorf("chunkRows(%d) = %d, want %d", c.capacity, got, c.want)
		}
		ts, err := NewTiered(3, c.capacity, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := ts.SegmentRows(); got != c.want {
			t.Errorf("capacity %d window chunks every %d rows, want %d", c.capacity, got, c.want)
		}
		ts.Close()
	}
}

// TestDropOldestMatchesEvictLoop pins the batched window drop against a
// per-snapshot EvictOldest loop on a shadow store, across drop sizes within
// one word, word-aligned, spanning words and chunks, and overshooting.
func TestDropOldestMatchesEvictLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, capacity := range []int{1, 63, 64, 65, 200, 700} {
		a, _ := NewTiered(5, capacity, Options{})
		b, _ := NewTiered(5, capacity, Options{})
		row := bitset.New(5)
		appendRandom := func(n int) {
			for i := 0; i < n; i++ {
				row.Clear()
				for j := 0; j < 5; j++ {
					if rng.Intn(3) == 0 {
						row.Add(j)
					}
				}
				appendRow(a, row, nil)
				appendRow(b, row, nil)
			}
		}
		appendRandom(capacity + capacity/3 + 1)
		for _, k := range []int{0, 1, 7, 63, 64, 65, capacity / 2, capacity, capacity + 9} {
			appendRandom(rng.Intn(capacity/2 + 1))
			wantDropped := 0
			for i := 0; i < k && b.EvictOldest(nil); i++ {
				wantDropped++
			}
			if got := a.DropOldest(k); got != wantDropped {
				t.Fatalf("cap=%d k=%d: DropOldest returned %d, evict loop dropped %d", capacity, k, got, wantDropped)
			}
			if a.Snapshots() != b.Snapshots() {
				t.Fatalf("cap=%d k=%d: retained %d vs %d", capacity, k, a.Snapshots(), b.Snapshots())
			}
			ra, rb := bitset.New(5), bitset.New(5)
			for w := 0; w < a.Snapshots(); w++ {
				a.RowInto(w, ra)
				b.RowInto(w, rb)
				if !ra.Equal(rb) {
					t.Fatalf("cap=%d k=%d: row %d diverged after batched drop", capacity, k, w)
				}
			}
		}
	}
}

// TestTieredPanics pins the misuse panics and constructor errors.
func TestTieredPanics(t *testing.T) {
	if _, err := NewTiered(3, -1, Options{}); err == nil {
		t.Fatal("NewTiered accepted a negative capacity")
	}
	if _, err := NewTiered(3, 8, Options{SegmentRows: 100}); err == nil {
		t.Fatal("NewTiered accepted a chunk size that is not whole words")
	}
	ts, _ := NewTiered(2, 8, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("AppendEvictWords with an out-of-range series did not panic")
		}
	}()
	ts.AppendEvictWords(bitset.FromIndices(5).Words(), nil)
}

// TestChunksLeaveWindow pins that a window keeps only the chunks that
// overlap it: over many window turnovers at most ⌈window/segRows⌉+1 chunks
// stay sealed in the window (mapped, for a spill store), while the spill
// directory keeps every sealed row readable through OpenReader and the
// lifetime counters keep counting.
func TestChunksLeaveWindow(t *testing.T) {
	const (
		series    = 20
		segRows   = 64
		capacity  = 200
		turnovers = 25
	)
	limit := (capacity+segRows-1)/segRows + 1
	for mode, opts := range storeModes(t, segRows) {
		ts, err := NewTiered(series, capacity, opts)
		if err != nil {
			t.Fatal(err)
		}
		var history []*bitset.Set
		row := bitset.New(series)
		for step := 0; step < turnovers*capacity; step++ {
			fillRow(row, series, step, 4+step%5)
			appendRow(ts, row, nil)
			history = append(history, row.Clone())
			if step%37 == 0 {
				// A view taken and closed mid-stream must not pin chunks.
				ts.SnapshotView(nil).Close()
			}
			if n := len(ts.sealed); n > limit {
				t.Fatalf("%s step %d: %d chunks in the window, want ≤ %d", mode, step, n, limit)
			}
		}
		if want := turnovers * capacity / segRows; ts.SealedSegments() != want {
			t.Fatalf("%s: %d chunks sealed over the lifetime, want %d", mode, ts.SealedSegments(), want)
		}
		ts.Close()
		if opts.Dir == "" {
			continue
		}
		r, err := OpenReader(opts.Dir)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows() != ts.SealedSegments()*segRows {
			t.Fatalf("reader holds %d rows, want %d", r.Rows(), ts.SealedSegments()*segRows)
		}
		got := bitset.New(series)
		for abs := 0; abs < r.Rows(); abs++ {
			r.RowInto(abs, got)
			if !got.Equal(history[abs]) {
				t.Fatalf("sealed row %d reads back %v, want %v", abs, got, history[abs])
			}
		}
		r.Close()
	}
}

// TestTieredRecovery seals segments, closes the store, and reopens the
// directory with OpenReader: every sealed row must read back exactly, and
// stray temp files must be ignored.
func TestTieredRecovery(t *testing.T) {
	const series, segRows, capacity, steps = 33, 64, 128, 400
	dir := t.TempDir()
	ts, err := NewTiered(series, capacity, Options{Dir: dir, SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	var history []*bitset.Set
	row := bitset.New(series)
	for step := 0; step < steps; step++ {
		fillRow(row, series, step, 4+step%7)
		appendRow(ts, row, nil)
		history = append(history, row.Clone())
	}
	sealed := ts.SealedSegments()
	if sealed != steps/segRows {
		t.Fatalf("%d segments sealed, want %d", sealed, steps/segRows)
	}
	if ts.SpilledBytes() <= 0 {
		t.Fatal("no bytes spilled")
	}
	ts.Close()

	// A crash can leave temp files behind; recovery must not trip on them.
	if err := os.WriteFile(filepath.Join(dir, "seg-junk.seg.tmp-1"), []byte("torn"), 0o666); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Segments() != sealed || r.Rows() != sealed*segRows || r.NumSeries() != series {
		t.Fatalf("reader: %d segments × %d rows over %d series, want %d × %d over %d",
			r.Segments(), r.SegmentRows(), r.NumSeries(), sealed, segRows, series)
	}
	got := bitset.New(series)
	for abs := 0; abs < r.Rows(); abs++ {
		r.RowInto(abs, got)
		if !got.Equal(history[abs]) {
			t.Fatalf("sealed row %d reads back %v, want %v", abs, got, history[abs])
		}
	}
	for i := 0; i < series; i++ {
		want := 0
		for abs := 0; abs < r.Rows(); abs++ {
			if history[abs].Contains(i) {
				want++
			}
		}
		if g := r.CongestedCount(i); g != want {
			t.Fatalf("series %d sealed count %d, want %d", i, g, want)
		}
	}
}

// TestTieredCorruptionDetected flips one data byte of a sealed segment and
// requires OpenReader to reject the store with a segstore: CRC error.
func TestTieredCorruptionDetected(t *testing.T) {
	const series, segRows = 8, 64
	dir := t.TempDir()
	ts, err := NewTiered(series, 1000, Options{Dir: dir, SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	row := bitset.New(series)
	for step := 0; step < segRows; step++ {
		fillRow(row, series, step, 3)
		appendRow(ts, row, nil)
	}
	ts.Close()
	path := filepath.Join(dir, "seg-00000000.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x10
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(dir); err == nil {
		t.Fatal("OpenReader accepted a segment with a flipped data byte")
	} else if want := "segstore:"; len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Fatalf("error %q lacks the segstore: prefix", err)
	}
}

// TestTieredResetAndRefusal pins the directory-reuse contract: a second
// NewTiered without Reset refuses, with Reset it starts clean.
func TestTieredResetAndRefusal(t *testing.T) {
	const series, segRows = 4, 64
	dir := t.TempDir()
	ts, err := NewTiered(series, 500, Options{Dir: dir, SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	row := bitset.New(series)
	for step := 0; step < 2*segRows; step++ {
		fillRow(row, series, step, 2)
		appendRow(ts, row, nil)
	}
	ts.Close()
	if _, err := NewTiered(series, 500, Options{Dir: dir, SegmentRows: segRows}); err == nil {
		t.Fatal("NewTiered reused a populated directory without Reset")
	}
	ts2, err := NewTiered(series, 500, Options{Dir: dir, SegmentRows: segRows, Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	if ts2.Appended() != 0 || ts2.SealedSegments() != 0 {
		t.Fatalf("reset store starts with %d appended, %d sealed", ts2.Appended(), ts2.SealedSegments())
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Segments() != 0 {
		t.Fatalf("reset directory still lists %d segments", r.Segments())
	}
}

// TestSegmentRoundTrip pins encode → parse as an exact inverse on a
// hand-built buffer exercising zero columns, dense columns, and interior
// spans.
func TestSegmentRoundTrip(t *testing.T) {
	const series, segRows = 5, 192
	words := segRows / wordBits
	s := &segment{
		base:  segRows * 3,
		rows:  segRows,
		words: words,
		meta:  make([]colMeta, series),
		data:  make([]uint64, series*words),
	}
	for i := range s.meta {
		s.meta[i] = colMeta{lo: 0, hi: words, off: i * words}
	}
	set := func(i, r int) {
		s.data[s.meta[i].off+r/wordBits] |= 1 << uint(r%wordBits)
		s.meta[i].pop++
	}
	// col 0: empty. col 1: one bit mid-segment. col 2: dense.
	// col 3: first row only. col 4: last row only.
	set(1, 100)
	for r := 0; r < segRows; r += 2 {
		set(2, r)
	}
	set(3, 0)
	set(4, segRows-1)

	buf := encodeSegment(s)
	got, err := parseSegment(buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got.base != s.base || got.rows != s.rows || got.words != s.words {
		t.Fatalf("header (%d, %d, %d), want (%d, %d, %d)", got.base, got.rows, got.words, s.base, s.rows, s.words)
	}
	if m := got.meta[0]; m.lo != 0 || m.hi != 0 || m.pop != 0 {
		t.Fatalf("empty column kept span [%d, %d) pop %d", m.lo, m.hi, m.pop)
	}
	if m := got.meta[1]; m.hi-m.lo != 1 {
		t.Fatalf("single-bit column kept %d words, want 1", m.hi-m.lo)
	}
	for i := 0; i < series; i++ {
		for r := 0; r < segRows; r++ {
			if g, w := got.bit(i, r), s.bit(i, r); g != w {
				t.Fatalf("col %d row %d: %v, want %v", i, r, g, w)
			}
		}
		if g, w := got.seriesCount(i, 0, segRows), s.meta[i].pop; g != w {
			t.Fatalf("col %d count %d, want %d", i, g, w)
		}
	}
	// Masked subrange counts agree with a naive bit loop.
	for _, rg := range [][2]int{{0, 1}, {63, 65}, {100, 101}, {5, 187}, {64, 128}} {
		for i := 0; i < series; i++ {
			want := 0
			for r := rg[0]; r < rg[1]; r++ {
				if s.bit(i, r) {
					want++
				}
			}
			if g := got.seriesCount(i, rg[0], rg[1]); g != want {
				t.Fatalf("col %d range %v count %d, want %d", i, rg, g, want)
			}
		}
		for a := 0; a < series; a++ {
			for b := 0; b < series; b++ {
				want := 0
				for r := rg[0]; r < rg[1]; r++ {
					if s.bit(a, r) || s.bit(b, r) {
						want++
					}
				}
				if g := got.pairCount(a, b, rg[0], rg[1]); g != want {
					t.Fatalf("pair (%d,%d) range %v count %d, want %d", a, b, rg, g, want)
				}
			}
		}
	}
}

// windowRowsOf reads a window's retained rows back oldest-first.
func windowRowsOf(ts *TieredStore) []*bitset.Set {
	rows := make([]*bitset.Set, ts.Snapshots())
	for w := range rows {
		rows[w] = bitset.New(ts.NumSeries())
		ts.RowInto(w, rows[w])
	}
	return rows
}

// TestRingMatchesFreshStore is the sliding window's core guarantee: after
// any append sequence, the window answers every query exactly like a
// record built from only the retained rows — across random shapes whose
// capacity straddles word and chunk boundaries, including windows smaller
// than a chunk and an unbounded store. (The Ring names come from the
// ring-buffer window the chunked store replaced.)
func TestRingMatchesFreshStore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		series := 1 + rng.Intn(70)
		capacity := rng.Intn(700) // 0: unbounded
		n := rng.Intn(1500)
		rows := randomRows(rng, series, n, 4)

		ts, err := NewTiered(series, capacity, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			ts.AppendEvictWords(r.Words(), nil)
		}
		lo := 0
		if capacity > 0 && n > capacity {
			lo = n - capacity
		}
		fresh := fromRows(series, rows[lo:], recordChunkRows)

		if ts.Snapshots() != fresh.Snapshots() || ts.Appended() != n {
			t.Fatalf("trial %d: %d/%d snapshots, want %d/%d",
				trial, ts.Snapshots(), ts.Appended(), fresh.Snapshots(), n)
		}
		for i := 0; i < series; i++ {
			if g, w := ts.CongestedCount(i), fresh.CongestedCount(i); g != w {
				t.Fatalf("trial %d: series %d count %d, want %d", trial, i, g, w)
			}
		}
		for q := 0; q < 10; q++ {
			var idx []int
			for i := 0; i < series; i++ {
				if rng.Intn(4) == 0 {
					idx = append(idx, i)
				}
			}
			if g, w := ts.CountAllGood(idx), fresh.CountAllGood(idx); g != w {
				t.Fatalf("trial %d: CountAllGood(%v) = %d, want %d", trial, idx, g, w)
			}
		}
		// Window-relative rows come back oldest-first in arrival order.
		for w, got := range windowRowsOf(ts) {
			if want := rows[lo+w]; !got.Equal(want) {
				t.Fatalf("trial %d: window row %d = %v, want %v", trial, w, got, want)
			}
		}
		ts.Close()
	}
}

// TestRingAppendEvict pins the eviction protocol: the evicted row is
// exactly the snapshot that fell out of the window, across chunk seals.
func TestRingAppendEvict(t *testing.T) {
	const series, capacity, n = 10, 100, 300 // 64-row chunks; head mid-chunk
	rng := rand.New(rand.NewSource(4))
	rows := randomRows(rng, series, n, 4)
	ts, err := NewTiered(series, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	evicted := bitset.New(series)
	evicted.Add(3) // must be cleared by the first, non-evicting append
	for i, r := range rows {
		did := ts.AppendEvictWords(r.Words(), evicted)
		if want := i >= capacity; did != want {
			t.Fatalf("append %d: eviction %v, want %v", i, did, want)
		}
		if did && !evicted.Equal(rows[i-capacity]) {
			t.Fatalf("append %d: evicted %v, want %v", i, evicted, rows[i-capacity])
		}
		if !did && !evicted.IsEmpty() {
			t.Fatalf("append %d: evicted set %v not cleared on no-evict", i, evicted)
		}
	}
}

// TestRingRowsAndEqual pins the row views of a window whose head sits
// mid-chunk: the rows read back are exactly the retained rows, oldest
// first, so a record built from them equals a record over the same rows
// and no record over other rows.
func TestRingRowsAndEqual(t *testing.T) {
	const series, capacity, n = 6, 100, 230
	rng := rand.New(rand.NewSource(6))
	rows := randomRows(rng, series, n, 4)
	ts, err := NewTiered(series, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for _, r := range rows {
		ts.AppendEvictWords(r.Words(), nil)
	}
	got := windowRowsOf(ts)
	if len(got) != capacity {
		t.Fatalf("window holds %d rows, want %d retained", len(got), capacity)
	}
	for w, r := range got {
		if !r.Equal(rows[n-capacity+w]) {
			t.Fatalf("row %d = %v, want %v", w, r, rows[n-capacity+w])
		}
	}
	window := fromRows(series, got, 64)
	fresh := fromRows(series, rows[n-capacity:], recordChunkRows)
	if !equalColumns(window, fresh) || !equalColumns(fresh, window) || !equalColumns(&ts.Columns, fresh) {
		t.Fatal("window rows do not equal a record over the same rows")
	}
	if other := fromRows(series, rows[:capacity], recordChunkRows); equalColumns(window, other) {
		t.Fatal("window rows equal a record over different rows")
	}
}

// TestFirstTurnoverAllocs is the allocation gate of a RAM window's first
// chunk turnovers: once the window has filled, and so allocated every chunk
// it overlaps, appending two more windows of rows — evicting, sealing,
// releasing chunks behind the window into the free list and taking them
// back — allocates nothing. testing.AllocsPerRun would warm up on the first
// turnover, so the count is taken around it directly. The window is a whole
// number of chunks: a window whose head sits mid-chunk overlaps one chunk
// more, which it allocates at its first seal after filling.
func TestFirstTurnoverAllocs(t *testing.T) {
	const (
		series   = 150
		capacity = 1024 // eight 128-row chunks
	)
	ts, err := NewTiered(series, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	rows := make([]*bitset.Set, 64)
	for k := range rows {
		rows[k] = bitset.New(series)
		fillRow(rows[k], series, k, 3+k%5)
	}
	for step := 0; step < capacity; step++ {
		appendRow(ts, rows[step%len(rows)], nil)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for step := 0; step < 2*capacity; step++ {
		appendRow(ts, rows[step%len(rows)], nil)
	}
	runtime.ReadMemStats(&after)
	if ts.SealedSegments() < 3*capacity/ts.segRows {
		t.Fatalf("%d chunks sealed, want at least %d", ts.SealedSegments(), 3*capacity/ts.segRows)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d allocations over the first two turnovers of a full window, want 0", n)
	}
}
