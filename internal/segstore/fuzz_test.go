package segstore

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// validSegmentImage builds a small well-formed segment file image — the
// fuzz seed every mutation starts from, and the positive control the fuzz
// body re-checks on every run.
func validSegmentImage() []byte {
	const series, segRows = 5, 128
	words := segRows / wordBits
	s := &segment{
		rows:  segRows,
		words: words,
		meta:  make([]colMeta, series),
		data:  make([]uint64, series*words),
	}
	for i := range s.meta {
		s.meta[i] = colMeta{lo: 0, hi: words, off: i * words}
	}
	for i := 1; i < series; i++ {
		for r := i; r < segRows; r += 3 * i {
			s.data[s.meta[i].off+r/wordBits] |= 1 << uint(r%wordBits)
			s.meta[i].pop++
		}
	}
	return encodeSegment(s)
}

// FuzzSegmentDecode throws arbitrary bytes at the two decoding surfaces of
// the on-disk format — segment files and manifests. The decoders must
// never panic (truncation, bit-flips, hostile headers, absurd sizes) and
// every rejection must carry the "segstore:" prefix. Accepted segment
// images must additionally be internally consistent enough to query: the
// count kernels are run over every column and compared against a per-bit
// recount, so an image that parses but lies about its directory fails
// here rather than corrupting an estimate later.
func FuzzSegmentDecode(f *testing.F) {
	valid := validSegmentImage()
	f.Add(valid)
	// Truncations at structural boundaries.
	f.Add(valid[:headerSize-1])
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-3])
	// A bit-flip in the header and one in the data.
	flip := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x40
		return b
	}
	f.Add(flip(9))
	f.Add(flip(len(valid) - 1))
	f.Add([]byte(segMagic))
	// Manifest-shaped seeds (the same fuzz body feeds both decoders).
	f.Add([]byte(`{"version":1,"series":4,"segment_rows":128,"segments":[]}`))
	f.Add([]byte(`{"version":1,"series":4,"segment_rows":128,"segments":[{"file":"seg-00000000.seg","base":0,"crc":7}]}`))
	f.Add([]byte(`{"version":1,"series":4,"segment_rows":128,"segments":[{"file":"../evil","base":0,"crc":0}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := parseSegment(data, "fuzz")
		if err != nil {
			if !strings.HasPrefix(err.Error(), "segstore:") {
				t.Fatalf("parseSegment error %q lacks the segstore: prefix", err)
			}
		} else {
			checkSegmentConsistent(t, seg)
		}
		man, merr := parseManifest(data)
		if merr != nil {
			if !strings.HasPrefix(merr.Error(), "segstore:") {
				t.Fatalf("parseManifest error %q lacks the segstore: prefix", merr)
			}
		} else {
			// Accepted manifests must round-trip through the encoder.
			if _, err := parseManifest(encodeManifest(man)); err != nil {
				t.Fatalf("accepted manifest does not re-parse: %v", err)
			}
		}
	})
}

// checkSegmentConsistent cross-checks an accepted segment image: directory
// popcounts against per-bit recounts, and the pair/any kernels against the
// naive definition on a few ranges.
func checkSegmentConsistent(t *testing.T, s *segment) {
	t.Helper()
	series := len(s.meta)
	for i := 0; i < series; i++ {
		want := 0
		for r := 0; r < s.rows; r++ {
			if s.bit(i, r) {
				want++
			}
		}
		if g := s.seriesCount(i, 0, s.rows); g != want || s.meta[i].pop != want {
			t.Fatalf("column %d: kernel %d, directory %d, recount %d", i, g, s.meta[i].pop, want)
		}
	}
	if series == 0 || s.rows > 4096 {
		return
	}
	ranges := [][2]int{{0, s.rows}, {1, s.rows - 1}, {0, 1}}
	dst := bitset.New(series)
	for _, rg := range ranges {
		if rg[0] >= rg[1] {
			continue
		}
		for a := 0; a < series; a++ {
			b := (a + 1) % series
			want := 0
			for r := rg[0]; r < rg[1]; r++ {
				if s.bit(a, r) || s.bit(b, r) {
					want++
				}
			}
			if g := s.pairCount(a, b, rg[0], rg[1]); g != want {
				t.Fatalf("pair (%d,%d) range %v: kernel %d, recount %d", a, b, rg, g, want)
			}
		}
	}
	s.rowInto(0, dst.ResetWords(series))
	for i := 0; i < series; i++ {
		if dst.Contains(i) != s.bit(i, 0) {
			t.Fatalf("rowInto(0) disagrees with bit() on column %d", i)
		}
	}
}

// FuzzWindow fuzzes the RAM window's ingestion, differentially: the input
// bytes encode an op sequence (appends with arbitrary bit patterns and
// explicit evictions) applied to a window store while a plain shadow slice
// tracks the retained rows. After every op the window's counts and rows
// must match a recount over the shadow. Small 64-row chunks make seals and
// chunks leaving the window frequent. No input may panic.
func FuzzWindow(f *testing.F) {
	f.Add([]byte{3, 8, 0x01, 0x02, 0xff, 0x00})
	f.Add([]byte{1, 1, 0x80, 0x80, 0x80})
	f.Add([]byte{7, 64, 0xaa, 0x55, 0xee})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{66, 6, 0x40, 13, 127}, 12))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		series := 1 + int(data[0])%70 // straddles a word boundary
		capacity := 1 + int(data[1])%90
		ts, err := NewTiered(series, capacity, Options{SegmentRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		var shadow []*bitset.Set // retained rows, oldest first
		evicted := bitset.New(series)

		for _, op := range data[2:] {
			if op == 0xff {
				did := ts.EvictOldest(evicted)
				if did != (len(shadow) > 0) {
					t.Fatalf("EvictOldest reported %v with %d retained rows", did, len(shadow))
				}
				if did {
					if !evicted.Equal(shadow[0]) {
						t.Fatalf("evicted %v, want oldest %v", evicted, shadow[0])
					}
					shadow = shadow[1:]
				}
				continue
			}
			row := bitset.New(series)
			for i := 0; i < series; i++ {
				if (int(op)+i*7)%5 == 0 {
					row.Add(i)
				}
			}
			did := ts.AppendEvictWords(row.Words(), evicted)
			if did != (len(shadow) == capacity) {
				t.Fatalf("AppendEvictWords reported %v with %d/%d retained", did, len(shadow), capacity)
			}
			if did {
				if !evicted.Equal(shadow[0]) {
					t.Fatalf("evicted %v, want oldest %v", evicted, shadow[0])
				}
				shadow = shadow[1:]
			}
			shadow = append(shadow, row)

			if ts.Snapshots() != len(shadow) {
				t.Fatalf("retained %d, shadow %d", ts.Snapshots(), len(shadow))
			}
			for i := 0; i < series; i++ {
				want := 0
				for _, r := range shadow {
					if r.Contains(i) {
						want++
					}
				}
				if got := ts.CongestedCount(i); got != want {
					t.Fatalf("series %d: count %d, shadow recount %d", i, got, want)
				}
			}
			set := []int{0, series / 2, series - 1}
			good := 0
			for _, r := range shadow {
				if !r.Contains(set[0]) && !r.Contains(set[1]) && !r.Contains(set[2]) {
					good++
				}
			}
			if g := ts.CountAllGood(set); g != good {
				t.Fatalf("all-good %v: %d, shadow recount %d", set, g, good)
			}
			got := bitset.New(series)
			for w, r := range shadow {
				ts.RowInto(w, got)
				if !got.Equal(r) {
					t.Fatalf("row %d: %v, want %v", w, got, r)
				}
			}
		}
	})
}

// FuzzAppend fuzzes the record build, differentially: the input bytes
// encode a sequence of rows with arbitrary bit patterns, appended to a
// record in 64-row chunks (so longer inputs span several, the last one
// short) while a plain shadow slice keeps the rows. The finished record's
// counts and rows must match a recount over the shadow, and it must equal
// a record built from the shadow bit by bit (fromRows). The same rows,
// split into batches whose sizes the input bytes pick, also go through a
// 64-row-chunk window store's AppendBatchWords, which must hold the same
// rows and counts and seal every whole chunk. No input may panic;
// byte-derived series indices are kept in range (out-of-range appends are
// a documented panic).
func FuzzAppend(f *testing.F) {
	f.Add([]byte{3, 8, 0x01, 0x02, 0xff, 0x00})
	f.Add([]byte{1, 1, 0x80, 0x80, 0x80})
	f.Add([]byte{7, 64, 0xaa, 0x55, 0xee})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{66, 6, 0x40, 13, 127}, 12))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		series := 1 + int(data[0])%70 // straddles a word boundary
		var shadow []*bitset.Set
		for _, op := range data[1:] {
			// Each op byte yields 1–7 rows: bit i of its k-th row is set
			// when op+7i+3k is a multiple of 5.
			for k := 0; k <= int(op)%7; k++ {
				row := bitset.New(series)
				for i := 0; i < series; i++ {
					if (int(op)+i*7+k*3)%5 == 0 {
						row.Add(i)
					}
				}
				shadow = append(shadow, row)
			}
		}
		b := newBuilder(series, len(shadow), 64)
		for _, r := range shadow {
			b.Append(r)
		}
		rec := b.Finish()
		ref := rowOracle{rows: shadow}

		if rec.Snapshots() != len(shadow) {
			t.Fatalf("record holds %d snapshots, shadow %d", rec.Snapshots(), len(shadow))
		}
		for i := 0; i < series; i++ {
			if got, want := rec.CongestedCount(i), ref.CongestedCount(i); got != want {
				t.Fatalf("series %d: count %d, shadow recount %d", i, got, want)
			}
		}
		set := []int{0, series / 2, series - 1}
		if got, want := rec.CountAllGood(set), ref.CountAllGood(set); got != want {
			t.Fatalf("all-good %v: %d, shadow recount %d", set, got, want)
		}
		pairs := []Pair{{0, series - 1}, {series / 2, series / 3}, {0, 0}}
		out := make([]int, len(pairs))
		rec.CountPairsGood(pairs, out)
		for k, p := range pairs {
			if want := ref.CountAllGood([]int{p.A, p.B}); out[k] != want {
				t.Fatalf("pair %v: %d, shadow recount %d", p, out[k], want)
			}
		}
		got := bitset.New(series)
		for w, r := range shadow {
			rec.RowInto(w, got)
			if !got.Equal(r) {
				t.Fatalf("row %d: %v, want %v", w, got, r)
			}
		}
		if !equalColumns(rec, fromRows(series, shadow, recordChunkRows)) {
			t.Fatal("appended record does not equal a bit-by-bit record over the same rows")
		}

		ts, err := NewTiered(series, 0, Options{SegmentRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		wpr := (series + wordBits - 1) / wordBits
		words := make([]uint64, len(shadow)*wpr)
		for r, row := range shadow {
			copy(words[r*wpr:], row.Words())
		}
		for at, k := 0, 0; at < len(shadow); k++ {
			n := int(data[k%len(data)]) % 150
			if n == 0 && k >= len(data) {
				n = len(shadow) // the bytes may pick only empty batches
			}
			n = min(n, len(shadow)-at)
			ts.AppendBatchWords(words[at*wpr:(at+n)*wpr], wpr, n)
			at += n
		}
		if !equalColumns(&ts.Columns, rec) {
			t.Fatal("batch-appended window does not equal the record over the same rows")
		}
		for i := 0; i < series; i++ {
			if got, want := ts.CongestedCount(i), rec.CongestedCount(i); got != want {
				t.Fatalf("series %d: batch-appended count %d, record %d", i, got, want)
			}
		}
		if got, want := ts.SealedSegments(), len(shadow)/64; got != want {
			t.Fatalf("batch-appended window sealed %d chunks, want %d", got, want)
		}
	})
}
