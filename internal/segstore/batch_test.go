package segstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// randomBatch draws rows packed word-rows over series columns. Each row
// keeps to one density — all good, sparse or half congested — so a 64-row
// block mixes all-zero column groups with busy ones.
func randomBatch(rng *rand.Rand, series, rows int) []uint64 {
	wpr := (series + wordBits - 1) / wordBits
	words := make([]uint64, rows*wpr)
	for r := 0; r < rows; r++ {
		density := []int{0, 16, 2}[rng.Intn(3)]
		if density == 0 {
			continue
		}
		for i := 0; i < series; i++ {
			if rng.Intn(density) == 0 {
				words[r*wpr+i/wordBits] |= 1 << uint(i%wordBits)
			}
		}
	}
	return words
}

// appendRows feeds a batch to a store row by row through the bit scatter
// (scatterRow): the reference the staged append must match.
func appendRows(ts *TieredStore, words []uint64, wpr, rows int) {
	for r := 0; r < rows; r++ {
		scatterRow(ts, words[r*wpr:(r+1)*wpr])
	}
}

// sameStore fails unless two stores hold the same window, lifetime count,
// seals, column counts and pair counts, and, with rows set, the same
// retained rows.
func sameStore(t *testing.T, label string, got, want *TieredStore, pairs []Pair, rows bool) {
	t.Helper()
	if got.Snapshots() != want.Snapshots() || got.n != want.n || got.SealedSegments() != want.SealedSegments() {
		t.Fatalf("%s: window %d of %d rows, %d seals; bit scatter %d of %d, %d seals", label,
			got.Snapshots(), got.n, got.SealedSegments(), want.Snapshots(), want.n, want.SealedSegments())
	}
	for i := 0; i < got.NumSeries(); i++ {
		if g, w := got.CongestedCount(i), want.CongestedCount(i); g != w {
			t.Fatalf("%s: series %d congested %d times, bit scatter %d", label, i, g, w)
		}
	}
	gp, wp := make([]int, len(pairs)), make([]int, len(pairs))
	got.CountPairsGood(pairs, gp)
	want.CountPairsGood(pairs, wp)
	for k := range pairs {
		if gp[k] != wp[k] {
			t.Fatalf("%s: pair %v good in %d rows, bit scatter %d", label, pairs[k], gp[k], wp[k])
		}
	}
	if rows {
		sameRows(t, label, &got.Columns, &want.Columns)
	}
}

// feedBoth appends random batches of 0–300 rows, at whatever offsets the
// earlier batches leave, to a store through AppendBatchWords and to a
// reference store row by row, until at least total rows have gone in,
// comparing the two after every batch.
func feedBoth(t *testing.T, label string, rng *rand.Rand, got, want *TieredStore, total int) {
	t.Helper()
	series := got.NumSeries()
	wpr := (series + wordBits - 1) / wordBits
	pairs := testPairs(series)
	for k := 0; got.n < total; k++ {
		rows := rng.Intn(301)
		words := randomBatch(rng, series, rows)
		got.AppendBatchWords(words, wpr, rows)
		appendRows(want, words, wpr, rows)
		sameStore(t, fmt.Sprintf("%s batch %d (%d rows)", label, k, rows), got, want, pairs, k%8 == 0)
	}
	sameStore(t, label+" end", got, want, pairs, true)
}

// TestAppendBatchMatchesPerRow pins the staged batch append to the
// per-row bit scatter on RAM stores: the same rows, counts, pair counts and
// seals after every batch, for series counts on both sides of a word,
// chunk sizes of one, two and 128 words, unbounded windows and bounded
// ones that batches overrun mid-chunk or outgrow entirely.
func TestAppendBatchMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, series := range []int{1, 63, 64, 65, 150, 200} {
		for _, segRows := range []int{64, 128, 8192} {
			for _, capacity := range []int{0, 100, 1000, 3 * segRows} {
				label := fmt.Sprintf("series=%d segRows=%d capacity=%d", series, segRows, capacity)
				got, err := NewTiered(series, capacity, Options{SegmentRows: segRows})
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewTiered(series, capacity, Options{SegmentRows: segRows})
				if err != nil {
					t.Fatal(err)
				}
				feedBoth(t, label, rng, got, want, max(3000, segRows+2000))
				got.Close()
				want.Close()
			}
		}
	}
}

// TestAppendBatchSpillMatchesPerRow is the spill arm: the batch append
// must seal the same segments as the per-row bit scatter, so besides equal
// windows the two spill directories must hold byte-identical segment
// files and MANIFEST.
func TestAppendBatchSpillMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, series := range []int{1, 65, 150} {
		for _, segRows := range []int{64, 128} {
			for _, capacity := range []int{0, 100, 1000} {
				label := fmt.Sprintf("series=%d segRows=%d capacity=%d", series, segRows, capacity)
				gotDir, wantDir := t.TempDir(), t.TempDir()
				got, err := NewTiered(series, capacity, Options{Dir: gotDir, SegmentRows: segRows})
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewTiered(series, capacity, Options{Dir: wantDir, SegmentRows: segRows})
				if err != nil {
					t.Fatal(err)
				}
				feedBoth(t, label, rng, got, want, 2000)
				got.Close()
				want.Close()
				sameDirs(t, label, gotDir, wantDir)
			}
		}
	}
}

// sameDirs fails unless two spill directories hold the same files with the
// same bytes.
func sameDirs(t *testing.T, label, gotDir, wantDir string) {
	t.Helper()
	names := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	gn, wn := names(gotDir), names(wantDir)
	if strings.Join(gn, ",") != strings.Join(wn, ",") {
		t.Fatalf("%s: spill files %v, bit scatter %v", label, gn, wn)
	}
	for _, name := range gn {
		g, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(wantDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: %s differs from the bit scatter's", label, name)
		}
	}
}

// TestAppendBatchOutOfRangePanics pins the batch append's out-of-range
// panic to the per-row bit scatter's: a padding bit in the middle of a
// whole 64-row word panics at that row with the same message, after the
// rows before it have been appended and nothing after it.
func TestAppendBatchOutOfRangePanics(t *testing.T) {
	const (
		series = 65
		wpr    = 2
		rows   = 200
		bad    = 64 + 37 // the second block's middle row
	)
	rng := rand.New(rand.NewSource(37))
	words := randomBatch(rng, series, rows)
	words[bad*wpr+1] |= 1 << 6 // series 70
	stores := make([]*TieredStore, 2)
	msgs := make([]any, 2)
	for k := range stores {
		ts, err := NewTiered(series, 0, Options{SegmentRows: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		stores[k] = ts
		func() {
			defer func() { msgs[k] = recover() }()
			if k == 0 {
				ts.AppendBatchWords(words, wpr, rows)
			} else {
				appendRows(ts, words, wpr, rows)
			}
		}()
	}
	const want = "segstore: series 70 out of range (65 series)"
	if msgs[0] != want || msgs[1] != want {
		t.Fatalf("batch append panicked with %v, bit scatter with %v; want %q", msgs[0], msgs[1], want)
	}
	if stores[0].Snapshots() != bad {
		t.Fatalf("batch append kept %d rows before panicking, want the %d before the bad row", stores[0].Snapshots(), bad)
	}
	sameStore(t, "after the panic", stores[0], stores[1], testPairs(series), true)
	mustPanic(t, "AppendBatchWords with a short stride", func() {
		stores[0].AppendBatchWords(words, 1, 1)
	})
}

// TestReadAfterEveryAppend reads a window after every one-row append and
// after every batch, against the bit scatter over the same rows. Each arm
// makes one kind of read only — CongestedCount, CountAllGood,
// CountPairsGood, Bit, RowInto or a SnapshotView's counts and rows — so
// each must flush the staged rows itself: a read that skips the flush
// misses the newest rows. RAM and spill windows, with capacities below
// and above 64 rows, take partial words between reads.
func TestReadAfterEveryAppend(t *testing.T) {
	const series = 70
	wpr := (series + wordBits - 1) / wordBits
	pairs := testPairs(series)
	sets := [][]int{nil, {0, series / 2, series - 1}, {3, 64, 69}}
	var recycle *TieredView
	reads := map[string]func(t *testing.T, got, want *TieredStore){
		"CongestedCount": func(t *testing.T, got, want *TieredStore) {
			for i := 0; i < series; i++ {
				if g, w := got.CongestedCount(i), want.CongestedCount(i); g != w {
					t.Fatalf("series %d congested %d times, bit scatter %d", i, g, w)
				}
			}
		},
		"CountAllGood": func(t *testing.T, got, want *TieredStore) {
			for _, set := range sets {
				if g, w := got.CountAllGood(set), want.CountAllGood(set); g != w {
					t.Fatalf("all-good %v: %d, bit scatter %d", set, g, w)
				}
			}
		},
		"CountPairsGood": func(t *testing.T, got, want *TieredStore) {
			gp, wp := make([]int, len(pairs)), make([]int, len(pairs))
			got.CountPairsGood(pairs, gp)
			want.CountPairsGood(pairs, wp)
			for k := range pairs {
				if gp[k] != wp[k] {
					t.Fatalf("pair %v good in %d rows, bit scatter %d", pairs[k], gp[k], wp[k])
				}
			}
		},
		"Bit": func(t *testing.T, got, want *TieredStore) {
			// The staged rows are among the newest 64.
			for u := max(want.Snapshots()-wordBits, 0); u < want.Snapshots(); u++ {
				for i := 0; i < series; i++ {
					if got.Bit(i, u) != want.Bit(i, u) {
						t.Fatalf("Bit(%d, %d) = %v, bit scatter %v", i, u, got.Bit(i, u), want.Bit(i, u))
					}
				}
			}
		},
		"RowInto": func(t *testing.T, got, want *TieredStore) {
			sameRows(t, "store", &got.Columns, &want.Columns)
		},
		"SnapshotView": func(t *testing.T, got, want *TieredStore) {
			v := got.SnapshotView(recycle)
			recycle = v
			for i := 0; i < series; i++ {
				if g, w := v.CongestedCount(i), want.CongestedCount(i); g != w {
					t.Fatalf("view: series %d congested %d times, bit scatter %d", i, g, w)
				}
			}
			sameRows(t, "view", &v.Columns, &want.Columns)
		},
	}
	rng := rand.New(rand.NewSource(38))
	for name, read := range reads {
		for _, spill := range []bool{false, true} {
			for _, capacity := range []int{1, 50, 100, 300} {
				for _, batches := range []bool{false, true} {
					label := fmt.Sprintf("%s spill=%v capacity=%d batches=%v", name, spill, capacity, batches)
					t.Run(label, func(t *testing.T) {
						open := func() *TieredStore {
							opts := Options{SegmentRows: 64}
							if spill {
								opts.Dir = t.TempDir()
							}
							ts, err := NewTiered(series, capacity, opts)
							if err != nil {
								t.Fatal(err)
							}
							t.Cleanup(ts.Close)
							return ts
						}
						got, want := open(), open()
						recycle = nil
						for got.n < 400 {
							rows := 1
							if batches {
								rows = rng.Intn(151)
							}
							words := randomBatch(rng, series, rows)
							got.AppendBatchWords(words, wpr, rows)
							appendRows(want, words, wpr, rows)
							if got.Snapshots() != want.Snapshots() || got.n != want.n {
								t.Fatalf("window %d of %d rows, bit scatter %d of %d", got.Snapshots(), got.n, want.Snapshots(), want.n)
							}
							read(t, got, want)
						}
						if recycle != nil {
							recycle.Close()
						}
					})
				}
			}
		}
	}
}

// sameRows fails unless two column sets hold the same window rows.
func sameRows(t *testing.T, label string, got, want *Columns) {
	t.Helper()
	g, w := bitset.New(got.NumSeries()), bitset.New(want.NumSeries())
	for u := 0; u < want.Snapshots(); u++ {
		got.RowInto(u, g)
		want.RowInto(u, w)
		if !g.Equal(w) {
			t.Fatalf("%s: window row %d is %v, bit scatter %v", label, u, g, w)
		}
	}
}
