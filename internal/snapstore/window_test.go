package snapstore_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/segstore"
	"repro/internal/snapstore"
)

// The sliding window lives in internal/segstore; these tests pin it against
// this package's fixed store, the reference every window answer must match.
// Their Ring names are kept from the ring-buffer window they were first
// written for, which the chunked store replaced.

// newWindow opens a RAM sliding window over series columns.
func newWindow(t *testing.T, series, capacity int) *segstore.TieredStore {
	t.Helper()
	ts, err := segstore.NewTiered(series, capacity, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ts.Close)
	return ts
}

// randomWindowRows draws n random rows over the given number of series.
func randomWindowRows(rng *rand.Rand, series, n int) []*bitset.Set {
	rows := make([]*bitset.Set, n)
	for t := range rows {
		s := bitset.New(series)
		for i := 0; i < series; i++ {
			if rng.Intn(4) == 0 {
				s.Add(i)
			}
		}
		rows[t] = s
	}
	return rows
}

// windowRows reads a window's retained rows back oldest-first.
func windowRows(ts *segstore.TieredStore) []*bitset.Set {
	rows := make([]*bitset.Set, ts.Snapshots())
	for w := range rows {
		rows[w] = bitset.New(ts.NumSeries())
		ts.RowInto(w, rows[w])
	}
	return rows
}

// TestRingMatchesFreshStore is the sliding window's core guarantee: after
// any append sequence, the window answers every query exactly like a fresh
// store built from only the retained rows — across random shapes whose
// capacity straddles word and chunk boundaries, including windows smaller
// than a chunk and an unbounded store.
func TestRingMatchesFreshStore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		series := 1 + rng.Intn(70)
		capacity := rng.Intn(700) // 0: unbounded
		n := rng.Intn(1500)
		rows := randomWindowRows(rng, series, n)

		ts := newWindow(t, series, capacity)
		for _, r := range rows {
			ts.AppendEvictWords(r.Words(), nil)
		}
		lo := 0
		if capacity > 0 && n > capacity {
			lo = n - capacity
		}
		fresh := snapstore.FromRows(series, rows[lo:])

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
			if g, w := ts.CountAllGood(idx), fresh.CountAllGood(idx, nil); g != w {
				t.Fatalf("trial %d: CountAllGood(%v) = %d, want %d", trial, idx, g, w)
			}
		}
		// Window-relative rows come back oldest-first in arrival order.
		for w, got := range windowRows(ts) {
			if want := rows[lo+w]; !got.Equal(want) {
				t.Fatalf("trial %d: window row %d = %v, want %v", trial, w, got, want)
			}
		}
	}
}

// TestRingAppendEvict pins the eviction protocol: the evicted row is exactly
// the snapshot that fell out of the window, across chunk seals.
func TestRingAppendEvict(t *testing.T) {
	const series, capacity, n = 10, 100, 300 // 64-row chunks; head mid-chunk
	rng := rand.New(rand.NewSource(4))
	rows := randomWindowRows(rng, series, n)
	ts := newWindow(t, series, capacity)
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
// first, so a fixed store built from them Equals a fresh store over the
// same rows and no store over other rows.
func TestRingRowsAndEqual(t *testing.T) {
	const series, capacity, n = 6, 100, 230
	rng := rand.New(rand.NewSource(6))
	rows := randomWindowRows(rng, series, n)
	ts := newWindow(t, series, capacity)
	for _, r := range rows {
		ts.AppendEvictWords(r.Words(), nil)
	}
	got := windowRows(ts)
	if len(got) != capacity {
		t.Fatalf("window holds %d rows, want %d retained", len(got), capacity)
	}
	for w, r := range got {
		if !r.Equal(rows[n-capacity+w]) {
			t.Fatalf("row %d = %v, want %v", w, r, rows[n-capacity+w])
		}
	}
	window := snapstore.FromRows(series, got)
	fresh := snapstore.FromRows(series, rows[n-capacity:])
	if !window.Equal(fresh) || !fresh.Equal(window) {
		t.Fatal("window rows do not Equal a fresh store over the same rows")
	}
	if other := snapstore.FromRows(series, rows[:capacity]); window.Equal(other) {
		t.Fatal("window rows Equal a store over different rows")
	}
}
