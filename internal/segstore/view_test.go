package segstore

import (
	"sync"
	"testing"

	"repro/internal/bitset"
)

// TestViewMatchesStore freezes views at checkpoints of an append/evict
// replay and requires every count kernel on the view to keep answering
// exactly what the store answered at freeze time — while the store moves
// on, seals new segments, and evicts past the view. Views are recycled the
// way a steady-state publisher recycles them. Over RAM chunks the store
// recycles chunks that left the window into new write buffers meanwhile.
func TestViewMatchesStore(t *testing.T) {
	for mode, opts := range storeModes(t, 128) {
		t.Run(mode, func(t *testing.T) { viewMatchesStore(t, opts) })
	}
}

func viewMatchesStore(t *testing.T, opts Options) {
	const (
		series   = 70
		capacity = 300
		steps    = 900
		stride   = 61
	)
	ts, err := NewTiered(series, capacity, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	pairs := testPairs(series)
	row, ev := bitset.New(series), bitset.New(series)
	all := make([]int, series)
	for i := range all {
		all[i] = i
	}

	type frozen struct {
		view      *TieredView
		congested []int
		allGood   int
		pairsGood []int
		rows      []*bitset.Set
	}
	var pendingMu sync.Mutex
	var pending *frozen // checked (and recycled) one stride later

	checkFrozen := func(f *frozen) {
		t.Helper()
		v := f.view
		if v.Snapshots() != len(f.rows) {
			t.Fatalf("view retains %d snapshots, froze %d", v.Snapshots(), len(f.rows))
		}
		for i := 0; i < series; i++ {
			if g, w := v.CongestedCount(i), f.congested[i]; g != w {
				t.Fatalf("series %d: view congested count %d, frozen %d", i, g, w)
			}
		}
		if g := v.CountAllGood(all); g != f.allGood {
			t.Fatalf("view all-good %d, frozen %d", g, f.allGood)
		}
		out := make([]int, len(pairs))
		v.CountPairsGood(pairs, out)
		for i := range pairs {
			if out[i] != f.pairsGood[i] {
				t.Fatalf("pair %v: view good count %d, frozen %d", pairs[i], out[i], f.pairsGood[i])
			}
		}
		got := bitset.New(series)
		for u, want := range f.rows {
			v.RowInto(u, got)
			if !got.Equal(want) {
				t.Fatalf("row %d: view %v, frozen %v", u, got, want)
			}
			for i := 0; i < series; i++ {
				if v.Bit(i, u) != want.Contains(i) {
					t.Fatalf("bit (%d, %d): view disagrees with frozen row", i, u)
				}
			}
		}
	}

	var recycle *TieredView
	for step := 0; step < steps; step++ {
		fillRow(row, series, step, 7)
		appendRow(ts, row, ev)
		if (step+1)%stride != 0 {
			continue
		}
		f := &frozen{congested: make([]int, series), pairsGood: make([]int, len(pairs))}
		for i := 0; i < series; i++ {
			f.congested[i] = ts.CongestedCount(i)
		}
		f.allGood = ts.CountAllGood(all)
		ts.CountPairsGood(pairs, f.pairsGood)
		for u := 0; u < ts.Snapshots(); u++ {
			r := bitset.New(series)
			ts.RowInto(u, r)
			f.rows = append(f.rows, r)
		}
		f.view = ts.SnapshotView(recycle)
		recycle = nil
		checkFrozen(f) // immediately after freeze

		pendingMu.Lock()
		old := pending
		pending = f
		pendingMu.Unlock()
		if old != nil {
			// One full stride of appends, seals and evictions later: the
			// earlier view must still answer as of its own freeze point.
			checkFrozen(old)
			old.view.Close()
			old.view.Close() // idempotent
			recycle = old.view
		}
	}
}

// TestViewImmutable pins that nothing the store does afterwards — appends,
// seals, evictions, drops, chunks leaving the window and being recycled
// into new write buffers — changes what a view answers.
func TestViewImmutable(t *testing.T) {
	const series = 8
	for mode, opts := range storeModes(t, 64) {
		ts, err := NewTiered(series, 128, opts)
		if err != nil {
			t.Fatal(err)
		}
		row := bitset.New(series)
		for i := 0; i < 70; i++ {
			fillRow(row, series, i, 3)
			appendRow(ts, row, nil)
		}
		v := ts.SnapshotView(nil)
		want := make([]*bitset.Set, v.Snapshots())
		for u := range want {
			want[u] = bitset.New(series)
			v.RowInto(u, want[u])
		}
		for i := 70; i < 600; i++ {
			fillRow(row, series, i+1, 2)
			appendRow(ts, row, nil)
			switch i % 50 {
			case 0:
				ts.EvictOldest(nil)
			case 25:
				ts.DropOldest(30)
			}
		}
		got := bitset.New(series)
		for u, w := range want {
			v.RowInto(u, got)
			if !got.Equal(w) {
				t.Fatalf("%s: view row %d changed to %v, froze %v", mode, u, got, w)
			}
		}
		v.Close()
		ts.Close()
	}
}

// TestReleaseMappedConcurrentWithViews is the -race regression for the
// unsynchronized-madvise bug: the owner goroutine keeps appending (sealing
// segments), calling ReleaseMapped, and finally Close, while reader
// goroutines hold refcounted views and sweep count kernels over the shared
// mappings the whole time. ReleaseMapped must skip any segment a view still
// references (refcount > 1), and Close must leave shared segments mapped
// until the last view releases them — the counts stay exact throughout.
//
// Over RAM chunks the same schedule checks that a chunk leaving the window
// is recycled only after the last view holding it closes.
func TestReleaseMappedConcurrentWithViews(t *testing.T) {
	for mode, opts := range storeModes(t, 64) {
		t.Run(mode, func(t *testing.T) { releaseConcurrentWithViews(t, opts) })
	}
}

func releaseConcurrentWithViews(t *testing.T, opts Options) {
	const (
		series   = 70
		capacity = 256
		steps    = 640
		readers  = 4
	)
	ts, err := NewTiered(series, capacity, opts)
	if err != nil {
		t.Fatal(err)
	}

	pairs := testPairs(series)
	all := make([]int, series)
	for i := range all {
		all[i] = i
	}
	row, ev := bitset.New(series), bitset.New(series)

	var wg sync.WaitGroup
	errs := make(chan string, readers*8)
	spawnReader := func(v *TieredView, congested []int, allGood int, pairsGood []int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer v.Close()
			out := make([]int, len(pairs))
			for rep := 0; rep < 50; rep++ {
				for i := 0; i < series; i++ {
					if v.CongestedCount(i) != congested[i] {
						errs <- "congested count drifted under ReleaseMapped"
						return
					}
				}
				if v.CountAllGood(all) != allGood {
					errs <- "all-good count drifted under ReleaseMapped"
					return
				}
				v.CountPairsGood(pairs, out)
				for i := range pairs {
					if out[i] != pairsGood[i] {
						errs <- "pair count drifted under ReleaseMapped"
						return
					}
				}
			}
		}()
	}

	launched := 0
	for step := 0; step < steps; step++ {
		fillRow(row, series, step, 7)
		appendRow(ts, row, ev)
		if ts.SealedSegments() == 0 || (step+1)%97 != 0 || launched >= readers {
			continue
		}
		congested := make([]int, series)
		for i := 0; i < series; i++ {
			congested[i] = ts.CongestedCount(i)
		}
		allGood := ts.CountAllGood(all)
		pairsGood := make([]int, len(pairs))
		ts.CountPairsGood(pairs, pairsGood)
		spawnReader(ts.SnapshotView(nil), congested, allGood, pairsGood)
		launched++
		ts.ReleaseMapped() // races the reader's count sweeps — the bugfix under test
	}
	if launched == 0 {
		t.Fatal("no readers launched; tune the schedule")
	}
	ts.ReleaseMapped()
	// Close the store while views are still reading: their segments must
	// survive until each view's own Close.
	ts.Close()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
