package segstore

import (
	"os"
	"testing"

	"repro/internal/bitset"
)

// TestAdviseSequentialHeapFallback pins AdviseSequential's contract on both
// segment flavors: over live mappings it is a pure hint (counts unchanged),
// and over heap-fallback segments (mapped == nil — the openSegment path
// where mmap is unavailable) it must be a no-op rather than a crash. The
// heap flavor is manufactured by re-reading each sealed file through
// parseSegment, the exact fallback openSegment takes.
func TestAdviseSequentialHeapFallback(t *testing.T) {
	const (
		series  = 96
		segRows = 64
		rows    = 3 * segRows
	)
	ts, err := NewTiered(series, 256, Options{Dir: t.TempDir(), SegmentRows: segRows, Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	evicted := bitset.New(series)
	for i := 0; i < rows; i++ {
		appendRow(ts, bitset.FromIndices(i%series, (i*7)%series, (i*31)%series), evicted)
	}
	if got := ts.SealedSegments(); got < 2 {
		t.Fatalf("sealed %d segments, want at least 2", got)
	}
	before := make([]int, series)
	for i := range before {
		before[i] = ts.CongestedCount(i)
	}

	// Live mappings: advisory only, every count identical afterwards.
	ts.AdviseSequential()
	for i := range before {
		if got := ts.CongestedCount(i); got != before[i] {
			t.Fatalf("after advising mapped segments, series %d counts %d, want %d", i, got, before[i])
		}
	}

	// Swap every sealed segment for a heap-parsed copy of its file — what
	// openSegment produces where mmap is unavailable — releasing the mapped
	// originals.
	ts.mu.Lock()
	for k, seg := range ts.sealed {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			ts.mu.Unlock()
			t.Fatal(err)
		}
		heapSeg, perr := parseSegment(data, seg.path)
		if perr != nil {
			ts.mu.Unlock()
			t.Fatal(perr)
		}
		if heapSeg.mapped != nil {
			ts.mu.Unlock()
			t.Fatal("heap-parsed segment claims a mapping")
		}
		heapSeg.refs.Store(1)
		ts.sealed[k] = heapSeg
		seg.release()
	}
	ts.mu.Unlock()

	// Heap fallback: AdviseSequential must not touch (or crash on) the
	// unmapped segments, and the store keeps answering identically.
	ts.AdviseSequential()
	for i := range before {
		if got := ts.CongestedCount(i); got != before[i] {
			t.Fatalf("after advising heap segments, series %d counts %d, want %d", i, got, before[i])
		}
	}

	// The raw hint is a no-op on empty input too.
	adviseSequential(nil)
}
