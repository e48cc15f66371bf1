package measure

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/topology"
)

// randomBatchRows builds n random congestion rows over the given paths.
func randomBatchRows(rng *rand.Rand, paths, n int) []*bitset.Set {
	rows := make([]*bitset.Set, n)
	for t := range rows {
		rows[t] = bitset.New(paths)
		for i := 0; i < paths; i++ {
			if rng.Intn(4) == 0 {
				rows[t].Add(i)
			}
		}
	}
	return rows
}

// packRows lays rows out back to back as packed word-rows of ⌈paths/64⌉
// words — the AppendBatchWords layout.
func packRows(rows []*bitset.Set, paths int) (words []uint64, stride int) {
	stride = (paths + 63) / 64
	words = make([]uint64, len(rows)*stride)
	for r, row := range rows {
		copy(words[r*stride:(r+1)*stride], row.Words())
	}
	return words, stride
}

// appendBatch appends rows through AppendBatchWords.
func appendBatch(e *Empirical, rows []*bitset.Set) {
	words, stride := packRows(rows, e.NumPaths())
	e.AppendBatchWords(words, stride, len(rows))
}

// queryAll snapshots every observable the estimator exposes, as Float64bits
// where the value is a float, so comparisons are bit-exact.
func queryAll(t *testing.T, e *Empirical, paths int, sets []*bitset.Set) []uint64 {
	t.Helper()
	var out []uint64
	out = append(out, uint64(e.Snapshots()))
	for i := 0; i < paths; i++ {
		out = append(out, math.Float64bits(e.ProbPathGood(topology.PathID(i))))
	}
	for i := 0; i < paths; i++ {
		for j := i + 1; j < paths; j++ {
			out = append(out, math.Float64bits(e.ProbPairGood(topology.PathID(i), topology.PathID(j))))
		}
	}
	for _, s := range sets {
		out = append(out, math.Float64bits(e.ProbPathsGood(s)))
		out = append(out, math.Float64bits(e.ProbExactCongestedPaths(s)))
	}
	return out
}

// TestAppendBatchMatchesAppendLoop pins AppendBatchWords bit-identical to
// a per-row Append loop across batch shapes that exercise every eviction
// path: batches into an unfilled window, batches that exactly fill it,
// batches forcing partial and full displacement, batches larger than the
// window, and unbounded streaming estimators — with the pattern histogram
// live the whole time (materialized before the batches) so the incremental
// forget/record bookkeeping is pinned too.
func TestAppendBatchMatchesAppendLoop(t *testing.T) {
	const paths = 9
	rng := rand.New(rand.NewSource(31))
	sets := []*bitset.Set{
		bitset.New(paths),
		bitset.FromIndices(0, 3, 5),
		bitset.FromIndices(1, 2, 6, 8),
	}
	for _, window := range []int{0, 1, 64, 100, 257} { // 0 = unbounded
		build := func() *Empirical {
			if window == 0 {
				return NewStreaming(paths)
			}
			e, err := NewSlidingWindow(paths, window)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		batched, looped := build(), build()
		seed := randomBatchRows(rng, paths, 3)
		appendBatch(batched, seed[:1])
		for _, r := range seed[:1] {
			looped.Append(r)
		}
		// Materialize the histograms so every later batch maintains them.
		batched.ProbExactCongestedPaths(sets[1])
		looped.ProbExactCongestedPaths(sets[1])
		batchSizes := []int{1, 3, window / 2, window - 1, window, window + 7, 2*window + 3}
		for _, m := range batchSizes {
			if m < 1 {
				continue
			}
			rows := randomBatchRows(rng, paths, m)
			appendBatch(batched, rows)
			for _, r := range rows {
				looped.Append(r)
			}
			got := queryAll(t, batched, paths, sets)
			want := queryAll(t, looped, paths, sets)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("window=%d batch=%d observable %d: batched %#x != looped %#x", window, m, k, got[k], want[k])
				}
			}
		}
	}
}

// TestProbPathsGoodMemoHitAllocs pins the allocation audit of the general
// ProbPathsGood path: once a set's probability is memoized, re-querying it
// must not allocate (zero-copy key lookup, reusable index buffer).
func TestProbPathsGoodMemoHitAllocs(t *testing.T) {
	const paths = 12
	rng := rand.New(rand.NewSource(41))
	e := NewStreaming(paths)
	appendBatch(e, randomBatchRows(rng, paths, 500))
	set := bitset.FromIndices(1, 4, 7, 9)
	e.ProbPathsGood(set) // warm the memo
	if allocs := testing.AllocsPerRun(20, func() { e.ProbPathsGood(set) }); allocs != 0 {
		t.Fatalf("memoized ProbPathsGood: %.1f allocs/op, want 0", allocs)
	}
}

// TestAppendOutOfRangePanics pins the out-of-range panic of the packed
// per-row path, for a bit inside the row's last word and one past it.
func TestAppendOutOfRangePanics(t *testing.T) {
	for _, bit := range []int{9, 64, 200} {
		func() {
			defer func() {
				want := fmt.Sprintf("segstore: series %d out of range (9 series)", bit)
				if r := recover(); r != want {
					t.Errorf("Append with path %d: panic %v, want %q", bit, r, want)
				}
			}()
			NewStreaming(9).Append(bitset.FromIndices(1, bit))
		}()
	}
}
