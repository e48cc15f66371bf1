package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
)

// trial is a stand-in Monte-Carlo task: a deterministic function of the
// trial index only, via DeriveSeed.
func trial(root int64, i int) []float64 {
	rng := rand.New(rand.NewSource(DeriveSeed(root, i)))
	out := make([]float64, 5)
	for j := range out {
		out[j] = rng.Float64()
	}
	sort.Float64s(out)
	return out
}

// TestParallelMatchesSerial is the engine's core guarantee: for a fixed root
// seed, a parallel run produces bit-identical results to a serial run,
// regardless of worker count. Run under -race this also proves the dispatch
// loop is data-race free.
func TestParallelMatchesSerial(t *testing.T) {
	const n, root = 64, 42
	serialR := &Runner{Workers: 1}
	serial, err := Map(context.Background(), serialR, n, func(_ context.Context, i int) ([]float64, error) {
		return trial(root, i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8, 100} {
		r := &Runner{Workers: workers}
		got, err := Map(context.Background(), r, n, func(_ context.Context, i int) ([]float64, error) {
			return trial(root, i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: parallel results differ from serial", workers)
		}
	}
}

func TestRunCoversEveryIndexOnce(t *testing.T) {
	const n = 257
	counts := make([]atomic.Int64, n)
	r := &Runner{Workers: 7}
	if err := r.Run(context.Background(), n, func(_ context.Context, i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

func TestRunZeroTasks(t *testing.T) {
	r := &Runner{}
	if err := r.Run(context.Background(), 0, func(context.Context, int) error {
		t.Fatal("task invoked for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstErrorStopsDispatch(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	r := &Runner{Workers: 4}
	err := r.Run(context.Background(), 10_000, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n >= 10_000 {
		t.Fatalf("dispatch did not stop after error (%d tasks ran)", n)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	r := &Runner{Workers: 4}
	err := r.Run(ctx, 1_000_000, func(_ context.Context, i int) error {
		if ran.Add(1) == 100 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1_000_000 {
		t.Fatal("cancellation did not stop dispatch")
	}
}

func TestMapDiscardsPartialResultsOnError(t *testing.T) {
	r := &Runner{Workers: 2}
	out, err := Map(context.Background(), r, 10, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if out != nil {
		t.Fatalf("out = %v, want nil", out)
	}
}

func TestMapScratchPerWorker(t *testing.T) {
	// Each worker gets its own scratch; the pointer must never be shared
	// across workers mid-task. With -race this detects scratch sharing.
	r := &Runner{Workers: 4}
	var created atomic.Int64
	out, err := MapScratch(context.Background(), r, 100,
		func() *[]int { created.Add(1); s := make([]int, 0, 8); return &s },
		func(_ context.Context, i int, s *[]int) (int, error) {
			*s = append((*s)[:0], i, i, i)
			return (*s)[0] + (*s)[1] + (*s)[2], nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 3*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, 3*i)
		}
	}
	if c := created.Load(); c < 1 || c > 4 {
		t.Fatalf("scratch created %d times, want 1..4", c)
	}
}

func TestProgressSerializedAndComplete(t *testing.T) {
	const n = 50
	var calls []int
	r := &Runner{
		Workers:  4,
		Progress: func(done, total int) { calls = append(calls, done) }, // no lock: Runner serializes
	}
	if err := r.Run(context.Background(), n, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(calls) != n {
		t.Fatalf("%d progress calls, want %d", len(calls), n)
	}
	// Monotonic by construction: done is incremented under the same lock
	// that serializes the callback.
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done values not monotonically 1..%d: %v", n, calls)
		}
	}
}

// TestNestedPoolSharesBudget: Runner.Workers caps the total concurrency of
// a nested experiment stack rather than multiplying per level — a pool that
// fans out w ways leaves each task budget/w workers for nested pools, and a
// pool that doesn't fan out passes its full budget through.
func TestNestedPoolSharesBudget(t *testing.T) {
	// Outer fans out 4/4: each task's subtree gets budget 4/4 = 1, so the
	// nested pool must run serially no matter what it asks for.
	outer := &Runner{Workers: 4}
	var maxInner atomic.Int64
	err := outer.Run(context.Background(), 8, func(ctx context.Context, _ int) error {
		inner := &Runner{Workers: 8}
		var active atomic.Int64
		return inner.Run(ctx, 32, func(context.Context, int) error {
			if a := active.Add(1); a > maxInner.Load() {
				maxInner.Store(a)
			}
			defer active.Add(-1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := maxInner.Load(); m > 1 {
		t.Fatalf("nested pool under a saturated parent reached %d concurrent tasks, want 1", m)
	}

	// A single-task pool passes its whole budget through; a 2-way fan-out
	// splits it evenly.
	for _, tc := range []struct{ n, wantChild int }{{1, 4}, {2, 2}} {
		r := &Runner{Workers: 4}
		err := r.Run(context.Background(), tc.n, func(ctx context.Context, _ int) error {
			if got := ctxBudget(ctx); got != tc.wantChild {
				t.Errorf("n=%d: nested budget = %d, want %d", tc.n, got, tc.wantChild)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// The inherited budget caps a nested pool's own larger request.
	single := &Runner{Workers: 2}
	err = single.Run(context.Background(), 2, func(ctx context.Context, _ int) error {
		inner := &Runner{Workers: 64}
		if got := inner.Budget(ctx); got != 1 {
			t.Errorf("nested effective budget = %d, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSeedStreamsDiffer(t *testing.T) {
	seen := map[int64]int{}
	for root := int64(0); root < 3; root++ {
		for i := 0; i < 1000; i++ {
			seen[DeriveSeed(root, i)]++
		}
	}
	for s, c := range seen {
		if c > 1 {
			t.Fatalf("seed %d produced %d times", s, c)
		}
	}
	// Regression: the derivation must stay identical to netsim's historical
	// per-snapshot derivation, or every recorded experiment changes.
	if got, want := DeriveSeed(1, 0), int64(-1956407806741107680); got != want {
		t.Errorf("DeriveSeed(1,0) = %d, want %d (derivation changed!)", got, want)
	}
}

func TestMergeSorted(t *testing.T) {
	cases := []struct {
		parts [][]float64
		want  []float64
	}{
		{nil, nil},
		{[][]float64{{}, {}}, nil},
		{[][]float64{{1, 3}, {}, {2}}, []float64{1, 2, 3}},
		{[][]float64{{0.5}}, []float64{0.5}},
		{[][]float64{{1, 1, 2}, {0, 1}, {3}}, []float64{0, 1, 1, 1, 2, 3}},
	}
	for i, c := range cases {
		if got := MergeSorted(c.parts); !reflect.DeepEqual(got, c.want) {
			t.Errorf("case %d: MergeSorted = %v, want %v", i, got, c.want)
		}
	}
	// Property check against sort on random input.
	rng := rand.New(rand.NewSource(7))
	var parts [][]float64
	var all []float64
	for p := 0; p < 9; p++ {
		part := make([]float64, rng.Intn(40))
		for j := range part {
			part[j] = rng.Float64()
		}
		sort.Float64s(part)
		parts = append(parts, part)
		all = append(all, part...)
	}
	sort.Float64s(all)
	if got := MergeSorted(parts); !reflect.DeepEqual(got, all) {
		t.Fatal("MergeSorted disagrees with sort")
	}
}

func TestMergeSortedCopiesSinglePart(t *testing.T) {
	part := []float64{1, 2}
	got := MergeSorted([][]float64{part})
	got[0] = 99
	if part[0] != 1 {
		t.Fatal("MergeSorted aliased its input")
	}
}

func ExampleRunner() {
	r := &Runner{Workers: 4}
	squares, err := Map(context.Background(), r, 5, func(_ context.Context, i int) (int, error) {
		return i * i, nil // deterministic in i: safe to parallelize
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(squares)
	// Output: [0 1 4 9 16]
}
