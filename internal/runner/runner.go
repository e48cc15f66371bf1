// Package runner is the concurrent experiment engine underneath every
// Monte-Carlo loop in this repository: snapshot simulation (internal/netsim),
// the figure sweeps and trial loops of internal/experiments, and the public
// scenario-batch API on the tomography facade.
//
// The engine solves one problem well: run n independent, CPU-bound tasks on
// a bounded worker pool such that
//
//   - results are bit-identical to a serial run (determinism). Tasks must
//     derive all their randomness from their index via DeriveSeed, never from
//     shared or time-seeded state; the pool then only changes *when* a task
//     runs, not *what* it computes.
//   - a context cancels promptly. Workers observe ctx between tasks; a run
//     that is cancelled returns ctx.Err() and stops dispatching.
//   - progress is observable. An optional Progress callback fires after each
//     completed task with (done, total), serialized so callers need no locks.
//
// The three entry points are Runner.Run (n tasks, error-only), Map (collect
// per-task results in index order) and MapScratch (same, with a per-worker
// scratch value for allocation reuse). MergeSorted merges the per-trial
// sorted error samples that the evaluation metrics (internal/eval) consume.
//
// Pools nest without multiplying: experiment levels stack (figures → sweep
// points → trials → snapshots), and each level passes its task ctx down,
// which carries the remaining worker budget. A pool that fans out w ways
// leaves each task budget/w workers for whatever pools it opens beneath, so
// Workers is a cap on the run's total concurrency, not per-level — and
// levels that don't fan out pass their full budget through to the next one
// that can use it.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner is a bounded worker pool for deterministic experiment sharding. The
// zero value is ready to use and sizes itself to GOMAXPROCS.
type Runner struct {
	// Workers caps the number of concurrent tasks. 0 means GOMAXPROCS;
	// 1 degenerates to a serial loop (useful for determinism baselines).
	Workers int
	// Progress, when non-nil, is called after every completed task with the
	// number of tasks finished so far and the total. Calls are serialized.
	Progress func(done, total int)
}

// budgetKey carries the worker budget remaining for pools opened under a
// fanned-out runner task.
type budgetKey struct{}

// ctxBudget returns the inherited worker budget, or 0 when ctx carries none
// (i.e. this is an outermost pool).
func ctxBudget(ctx context.Context) int {
	b, _ := ctx.Value(budgetKey{}).(int)
	return b
}

// Budget resolves this pool's total worker allowance under ctx: its own
// request (Workers, defaulting to GOMAXPROCS) capped by whatever budget the
// enclosing pool left for it. A caller that would open a pool only to run
// it on one worker can check Budget first and loop inline instead.
func (r *Runner) Budget(ctx context.Context) int {
	b := r.Workers
	if b <= 0 {
		b = runtime.GOMAXPROCS(0)
	}
	if inherited := ctxBudget(ctx); inherited > 0 && inherited < b {
		b = inherited
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Run executes task(0..n-1) on the pool and waits for completion. task must
// be safe for concurrent invocation with distinct indices and must not
// depend on invocation order. The first task error (or ctx cancellation)
// stops dispatching further tasks and is returned; in-flight tasks finish
// first.
//
// The context handed to each task carries the worker budget remaining for
// that task's subtree (this pool's budget divided by its fan-out): nested
// Run/Map calls made with it size themselves to that share, so Workers caps
// total concurrency no matter how deeply experiment levels nest — always
// pass the task's own ctx to nested runner (and netsim) calls.
func (r *Runner) Run(ctx context.Context, n int, task func(ctx context.Context, i int) error) error {
	return runScratch(ctx, r, n, func() struct{} { return struct{}{} },
		func(ctx context.Context, i int, _ struct{}) error { return task(ctx, i) })
}

// Map runs f(0..n-1) on the pool and returns the results in index order.
// On error or cancellation the partial results are discarded. Nested pool
// calls must use the ctx passed to f (see Run).
func Map[T any](ctx context.Context, r *Runner, n int, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapScratch(ctx, r, n, func() struct{} { return struct{}{} },
		func(ctx context.Context, i int, _ struct{}) (T, error) { return f(ctx, i) })
}

// MapScratch is Map with a per-worker scratch value: mk runs once per worker
// goroutine and its result is passed to every task that worker executes.
// Use it to reuse allocations (bitsets, matrices) across tasks without
// sharing them between workers.
func MapScratch[S, T any](ctx context.Context, r *Runner, n int, mk func() S, f func(ctx context.Context, i int, scratch S) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := runScratch(ctx, r, n, mk, func(ctx context.Context, i int, s S) error {
		v, err := f(ctx, i, s)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runScratch is the shared dispatch loop: an atomic ticket counter hands
// indices to workers, a stop flag halts dispatch on the first failure, and
// the first error wins. The pool sizes itself to min(budget, n) workers and
// hands each task a ctx carrying budget/workers — the share of the total
// allowance its nested pools may use — so concurrency across all nesting
// levels stays within the outermost cap instead of multiplying.
func runScratch[S any](ctx context.Context, r *Runner, n int, mk func() S, task func(ctx context.Context, i int, scratch S) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	budget := r.Budget(ctx)
	workers := budget
	if workers > n {
		workers = n
	}
	if child := budget / workers; child != ctxBudget(ctx) {
		ctx = context.WithValue(ctx, budgetKey{}, child)
	}

	var (
		next     atomic.Int64 // ticket counter
		stopped  atomic.Bool  // set on first error or cancellation
		mu       sync.Mutex   // serializes firstErr, done and Progress
		done     int
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		stopped.Store(true)
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := mk()
			for {
				if stopped.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := task(ctx, i, scratch); err != nil {
					fail(err)
					return
				}
				if r.Progress != nil {
					mu.Lock()
					done++
					r.Progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// DeriveSeed deterministically mixes a root seed with a stream index,
// yielding statistically independent RNG streams for parallel trials. The
// mixing is a splitmix64 finalizer over seed ⊕ (stream+1)·golden-gamma — the
// same derivation netsim uses per snapshot, so results never depend on
// worker count or scheduling.
func DeriveSeed(root int64, stream int) int64 {
	x := uint64(root) ^ (uint64(stream)+1)*0x9e3779b97f4a7c15
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// MergeSorted merges ascending-sorted sample slices into one ascending
// slice — the aggregation step that combines per-trial error samples into
// the population over which eval.Mean/Percentile/CDF are computed. A k-way
// linear merge: O(total · k), plenty for the figure suite's trial counts.
func MergeSorted(parts [][]float64) []float64 {
	total := 0
	nonEmpty := 0
	for _, p := range parts {
		total += len(p)
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if total == 0 {
		return nil
	}
	if nonEmpty == 1 {
		for _, p := range parts {
			if len(p) > 0 {
				out := make([]float64, len(p))
				copy(out, p)
				return out
			}
		}
	}
	heads := make([]int, len(parts))
	out := make([]float64, 0, total)
	for len(out) < total {
		best := -1
		for j, p := range parts {
			if heads[j] >= len(p) {
				continue
			}
			if best < 0 || p[heads[j]] < parts[best][heads[best]] {
				best = j
			}
		}
		out = append(out, parts[best][heads[best]])
		heads[best]++
	}
	return out
}
