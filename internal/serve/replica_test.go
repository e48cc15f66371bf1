package serve

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// warmTenant registers the named quickstart tenant and ingests enough
// batches to fill its window, waiting until the shard worker has applied
// (and published a view for) everything accepted.
func warmTenant(t *testing.T, d *Daemon, name string, window, batchSize int) {
	t.Helper()
	if _, err := d.Register(TenantConfig{Name: name, Scenario: "quickstart", Seed: 1, Window: window}); err != nil {
		t.Fatal(err)
	}
	body := quickstartBatch(batchSize)
	total := 0
	for total < window {
		n, err := d.Ingest(name, body)
		if err != nil {
			if errors.Is(err, ErrBackpressure) {
				time.Sleep(time.Millisecond)
				continue
			}
			t.Fatal(err)
		}
		total += n
	}
	d.mu.RLock()
	tenant := d.tenants[name]
	d.mu.RUnlock()
	waitFor(t, "ingest applied", func() bool {
		box := tenant.view.Load()
		return box != nil && int64(box.seen) >= tenant.accepted.Load()
	})
}

// quickstartBatch builds an ingest body of n quickstart-shaped reports.
func quickstartBatch(n int) []byte {
	body := []byte(`{"reports":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, []byte{'[', byte('0' + i%3), ']'}...)
	}
	return append(body, []byte(`]}`)...)
}

// TestEstimateUnderIngestSaturation is the decoupling regression the
// read-replica design exists for: with the only shard worker parked and
// the ingest queue saturated (Ingest returns ErrBackpressure), estimates
// for an already-warm tenant must still succeed — served off-worker from
// the latest published view instead of queueing behind the stuck ingest
// backlog.
func TestEstimateUnderIngestSaturation(t *testing.T) {
	d := New(Config{Shards: 1, QueueDepth: 4, EstimateWorkers: 2})
	defer d.Shutdown(context.Background())

	warmTenant(t, d, "warm", 24, 8)
	if _, err := d.Register(TenantConfig{Name: "flood", Scenario: "quickstart", Seed: 2, Window: 1000}); err != nil {
		t.Fatal(err)
	}

	// Park the shard worker, then saturate the queue with the flood
	// tenant's batches until backpressure kicks in.
	release := make(chan struct{})
	d.shards[0].queue <- job{block: release}
	defer close(release)
	waitFor(t, "worker parked", func() bool { return len(d.shards[0].queue) == 0 })
	batch := quickstartBatch(4)
	saturated := false
	for i := 0; i < 64 && !saturated; i++ {
		_, err := d.Ingest("flood", batch)
		saturated = errors.Is(err, ErrBackpressure)
	}
	if !saturated {
		t.Fatal("never hit backpressure; queue depth changed?")
	}

	// The warm tenant's estimates must not care: its accepted writes are
	// all in the published view, so the estimate pool answers immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		res, err := d.Estimate(ctx, "warm")
		if err != nil {
			t.Fatalf("estimate %d under ingest saturation: %v", i, err)
		}
		if res.WindowLen != 24 {
			t.Fatalf("estimate %d covers %d snapshots, want 24", i, res.WindowLen)
		}
	}
	// And ingest is still saturated — the estimates did not drain the
	// queue for the flood tenant.
	if _, err := d.Ingest("flood", batch); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("ingest after estimates: err = %v, want ErrBackpressure", err)
	}
}

// TestEstimatePoolGoroutineFence runs the full register → ingest →
// estimate → Shutdown lifecycle with a multi-worker estimate pool, then
// fences runtime.NumGoroutine: the shard workers, the estimate pool and
// every view's mapped state must all be gone after Shutdown.
func TestEstimatePoolGoroutineFence(t *testing.T) {
	baseline := runtime.NumGoroutine()

	d := New(Config{Shards: 2, QueueDepth: 16, EstimateWorkers: 4, SpillDir: t.TempDir()})
	warmTenant(t, d, "f0", 16, 8)
	warmTenant(t, d, "f1", 16, 8)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		for _, name := range []string{"f0", "f1"} {
			if _, err := d.Estimate(ctx, name); err != nil {
				t.Fatalf("estimate %s: %v", name, err)
			}
		}
	}
	finals, err := d.Shutdown(ctx)
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(finals) != 2 || finals[0].Err != nil || finals[1].Err != nil {
		t.Fatalf("finals = %+v, want two flushed estimates", finals)
	}
	// Estimates after shutdown are rejected, not deadlocked on a closed
	// pool.
	if _, err := d.Estimate(ctx, "f0"); err == nil {
		t.Fatal("estimate after shutdown succeeded")
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d goroutines after shutdown, baseline %d", runtime.NumGoroutine(), baseline)
}
