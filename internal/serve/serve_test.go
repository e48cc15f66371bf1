package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	tomography "repro"
	"repro/internal/bitset"
)

// TestBackpressure429 pins the explicit-backpressure contract: when a
// shard's bounded queue is full, ingest answers 429 with a Retry-After
// hint and applies nothing — and once the shard drains, the same batch is
// accepted and applied. The shard worker is parked on a block job so the
// queue state is deterministic.
func TestBackpressure429(t *testing.T) {
	d := New(Config{Shards: 1, QueueDepth: 2, RetryAfter: 1})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	defer d.Shutdown(context.Background())

	if _, err := d.Register(TenantConfig{Name: "bp", Scenario: "quickstart", Seed: 1, Window: 10}); err != nil {
		t.Fatal(err)
	}

	// Park the worker: it dequeues the block job and waits, leaving the
	// queue empty with nothing being drained.
	release := make(chan struct{})
	d.shards[0].queue <- job{block: release}
	waitFor(t, "worker parked on block job", func() bool { return len(d.shards[0].queue) == 0 })

	// Two batches fill the queue; the third must bounce.
	batch := []byte(`{"reports":[[0],[1]]}`)
	for i := 0; i < 2; i++ {
		if status, body := post(t, srv.URL+"/v1/ingest?tenant=bp", batch); status != http.StatusAccepted {
			t.Fatalf("fill batch %d: status %d: %s", i, status, body)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/ingest?tenant=bp", "application/json", strings.NewReader(string(batch)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow batch: status %d, want %d", resp.StatusCode, http.StatusTooManyRequests)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q", got, "1")
	}

	if !d.shardBehind("bp") {
		t.Fatal("shardBehind = false with two batches queued behind a parked worker")
	}

	// Release the worker; the two accepted batches (4 snapshots) must all
	// land in the tenant's window, the bounced one must not.
	close(release)
	waitFor(t, "accepted batches applied", func() bool {
		return d.Tenants()[0].Seen == 4
	})
	if d.shardBehind("bp") {
		t.Fatal("shardBehind = true after the worker drained its queue")
	}
	if rejected := d.metrics.ingestRejected.Load(); rejected != 1 {
		t.Fatalf("ingestRejected = %d, want 1", rejected)
	}

	// After draining, the same batch is accepted again.
	if status, body := post(t, srv.URL+"/v1/ingest?tenant=bp", batch); status != http.StatusAccepted {
		t.Fatalf("post-drain batch: status %d: %s", status, body)
	}
}

// TestHealthAndMetrics exercises the observability endpoints: health
// reports tenant/shard counts, and /metrics carries the ingest counters,
// per-tenant occupancy gauges and the estimate-latency summary in the
// Prometheus text format.
func TestHealthAndMetrics(t *testing.T) {
	d := New(Config{Shards: 2, QueueDepth: 16})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	defer d.Shutdown(context.Background())

	if _, err := d.Register(TenantConfig{Name: "m0", Scenario: "quickstart", Seed: 1, Window: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Register(TenantConfig{Name: "m1", Scenario: "quickstart", Seed: 2, Window: 4}); err != nil {
		t.Fatal(err)
	}

	var health HealthResponse
	if status, body := get(t, srv.URL+"/v1/health", &health); status != http.StatusOK {
		t.Fatalf("health: status %d: %s", status, body)
	}
	if health.Status != "ok" || health.Tenants != 2 || health.Shards != 2 || health.Draining {
		t.Fatalf("health = %+v", health)
	}

	// Warm m0 and serve one estimate so every counter family is non-zero.
	if status, body := post(t, srv.URL+"/v1/ingest?tenant=m0",
		[]byte(`{"reports":[[0],[1],[0,1],[2],[0]]}`)); status != http.StatusAccepted {
		t.Fatalf("ingest: status %d: %s", status, body)
	}
	var est EstimateResponse
	if status, body := get(t, srv.URL+"/v1/estimate?tenant=m0", &est); status != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", status, body)
	}
	if est.WindowLen != 4 || est.SnapshotsSeen != 5 {
		t.Fatalf("estimate window = %d len / %d seen, want 4/5", est.WindowLen, est.SnapshotsSeen)
	}

	status, body := get(t, srv.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	for _, want := range []string{
		"tomod_ingest_batches_total 1",
		"tomod_ingest_snapshots_total 5",
		"tomod_estimates_total 1",
		`tomod_window_occupancy{tenant="m0"} 4`,
		`tomod_window_occupancy{tenant="m1"} 0`,
		`tomod_snapshots_seen{tenant="m0"} 5`,
		"tomod_estimate_latency_seconds_count 1",
		`tomod_shard_queue_depth{shard="0"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}

	// Round-robin shard assignment: the two tenants land on distinct shards.
	infos := d.Tenants()
	if infos[0].Shard == infos[1].Shard {
		t.Fatalf("tenants share shard %d, want round-robin distribution", infos[0].Shard)
	}
}

// TestIngestIsOrderedBeforeEstimate pins the queue-ordering contract the
// differential test builds on: an estimate enqueued after an accepted
// ingest batch observes that batch.
func TestIngestIsOrderedBeforeEstimate(t *testing.T) {
	d := New(Config{Shards: 1, QueueDepth: 64})
	defer d.Shutdown(context.Background())
	if _, err := d.Register(TenantConfig{Name: "ord", Scenario: "quickstart", Seed: 3, Window: 8}); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 5; round++ {
		body := []byte(fmt.Sprintf(`{"reports":[[%d],[%d]]}`, round%3, (round+1)%3))
		if _, err := d.Ingest("ord", body); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round*2 < 8 {
			continue
		}
		res, err := d.Estimate(context.Background(), "ord")
		if err != nil {
			t.Fatalf("round %d: estimate: %v", round, err)
		}
		if res.SnapshotsSeen != round*2 {
			t.Fatalf("round %d: estimate sees %d snapshots, want %d", round, res.SnapshotsSeen, round*2)
		}
	}
}

// waitFor polls cond for up to 2 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestIngestAcceptedReply pins the 202 reply byte for byte on both wires:
// its body, its Content-Type and no other header, all as writeJSON, the
// encoder every other response uses, renders {"accepted": N}.
func TestIngestAcceptedReply(t *testing.T) {
	d := New(Config{Shards: 1, QueueDepth: 8})
	defer d.Shutdown(context.Background())
	if _, err := d.Register(TenantConfig{Name: "ack", Scenario: "quickstart", Seed: 1, Window: 10}); err != nil {
		t.Fatal(err)
	}
	sets := make([]*bitset.Set, 12)
	for i := range sets {
		sets[i] = bitset.FromIndices(i % 3)
	}
	binaryBody, err := EncodeReportsBinary(sets, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, contentType string
		body              []byte
		want              string
	}{
		{"json", ContentTypeJSON, []byte(`{"reports":[[0],[1],[2],[0,1],[]]}`), "{\n  \"accepted\": 5\n}\n"},
		{"binary", ContentTypeBinary, binaryBody, "{\n  \"accepted\": 12\n}\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest?tenant=ack", bytes.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.contentType)
			got := httptest.NewRecorder()
			d.Handler().ServeHTTP(got, req)
			if got.Code != http.StatusAccepted || got.Body.String() != tc.want {
				t.Fatalf("reply = %d %q, want %d %q", got.Code, got.Body, http.StatusAccepted, tc.want)
			}
			want := http.Header{"Content-Type": {"application/json"}}
			if !reflect.DeepEqual(got.Header(), want) {
				t.Fatalf("headers = %v, want %v", got.Header(), want)
			}
		})
	}
	for _, n := range []int{0, 1, 9, 10, 4096, math.MaxInt} {
		got, ref := httptest.NewRecorder(), httptest.NewRecorder()
		writeAccepted(got, nil, n)
		writeJSON(ref, http.StatusAccepted, struct {
			Accepted int `json:"accepted"`
		}{Accepted: n})
		if got.Code != ref.Code || got.Body.String() != ref.Body.String() || !reflect.DeepEqual(got.Header(), ref.Header()) {
			t.Errorf("writeAccepted(%d) = %d %v %q, writeJSON renders %d %v %q",
				n, got.Code, got.Header(), got.Body, ref.Code, ref.Header(), ref.Body)
		}
	}
}

// TestIngestDoesNotAliasBody parks the tenant's shard, posts two different
// batches back to back on one goroutine, so the second post reads its body
// into the buffer the first one returned to the pool, and only then lets
// the shard apply them. The window must hold the two batches in order: its
// estimate is bit-identical to the offline replay of the stream, where a
// queued batch that still pointed into the reused buffer would have been
// applied as a copy of the second batch. The window is one and a half
// batches long, so the order of the two batches shows in the estimate too.
func TestIngestDoesNotAliasBody(t *testing.T) {
	const batch, window = 100, 150
	scn, err := tomography.BuildScenario("quickstart", 4)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := simulateScenario(scn, 2*batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	points, err := tomography.WindowedEstimate(scn.Topology, rec,
		tomography.WindowConfig{Size: window}, 2*batch)
	if err != nil {
		t.Fatal(err)
	}
	want := points[len(points)-1].Result.CongestionProb
	jsonBodies, err := encodeStream(rec, batch)
	if err != nil {
		t.Fatal(err)
	}
	binaryBodies, err := encodeStreamBinary(rec, batch)
	if err != nil {
		t.Fatal(err)
	}
	// The test has teeth only if the wrong windows estimate differently:
	// the second batch applied twice (an aliased first batch) or the two
	// batches applied in the other order.
	for name, order := range map[string][]int{"aliased": {1, 1}, "swapped": {1, 0}} {
		if got := windowEstimate(t, scn.Topology, window, binaryBodies, order); bitIdentical(got, want) {
			t.Fatalf("a %s window estimates the same as the right one; the test cannot tell them apart", name)
		}
	}

	for _, wire := range []struct {
		name, contentType string
		bodies            [][]byte
	}{
		{"json", ContentTypeJSON, jsonBodies},
		{"binary", ContentTypeBinary, binaryBodies},
	} {
		t.Run(wire.name, func(t *testing.T) {
			d := New(Config{Shards: 1, QueueDepth: 8})
			defer d.Shutdown(context.Background())
			if _, err := d.Register(TenantConfig{Name: "alias", Scenario: "quickstart", Seed: 4, Window: window}); err != nil {
				t.Fatal(err)
			}
			release := make(chan struct{})
			d.shards[0].queue <- job{block: release}
			waitFor(t, "worker parked on block job", func() bool { return len(d.shards[0].queue) == 0 })
			h := d.Handler()
			for i, body := range wire.bodies {
				req := httptest.NewRequest(http.MethodPost, "/v1/ingest?tenant=alias", bytes.NewReader(body))
				req.Header.Set("Content-Type", wire.contentType)
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, req)
				if rw.Code != http.StatusAccepted {
					t.Fatalf("batch %d: status %d: %s", i, rw.Code, rw.Body)
				}
			}
			close(release)
			res, err := d.Estimate(context.Background(), "alias")
			if err != nil {
				t.Fatal(err)
			}
			if res.SnapshotsSeen != 2*batch {
				t.Fatalf("estimate covers %d snapshots, want %d", res.SnapshotsSeen, 2*batch)
			}
			if !bitIdentical(res.CongestionProb, want) {
				t.Fatalf("estimate differs from the offline replay\n daemon:  %v\n offline: %v", res.CongestionProb, want)
			}
		})
	}
}

// windowEstimate applies the numbered TOMOW1 bodies, in the given order, to
// a fresh window and returns its estimate.
func windowEstimate(t *testing.T, top *tomography.Topology, window int, bodies [][]byte, order []int) []float64 {
	t.Helper()
	win, err := tomography.NewWindow(top, tomography.WindowConfig{Size: window})
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()
	var wb wordBatch
	for _, i := range order {
		if err := decodeReportsBinaryInto(&wb, bodies[i], top.NumPaths(), DefaultMaxBatch); err != nil {
			t.Fatal(err)
		}
		win.ObserveBatchWords(wb.words, wb.wordsPerRow, wb.rows)
	}
	res, err := win.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	return res.CongestionProb
}
