package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	tomography "repro"
	"repro/internal/benchmeta"
)

// TestBinaryIngestSteadyStateAllocs is the allocation budget of the binary
// ingest hot path: once the word-batch buffer and the tenant's window are
// warm, decoding a TOMOW1 body into the reused batch and appending it
// through Window.ObserveBatchWords must be garbage-free — O(1) allocations
// per batch means zero in the steady state, regardless of the batch's
// snapshot count. This is the serving-layer counterpart of the
// TestWindowedInferenceSteadyStateAllocs gate CI enforces. The 64-row arm
// posts batches into a 256-row window; the 2048-row arm has the ingest
// workload's batch shape, whose appends run the block-transposing column
// write across several 64-row blocks and four seals of the 4096-row
// window's 512-row chunks per batch.
func TestBinaryIngestSteadyStateAllocs(t *testing.T) {
	for _, arm := range []struct {
		name                     string
		batch, window, snapshots int
	}{
		{"batch64", 64, 256, 512},
		{"batch2048", 2048, 4096, 8192},
	} {
		t.Run(arm.name, func(t *testing.T) {
			checkBinaryIngestAllocs(t, arm.batch, arm.window, arm.snapshots)
		})
	}
}

func checkBinaryIngestAllocs(t *testing.T, batch, window, snapshots int) {
	scn, err := tomography.BuildScenario("quickstart", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := simulateScenario(scn, snapshots, 1)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := encodeStreamBinary(rec, batch)
	if err != nil {
		t.Fatal(err)
	}
	numPaths := scn.Topology.NumPaths()

	// A detector that never alarms, so the measurement sees only the
	// decode + append path and not change-point bookkeeping.
	win, err := tomography.NewWindow(scn.Topology, tomography.WindowConfig{
		Size:      window,
		Estimator: "correlation",
		Detector:  &tomography.ChangeDetector{Warmup: math.MaxInt32, Drift: 1, Threshold: 1e18, Smoothing: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()

	wb := getWordBatch()
	defer putWordBatch(wb)
	next := 0
	step := func() {
		body := bodies[next%len(bodies)]
		next++
		if err := decodeReportsBinaryInto(wb, body, numPaths, DefaultMaxBatch); err != nil {
			t.Fatal(err)
		}
		win.ObserveBatchWords(wb.words, wb.wordsPerRow, wb.rows)
	}
	// Warm-up: two full cycles through the stream fill the window past its
	// capacity and charge every congestion pattern the stream contains
	// into the live histogram, so the measured steady state sees no
	// first-time pattern insertions.
	for i := 0; i < 2*len(bodies); i++ {
		step()
	}
	if got := testing.AllocsPerRun(50, step); got > 0 {
		t.Fatalf("steady-state binary decode+append allocates %.2f objects/batch, want 0", got)
	}
}

// ingestHandlerAllocsPerPost is what one warm ingest POST allocates in
// TestIngestHandlerAllocsFlat, whatever its snapshot count. With the body
// buffer and the word batch pooled, what remains is fixed per request: the
// handler makes 6 (MaxBytesReader, the tenant query's parse, the reply's
// Content-Type header), the shard worker 2 (the published view box and its
// change channel), and the httptest request and recorder the other 20.
const ingestHandlerAllocsPerPost = 28

// TestIngestHandlerAllocsFlat is the handler-level allocation gate of the
// ingest path: a warm TOMOW1 POST through Handler().ServeHTTP, waited on
// until its view is published, must cost the same allocations and the
// same bytes at 64 rows as at 2048 rows. Reading each body into a fresh
// buffer (io.ReadAll) costs a copy of the body per post: that way the
// 2048-row arm allocated about 219 KB per post against 12 KB at 64 rows.
func TestIngestHandlerAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops put-back buffers at random under -race")
	}
	small := measureIngestHandler(t, 64)
	large := measureIngestHandler(t, 2048)
	t.Logf("per post: 64 rows %.0f allocs %.0f B; 2048 rows %.0f allocs %.0f B",
		small.allocs, small.bytes, large.allocs, large.bytes)
	if small.allocs != large.allocs {
		t.Errorf("allocs per post: %.0f at 64 rows, %.0f at 2048 rows, want equal", small.allocs, large.allocs)
	}
	if large.allocs > ingestHandlerAllocsPerPost {
		t.Errorf("allocs per post = %.0f, want at most %d", large.allocs, ingestHandlerAllocsPerPost)
	}
	// The slack absorbs the few bytes a size-dependent decimal
	// (the "accepted" count) or a runtime-internal allocation can add.
	const slack = 64
	if diff := math.Abs(large.bytes - small.bytes); diff > slack {
		t.Errorf("bytes per post: %.0f at 64 rows, %.0f at 2048 rows, want equal within %d",
			small.bytes, large.bytes, slack)
	}
}

// handlerCost is the mean allocation cost of one ingest POST.
type handlerCost struct{ allocs, bytes float64 }

// measureIngestHandler posts warm binary diurnal batches of the given
// row count through the daemon's handler and returns the mean allocations
// and bytes per post. Each post waits until the shard worker has applied
// the batch and published its view, so the queue never fills and the
// worker's share of the work is counted in the post that caused it. The
// figure is the least of three rounds, so a garbage collection that
// empties the pools in one round does not count as a per-post cost.
func measureIngestHandler(tb testing.TB, batch int) handlerCost {
	tb.Helper()
	const window, snapshots, posts = 4096, 8192, 200
	d := New(Config{Shards: 1, QueueDepth: 8})
	defer d.Shutdown(context.Background())
	scn, err := tomography.BuildScenario("diurnal", 1)
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := simulateScenario(scn, snapshots, 1)
	if err != nil {
		tb.Fatal(err)
	}
	bodies, err := encodeStreamBinary(rec, batch)
	if err != nil {
		tb.Fatal(err)
	}
	tn, err := d.Register(TenantConfig{
		Name: "flat", Scenario: "diurnal", Seed: 1, Window: window, Estimator: "correlation",
	})
	if err != nil {
		tb.Fatal(err)
	}
	h := d.Handler()
	next := 0
	post := func() {
		body := bodies[next%len(bodies)]
		next++
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest?tenant=flat", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentTypeBinary)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusAccepted {
			tb.Fatalf("ingest: status %d: %s", rw.Code, rw.Body)
		}
		for int64(tn.view.Load().seen) != tn.accepted.Load() {
			runtime.Gosched()
		}
	}
	// Warm-up: two passes over the stream fill the window, turn its chunks
	// over and charge every pattern the stream holds, as in
	// checkBinaryIngestAllocs, and fill the pools.
	for i := 0; i < 2*len(bodies); i++ {
		post()
	}
	best := handlerCost{allocs: math.Inf(1), bytes: math.Inf(1)}
	var before, after runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.GC()
		post() // refill the pools the collection moved aside
		runtime.ReadMemStats(&before)
		for i := 0; i < posts; i++ {
			post()
		}
		runtime.ReadMemStats(&after)
		best.allocs = math.Min(best.allocs, math.Floor(float64(after.Mallocs-before.Mallocs)/posts))
		best.bytes = math.Min(best.bytes, float64(after.TotalAlloc-before.TotalAlloc)/posts)
	}
	return best
}

// BenchmarkIngestHandler records TestIngestHandlerAllocsFlat's figures,
// the allocations and bytes of one warm ingest POST at 64 and at 2048
// diurnal rows, in BENCH_alloc.json at the module root. The gate itself
// only compares the two arms; this keeps their values with the machine
// they were measured on.
func BenchmarkIngestHandler(b *testing.B) {
	metrics := map[string]float64{}
	for _, batch := range []int{64, 2048} {
		var c handlerCost
		for i := 0; i < b.N; i++ {
			c = measureIngestHandler(b, batch)
		}
		metrics[fmt.Sprintf("batch%d-allocs/post", batch)] = c.allocs
		metrics[fmt.Sprintf("batch%d-bytes/post", batch)] = c.bytes
	}
	if err := benchmeta.WriteJSON(filepath.Join("..", "..", "BENCH_alloc.json"), "BenchmarkIngestHandler", metrics); err != nil {
		b.Fatal(err)
	}
}
