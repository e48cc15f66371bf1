package serve

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// metrics is the daemon's process-wide instrumentation: lock-free atomic
// counters plus an exponential-bucket latency histogram, rendered in the
// Prometheus text exposition format by /metrics. No external dependency:
// the container bakes in only the Go toolchain, and counters plus a fixed
// histogram are all the serving loop needs.
type metrics struct {
	ingestBatches   atomic.Int64 // accepted ingest POSTs
	ingestSnapshots atomic.Int64 // snapshots applied to tenant windows
	ingestRejected  atomic.Int64 // 429 backpressure rejections
	ingestInvalid   atomic.Int64 // 4xx malformed/mismatched batches

	// Per-wire-format splits of the accepted traffic, so the payoff of
	// switching probes to the binary format shows up on /metrics.
	ingestBatchesJSON   atomic.Int64 // accepted batches, JSON wire format
	ingestBatchesBinary atomic.Int64 // accepted batches, TOMOW1 binary wire format
	ingestBytesJSON     atomic.Int64 // accepted request-body bytes, JSON
	ingestBytesBinary   atomic.Int64 // accepted request-body bytes, binary
	estimates           atomic.Int64 // estimates served
	estimateErrors      atomic.Int64 // estimate requests that failed (incl. warming)
	changePoints        atomic.Int64 // CUSUM change-point alerts across tenants
	viewsPublished      atomic.Int64 // window views published to estimate replicas
	estimateLatency     histogram    // enqueue-to-reply estimate latency
}

// latencyBuckets is the number of exponential histogram buckets. Bucket 0
// holds sub-microsecond observations (a measured 0µs); bucket b ≥ 1 holds
// (2^(b-2), 2^(b-1)] microseconds — (0,1], (1,2], (2,4], … — and the last
// bucket catches everything past 2^24µs (~16.8s).
const latencyBuckets = 27

// histogram is a fixed exponential-bucket latency histogram. observe is
// wait-free; readers tolerate torn cross-bucket views (metrics scrapes are
// advisory, the serving loop never blocks on them).
type histogram struct {
	buckets [latencyBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// bucketOf maps a microsecond latency to its histogram bucket under the
// bounds documented on latencyBuckets. Sub-microsecond observations get
// their own bucket 0 instead of being lumped into (0,1].
func bucketOf(us int64) int {
	if us <= 0 {
		return 0
	}
	b := 1
	for b < latencyBuckets-1 && us > int64(1)<<uint(b-1) {
		b++
	}
	return b
}

// bucketBound returns the inclusive upper bound of a bucket (a saturated
// ceiling for the open-ended last bucket).
func bucketBound(b int) time.Duration {
	if b == 0 {
		return 0
	}
	return time.Duration(int64(1)<<uint(b-1)) * time.Microsecond
}

func (h *histogram) observe(d time.Duration) {
	h.buckets[bucketOf(d.Microseconds())].Add(1)
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// quantile returns the upper bound of the bucket containing the q-th
// quantile (0 when the histogram is empty).
func (h *histogram) quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b := 0; b < latencyBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum >= rank {
			return bucketBound(b)
		}
	}
	return bucketBound(latencyBuckets - 1)
}

// tenantStats is the per-tenant slice of /metrics, filled from the gauges
// frozen in each tenant's latest published view box.
type tenantStats struct {
	name      string
	seen      int64
	occupancy int64
	changes   int64
	// viewAge is how long ago the tenant's current read-replica view was
	// published; viewLag is how many accepted snapshots that view has not
	// yet observed (accepted − view seen).
	viewAge time.Duration
	viewLag int64
}

// writeTo renders the metrics in the Prometheus text format. queueLens
// carries the instantaneous per-shard queue depths, estQueueLen the
// estimate pool's queue depth.
func (m *metrics) writeTo(w io.Writer, tenants []tenantStats, queueLens []int, estQueueLen int) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("tomod_ingest_batches_total", "Accepted probe-report batches.", m.ingestBatches.Load())
	counter("tomod_ingest_snapshots_total", "Snapshots applied to tenant windows.", m.ingestSnapshots.Load())
	counter("tomod_ingest_rejected_total", "Batches rejected with 429 backpressure.", m.ingestRejected.Load())
	counter("tomod_ingest_invalid_total", "Batches rejected as malformed or mismatched (4xx).", m.ingestInvalid.Load())
	counter("tomod_ingest_batches_json_total", "Accepted batches carried on the JSON wire format.", m.ingestBatchesJSON.Load())
	counter("tomod_ingest_batches_binary_total", "Accepted batches carried on the TOMOW1 binary wire format.", m.ingestBatchesBinary.Load())
	counter("tomod_ingest_bytes_json_total", "Accepted request-body bytes on the JSON wire format.", m.ingestBytesJSON.Load())
	counter("tomod_ingest_bytes_binary_total", "Accepted request-body bytes on the TOMOW1 binary wire format.", m.ingestBytesBinary.Load())
	counter("tomod_estimates_total", "Estimates served.", m.estimates.Load())
	counter("tomod_estimate_errors_total", "Estimate requests that failed (including window warm-up).", m.estimateErrors.Load())
	counter("tomod_change_points_total", "CUSUM change-point alerts across all tenants.", m.changePoints.Load())
	counter("tomod_views_published_total", "Window views published to the estimate replicas.", m.viewsPublished.Load())

	fmt.Fprintf(w, "# HELP tomod_estimate_latency_seconds Enqueue-to-reply estimate latency.\n")
	fmt.Fprintf(w, "# TYPE tomod_estimate_latency_seconds summary\n")
	for _, q := range []float64{0.5, 0.9, 0.99} {
		fmt.Fprintf(w, "tomod_estimate_latency_seconds{quantile=%q} %g\n", fmt.Sprintf("%g", q), m.estimateLatency.quantile(q).Seconds())
	}
	fmt.Fprintf(w, "tomod_estimate_latency_seconds_sum %g\n", float64(m.estimateLatency.sumNs.Load())/1e9)
	fmt.Fprintf(w, "tomod_estimate_latency_seconds_count %d\n", m.estimateLatency.count.Load())

	fmt.Fprintf(w, "# HELP tomod_window_occupancy Snapshots currently retained in each tenant's window.\n")
	fmt.Fprintf(w, "# TYPE tomod_window_occupancy gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "tomod_window_occupancy{tenant=%q} %d\n", t.name, t.occupancy)
	}
	fmt.Fprintf(w, "# HELP tomod_snapshots_seen Total snapshots observed by each tenant.\n")
	fmt.Fprintf(w, "# TYPE tomod_snapshots_seen counter\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "tomod_snapshots_seen{tenant=%q} %d\n", t.name, t.seen)
	}
	fmt.Fprintf(w, "# HELP tomod_tenant_change_points CUSUM change-point alerts fired per tenant.\n")
	fmt.Fprintf(w, "# TYPE tomod_tenant_change_points counter\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "tomod_tenant_change_points{tenant=%q} %d\n", t.name, t.changes)
	}
	fmt.Fprintf(w, "# HELP tomod_view_age_seconds Age of each tenant's published read-replica view.\n")
	fmt.Fprintf(w, "# TYPE tomod_view_age_seconds gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "tomod_view_age_seconds{tenant=%q} %g\n", t.name, t.viewAge.Seconds())
	}
	fmt.Fprintf(w, "# HELP tomod_replica_lag_snapshots Accepted snapshots each tenant's view has not yet observed.\n")
	fmt.Fprintf(w, "# TYPE tomod_replica_lag_snapshots gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "tomod_replica_lag_snapshots{tenant=%q} %d\n", t.name, t.viewLag)
	}
	fmt.Fprintf(w, "# HELP tomod_shard_queue_depth Jobs waiting in each shard's ingest queue.\n")
	fmt.Fprintf(w, "# TYPE tomod_shard_queue_depth gauge\n")
	for i, n := range queueLens {
		fmt.Fprintf(w, "tomod_shard_queue_depth{shard=\"%d\"} %d\n", i, n)
	}
	fmt.Fprintf(w, "# HELP tomod_estimate_queue_depth Estimate requests waiting for a replica worker.\n")
	fmt.Fprintf(w, "# TYPE tomod_estimate_queue_depth gauge\n")
	fmt.Fprintf(w, "tomod_estimate_queue_depth %d\n", estQueueLen)
}
