package serve

// job is one unit of work on a shard queue. Exactly one of the payload
// fields is set: batch applies a decoded ingest batch (pooled word rows,
// returned to the pool by the worker) to a tenant's window, block parks
// the worker until the channel closes (a test hook for deterministic
// backpressure scenarios). Estimates never ride the shard queue: they run
// on the estimate pool against published window views (see replica.go).
type job struct {
	tenant *Tenant
	batch  *wordBatch
	block  <-chan struct{}
}

// shard is one serving partition: a bounded job queue drained by a single
// worker goroutine. Every tenant maps to exactly one shard, so the worker
// is the sole writer of its tenants' windows — appends to the columnar
// window stores proceed without locks, and per-tenant ingest batches are
// totally ordered by queue position.
type shard struct {
	queue chan job
}

// worker drains one shard until its queue closes (daemon shutdown). After
// every applied batch it publishes a fresh read-replica view of the
// tenant's window, so every accepted batch is covered by a published view
// as soon as it is applied — the liveness bound the estimate pool's
// read-your-accepted-writes wait relies on.
func (d *Daemon) worker(s *shard) {
	defer d.wg.Done()
	for j := range s.queue {
		switch {
		case j.block != nil:
			<-j.block
		case j.batch != nil:
			t := j.tenant
			rows := j.batch.rows
			// Batched window maintenance: one blocked eviction pass and one
			// cache reset for the whole ingest batch instead of per report.
			if flagged := t.win.ObserveBatchWords(j.batch.words, j.batch.wordsPerRow, rows); flagged > 0 {
				d.metrics.changePoints.Add(int64(flagged))
			}
			putWordBatch(j.batch)
			d.metrics.ingestSnapshots.Add(int64(rows))
			d.publishView(t)
		}
	}
}

// errWindowWarming marks an estimate requested before the tenant's window
// filled; the HTTP layer maps it to 425 Too Early.
type errWindowWarming struct{ msg string }

func (e errWindowWarming) Error() string { return e.msg }
