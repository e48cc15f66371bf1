package serve

import (
	"fmt"
	"time"

	tomography "repro"
)

// job is one unit of work on a shard queue. Exactly one of the payload
// fields is set: batch applies a decoded ingest batch (pooled word rows,
// returned to the pool by the worker) to a tenant's window, block parks
// the worker until the channel closes (a test hook for deterministic
// backpressure scenarios). Estimates no longer ride the shard queue — they
// run on the estimate pool against published window views (see
// replica.go).
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

// shouldPublish decides whether the worker publishes a fresh view after
// the batch it just applied: always by default (PublishEveryBatches ≤ 1),
// otherwise once the tenant has accumulated PublishEveryBatches applied
// batches since its last view, or once that view is PublishMaxAge old.
func (d *Daemon) shouldPublish(t *Tenant) bool {
	if d.cfg.PublishEveryBatches <= 1 {
		return true
	}
	if t.pendingBatches >= d.cfg.PublishEveryBatches {
		return true
	}
	return d.cfg.PublishMaxAge > 0 && time.Since(t.lastPublished) >= d.cfg.PublishMaxAge
}

// worker drains one shard until its queue closes (daemon shutdown),
// publishing read-replica views per the publication policy (shouldPublish).
//
// dirty tracks tenants with applied-but-unpublished batches. The liveness
// invariant the estimate pool relies on — every accepted batch is
// eventually covered by a published view — must survive batched
// publication: a count/age threshold alone could leave tenant A's last
// batch unpublished forever while later queue traffic belongs to tenant B,
// deadlocking an estimate waiting on A's view. So whenever the queue is
// observed empty after a job, and again when the queue closes on shutdown,
// every dirty tenant is published. Under the default publish-per-batch
// policy dirty stays empty and behavior is unchanged.
func (d *Daemon) worker(s *shard) {
	defer d.wg.Done()
	dirty := make(map[*Tenant]struct{})
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
				t.changePoints.Add(int64(flagged))
				d.metrics.changePoints.Add(int64(flagged))
			}
			putWordBatch(j.batch)
			t.syncStats()
			d.metrics.ingestSnapshots.Add(int64(rows))
			t.pendingBatches++
			if d.shouldPublish(t) {
				d.publishView(t)
				delete(dirty, t)
			} else {
				dirty[t] = struct{}{}
			}
		}
		if len(dirty) > 0 && len(s.queue) == 0 {
			for t := range dirty {
				d.publishView(t)
				delete(dirty, t)
			}
		}
	}
	for t := range dirty {
		d.publishView(t)
	}
}

// errWindowWarming marks an estimate requested before the tenant's window
// filled; the HTTP layer maps it to 425 Too Early.
type errWindowWarming struct{ msg string }

func (e errWindowWarming) Error() string { return e.msg }

// estimateTenant runs the tenant's configured estimator over its current
// window on the worker's workspace, detaching the response from the
// workspace before it escapes. Called only with exclusive ownership of the
// tenant's window (by its shard worker, or by Shutdown after all workers
// exited).
func (d *Daemon) estimateTenant(ws *tomography.Workspace, t *Tenant) (*EstimateResponse, error) {
	if t.win.Len() < t.window {
		d.metrics.estimateErrors.Add(1)
		return nil, errWindowWarming{msg: fmt.Sprintf(
			"serve: tenant %q window warming: %d/%d snapshots", t.name, t.win.Len(), t.window)}
	}
	res, err := tomography.EstimateIn(ws, t.estimator, t.win.Plan(), t.win.Source(), t.opts)
	if err != nil {
		d.metrics.estimateErrors.Add(1)
		return nil, err
	}
	probs := make([]float64, len(res.CongestionProb))
	copy(probs, res.CongestionProb)
	t.estimates.Add(1)
	d.metrics.estimates.Add(1)
	return &EstimateResponse{
		Tenant:         t.name,
		Estimator:      t.estimator,
		WindowSize:     t.window,
		WindowLen:      t.win.Len(),
		SnapshotsSeen:  t.win.Seen(),
		CongestionProb: probs,
		ChangePoints:   len(t.win.ChangePoints()),
	}, nil
}
