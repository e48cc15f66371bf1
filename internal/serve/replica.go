package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	tomography "repro"
)

// viewBox is one published read-replica view of a tenant's window plus the
// progress gauges frozen with it. The shard worker publishes a fresh box
// after every applied ingest batch (an atomic pointer swap on
// Tenant.view); estimate-pool workers acquire the latest box, run
// inference against its immutable view with their own workspace, and
// release it. The reader count arbitrates the view's storage between the
// publisher (which wants to recycle the previous view's buffers into the
// next one) and late readers (which must never have the view closed under
// them):
//
//   - acquire: CAS readers r → r+1 for r ≥ 0; fails once the box has been
//     claimed, which tells the reader to reload Tenant.view.
//   - claim: one-shot CAS 0 → −1. The publisher claims the box it retires —
//     success means no readers, so the view's buffers are recycled into the
//     next view; failure leaves the close to the last reader.
//   - release: decrement; the reader that hits 0 on a retired box claims
//     and closes the view (the publisher has already moved on).
//
// The gauges (seen, len, changePoints, published) are immutable once the
// box is stored, so the admin and metrics handlers read them from the
// latest box without acquiring it. They must never be read through view
// instead: a claimed view is recycled into the next box.
type viewBox struct {
	view         *tomography.WindowView
	seen         int // window's lifetime observation count at publish time
	len          int // window occupancy at publish time
	changePoints int // change-point alerts fired by publish time
	published    time.Time

	readers atomic.Int32  // active readers; −1 once claimed
	retired atomic.Bool   // a newer box has replaced this one
	changed chan struct{} // closed when a newer box is published
}

func (b *viewBox) acquire() bool {
	for {
		r := b.readers.Load()
		if r < 0 {
			return false
		}
		if b.readers.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

func (b *viewBox) claim() bool { return b.readers.CompareAndSwap(0, -1) }

func (b *viewBox) release() {
	if b.readers.Add(-1) == 0 && b.retired.Load() && b.claim() {
		b.view.Close()
	}
}

// publishView freezes the tenant's window into a new viewBox and swaps it
// in as the latest. Called by the tenant's shard worker after every applied
// batch, and once by Register before the tenant is visible, so warming
// tenants have a view to answer from. The previous box is retired, and its
// view either recycled into the new one (no readers) or closed by its last
// reader.
func (d *Daemon) publishView(t *Tenant) {
	old := t.view.Load()
	var recycle *tomography.WindowView
	if old != nil {
		old.retired.Store(true)
		if old.claim() {
			recycle = old.view
		}
	}
	v := t.win.View(recycle)
	box := &viewBox{
		view:         v,
		seen:         v.Seen(),
		len:          v.Len(),
		changePoints: v.ChangePoints(),
		published:    time.Now(),
		changed:      make(chan struct{}),
	}
	t.view.Store(box)
	if old != nil {
		close(old.changed)
	}
	d.metrics.viewsPublished.Add(1)
}

// estJob is one estimate request on the estimate pool's queue. target is
// the tenant's accepted-snapshot count at enqueue time: the worker serves
// the estimate from the first published view that has observed at least
// that many snapshots, so a client's estimate covers every batch it had
// ingested before asking.
type estJob struct {
	tenant   *Tenant
	target   int64
	enqueued time.Time
	ctx      context.Context
	done     chan estimateReply
}

type estimateReply struct {
	res *EstimateResponse
	err error
}

// estimateWorker drains the estimate queue until it closes (daemon
// shutdown). Each worker owns one evaluate workspace reused across every
// estimate it serves — the per-replica workspace of the read-replica
// design; the plan stays shared, the views are immutable, and the
// workspace is the only mutable state, so replicas scale without touching
// the ingest path.
func (d *Daemon) estimateWorker() {
	defer d.estWG.Done()
	ws := tomography.NewWorkspace()
	for j := range d.estQueue {
		res, err := d.estimateReplica(ws, j)
		d.metrics.estimateLatency.observe(time.Since(j.enqueued))
		j.done <- estimateReply{res: res, err: err}
	}
}

// estimateReplica serves one estimate from the tenant's latest read-replica
// view, waiting for a view that has observed the job's target snapshot
// count first. The wait can always make progress: every batch accepted
// before the job was enqueued is either applied and published or still in
// the shard queue, whose worker publishes after applying it — including
// during shutdown, where the shard workers drain before the estimate queue
// closes.
func (d *Daemon) estimateReplica(ws *tomography.Workspace, j estJob) (*EstimateResponse, error) {
	t := j.tenant
	for {
		box := t.view.Load()
		if int64(box.seen) < j.target {
			select {
			case <-box.changed:
			case <-j.ctx.Done():
				return nil, fmt.Errorf("serve: estimate %q: %w", t.name, j.ctx.Err())
			}
			continue
		}
		if !box.acquire() {
			continue // box recycled under us; a newer one is published
		}
		res, err := d.estimateBox(ws, t, box)
		box.release()
		return res, err
	}
}

// estimateBox runs the tenant's estimator against one view the caller
// holds: acquired by an estimate-pool worker, or owned outright by Shutdown
// once every worker has exited.
func (d *Daemon) estimateBox(ws *tomography.Workspace, t *Tenant, box *viewBox) (*EstimateResponse, error) {
	if box.len < t.window {
		d.metrics.estimateErrors.Add(1)
		return nil, errWindowWarming{msg: fmt.Sprintf(
			"serve: tenant %q window warming: %d/%d snapshots", t.name, box.len, t.window)}
	}
	res, err := box.view.EstimateIn(ws)
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
		WindowLen:      box.len,
		SnapshotsSeen:  box.seen,
		CongestionProb: probs,
		ChangePoints:   box.changePoints,
	}, nil
}
