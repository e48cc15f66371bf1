package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	tomography "repro"
	"repro/internal/serve"
)

// daemonPlan is one daemon workload's per-tenant traffic, replayed by the
// traced run through the daemon's Go API for a single tenant. What the
// shard worker does with each batch — ObserveBatchWords and a view publish
// — is reproduced on a shadow window fed the same word batches, and each
// estimate is decomposed on a fresh view of the shadow.
type daemonPlan struct {
	root      string // root span prefix
	binary    bool   // wire format of the timed batches
	batch     int    // snapshots per timed batch
	window    int
	estimator string
	spill     bool
	fillBatch int // snapshots per (binary) fill batch
	every     int // timed batches per estimate
}

// burstEvery and burstLen set the HTTP sample: every burstEvery timed
// batches, burstLen batches go back to back over loopback HTTP and then
// burstLen back to back through the Go API, so the HTTP layer's cost is the
// difference of their medians. Back to back matters: a lone request on an
// idle connection also pays for waking an idle vCPU, which the workload's
// continuous traffic does not.
const (
	burstEvery = 64
	burstLen   = 8
)

// wireFor names a wire format and gives its Content-Type.
func wireFor(binary bool) (name, contentType string) {
	if binary {
		return "binary", serve.ContentTypeBinary
	}
	return "json", serve.ContentTypeJSON
}

// traceDaemon runs pl on s until d has passed, at least minEstimates
// estimates were traced and three HTTP bursts sent, and reports every layer
// metric it measured that no earlier phase of r reported.
func traceDaemon(r *run, rec *recorder, s *stream, pl daemonPlan, d time.Duration, minEstimates int) error {
	cfg := serve.Config{Shards: 1}
	shadowCfg := tomography.WindowConfig{Size: pl.window, Estimator: pl.estimator}
	if pl.spill {
		cfg.SpillDir = filepath.Join(r.workdir, "trace-spill-"+pl.root)
		shadowCfg.Spill = &tomography.SpillConfig{Dir: filepath.Join(r.workdir, "trace-shadow-"+pl.root), Reset: true}
	}
	h, err := startDaemon(cfg)
	if err != nil {
		return err
	}
	defer h.stop()
	c := newClient(h.base)
	defer c.close()
	const tenant = "t0"
	if err := c.register(serve.TenantConfig{Name: tenant, Scenario: s.scenario, Seed: s.seed, Window: pl.window, Estimator: pl.estimator}); err != nil {
		return err
	}
	shadow, err := tomography.NewWindow(s.top, shadowCfg)
	if err != nil {
		return err
	}
	defer shadow.Close()
	est, err := newEstimatorTrace(pl.estimator, s.top)
	if err != nil {
		return err
	}
	ws := tomography.NewWorkspace()
	sealed := func() int {
		if st := shadow.Source().SpillStore(); st != nil {
			return st.SealedSegments()
		}
		return 0
	}

	var words []uint64
	var view *tomography.WindowView
	defer func() {
		if view != nil {
			view.Close()
		}
	}()
	var sealIDs []int32
	pos := 0
	// send delivers one batch to the daemon in a span, over loopback HTTP
	// or through the Go API.
	send := func(body []byte, binary, viaHTTP bool) error {
		var err error
		wire, ct := wireFor(binary)
		if viaHTTP {
			id := rec.begin(spanHTTPPost)
			_, err = c.post(tenant, body, ct)
			rec.end(id)
		} else {
			id := rec.begin("serve.ingest_wire." + wire)
			_, err = h.d.IngestWire(tenant, body, ct)
			rec.end(id)
		}
		return err
	}
	// apply does to the shadow what the shard worker does with a batch:
	// observe its words and publish a view.
	apply := func(words []uint64, n int) {
		before := sealed()
		id := rec.begin(spanObserveWords)
		shadow.ObserveBatchWords(words, s.wpr, n)
		rec.end(id)
		if sealed() > before {
			sealIDs = append(sealIDs, id)
		}
		id = rec.begin(spanView)
		if view != nil {
			view.Close()
		}
		view = shadow.View(view)
		rec.end(id)
		pos += n
	}
	// Bodies and word rows are prepared before each operation's span
	// opens: they are the client's work, not a layer's.
	batch := func(root string, n int, binary bool) error {
		body, err := s.body(pos, n, binary)
		if err != nil {
			return err
		}
		words = s.batchWords(pos, n, words)
		op := rec.op(root)
		err = send(body, binary, false)
		apply(words, n)
		rec.end(op)
		return err
	}
	bodies := make([][]byte, 2*burstLen)
	burstWords := make([][]uint64, 2*burstLen)
	burst := func() error {
		for i := range bodies {
			var err error
			if bodies[i], err = s.body(pos+i*pl.batch, pl.batch, pl.binary); err != nil {
				return err
			}
			burstWords[i] = s.batchWords(pos+i*pl.batch, pl.batch, burstWords[i])
		}
		op := rec.op(pl.root + ":burst")
		for i, body := range bodies {
			r.ops.note(send(body, pl.binary, i < burstLen))
		}
		for _, w := range burstWords {
			apply(w, pl.batch)
		}
		rec.end(op)
		return nil
	}

	// Fill the window; these batches are traced under their own root so
	// the seals they cause count, but not their batch sizes.
	for pos < pl.window {
		if err := batch(pl.root+":fill", pl.fillBatch, true); err != nil {
			return fmt.Errorf("trace fill: %w", err)
		}
	}
	ctx := context.Background()
	if _, err := h.d.Estimate(ctx, tenant); err != nil {
		return fmt.Errorf("trace warm-up estimate: %w", err)
	}
	if _, err := view.EstimateIn(ws); err != nil {
		return err
	}
	m0, err := h.scrape()
	if err != nil {
		return err
	}
	var lagMax, queueMax float64
	settle()
	g0 := readGoStats()
	start := time.Now()
	var final []float64
	nb, ne := 0, 0
	for ne < minEstimates || nb < 3*burstEvery || time.Since(start) < d {
		if nb%burstEvery == 0 {
			if err := burst(); err != nil {
				return err
			}
			nb += 2 * burstLen
		}
		r.ops.note(batch(pl.root+":post", pl.batch, pl.binary))
		nb++
		if nb%16 == 0 {
			m, err := h.scrape()
			if err != nil {
				return err
			}
			lagMax = max(lagMax, maxPrefix(m, "tomod_replica_lag_snapshots"))
			queueMax = max(queueMax, maxPrefix(m, "tomod_shard_queue_depth"))
		}
		if nb%pl.every != 0 {
			continue
		}
		op := rec.op(pl.root + ":estimate")
		id := rec.begin(spanDaemonEst)
		resp, err := h.d.Estimate(ctx, tenant)
		rec.end(id)
		id = rec.begin(spanEstimateIn)
		res, err2 := view.EstimateIn(ws)
		rec.end(id)
		id = rec.begin(spanShadowView)
		fresh := shadow.View(nil)
		rec.end(id)
		probs, err3 := est.estimate(rec, fresh.Source())
		fresh.Close()
		rec.end(op)
		ne++
		if err == nil {
			err = err2
		}
		if err == nil {
			err = err3
		}
		if err == nil {
			err = inUnit(resp.CongestionProb)
		}
		if err == nil {
			err = sameBits(res.CongestionProb, resp.CongestionProb)
		}
		if err == nil {
			err = sameBits(probs, resp.CongestionProb)
		}
		if r.ops.note(err) {
			final = append(final[:0], resp.CongestionProb...)
		}
	}
	setGoStats(r, g0, nb*pl.batch)
	m1, err := h.scrape()
	if err != nil {
		return err
	}
	if err := checkFinal(s, pos, pl.window, pl.estimator, final); err != nil {
		r.fail("%s traced final estimate: %v", pl.root, err)
	}

	spans := rec.spans
	post := pl.root + ":post"
	wire, _ := wireFor(pl.binary)
	perSnap := 1000 / float64(pl.batch)
	metrics := []struct {
		name  string
		l     latencies
		scale float64
	}{
		{"serve.ingest_wire." + wire + ".us_per_snap", spanDurs(spans, post, "serve.ingest_wire."+wire), perSnap},
		{"serve.estimate.ms_p50", durations(spans, spanDaemonEst), 1},
		{"serve.estimate.wait_ms_p50", derived(spans, spanDaemonEst, spanEstimateIn), 1},
		{"window.observe_batch_words.us_per_snap", spanDurs(spans, post, spanObserveWords), perSnap},
		{"window.view.ms_p50", spanDurs(spans, post, spanView), 1},
		{"window.estimate_in.ms_p50", durations(spans, spanEstimateIn), 1},
	}
	for _, m := range metrics {
		if err := setP50(r, m.name, m.l, m.scale); err != nil {
			return err
		}
	}
	if _, ok := r.metrics["http.overhead_ms_p50"]; !ok {
		viaHTTP, err := spanDurs(spans, pl.root+":burst", spanHTTPPost).p50()
		if err != nil {
			return fmt.Errorf("http.overhead_ms_p50: %w", err)
		}
		direct, err := spanDurs(spans, pl.root+":burst", "serve.ingest_wire."+wire).p50()
		if err != nil {
			return err
		}
		r.set("http.overhead_ms_p50", viaHTTP-direct)
	}
	batches := sumPrefix(m1, "tomod_ingest_batches_total") - sumPrefix(m0, "tomod_ingest_batches_total")
	views := sumPrefix(m1, "tomod_views_published_total") - sumPrefix(m0, "tomod_views_published_total")
	if batches > 0 {
		r.setDefault("serve.views_per_batch", views/batches)
	}
	r.setDefault("serve.replica_lag_max", lagMax)
	r.setDefault("serve.queue_depth_max", queueMax)
	r.setDefault("serve.refused", sumPrefix(m1, "tomod_ingest_rejected_total"))

	switch et := est.(type) {
	case *linearTrace:
		if err := setLinearMetrics(r, spans, pl.root+":estimate", et); err != nil {
			return err
		}
	case *mleTrace:
		if err := setP50(r, "measure.prime_pairs.ms_p50", durations(spans, spanPrime), 1); err != nil {
			return err
		}
		r.setDefault("measure.prime_pairs.pairs", float64(et.pairs))
		if err := setP50(r, "mle.estimate_in.ms_p50", durations(spans, spanMLE), 1); err != nil {
			return err
		}
		if err := setP50(r, "mle.iters_p50", et.iters, 1); err != nil {
			return err
		}
	}
	if st := shadow.Source().SpillStore(); st != nil {
		var seals latencies
		for _, id := range sealIDs {
			seals = append(seals, float64(spans[id].dur())/1e6)
		}
		if err := setP50(r, "segstore.seal_batch.ms_p50", seals, 1); err != nil {
			return err
		}
		r.setDefault("segstore.sealed_segments", float64(st.SealedSegments()))
		r.setDefault("segstore.spilled_mb", float64(st.SpilledBytes())/(1<<20))
	}
	return nil
}
