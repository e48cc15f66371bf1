package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// unattributedTolerance is how much of a traced operation's wall time may
// fall outside every layer span (the benchmark's own glue) before the
// traced run is refused: beyond it the layer self times no longer account
// for the operation.
const unattributedTolerance = 0.05

// A traced run has three parts. First an untraced timed phase of the
// workload itself, the baseline for the tracing overhead. Then the
// primary: the workload's inputs replayed through the layers' public calls
// inside spans, which gives the layer shares, the accounting check and
// the workload's own layer metrics. Last, short replays of the same feed
// through the other two workloads' call sequences, so that every traced
// run reports every layer; a metric the primary measured is never
// replaced.

func traceReplay(r *run) error {
	p, err := setupReplay(r)
	if err != nil {
		return err
	}
	defer p.win.Close()
	if err := replayPhase(r, p, r.seconds/2); err != nil {
		return err
	}
	rec := newRecorder(true)
	if err := tracedReplay(r, rec, p, r.seconds/2, 100); err != nil {
		return err
	}
	// The traced checkpoints run once each, so their baseline is the raw
	// median, not the fastest-repeat one.
	finishPrimary(r, rec, "replay:checkpoint", r.notes["raw_checkpoint_p50_ms"].(float64), replayShares(rec.spans))
	recs := map[string]*recorder{"replay": rec}
	for _, pl := range []daemonPlan{ingestPlan, servePlan} {
		recs[pl.root] = newRecorder(true)
		if err := traceDaemon(r, recs[pl.root], p.s, pl, 0, 20); err != nil {
			return fmt.Errorf("%s layers on the replay feed: %w", pl.root, err)
		}
	}
	return finishTrace(r, p.s, recs)
}

func traceIngest(r *run) error {
	s, bodies, err := ingestInputs(r)
	if err != nil {
		return err
	}
	g, err := setupRig(r, s, ingestConfig(), ingestPlan, ingestTenants, 1, bodies, nil)
	if err != nil {
		return err
	}
	if err := ingestPhase(r, g, s, bodies, r.seconds/2); err != nil {
		g.stop()
		return err
	}
	if err := g.stop(); err != nil {
		return err
	}
	rec := newRecorder(true)
	if err := traceDaemon(r, rec, s, ingestPlan, r.seconds/2, 20); err != nil {
		return err
	}
	finishPrimary(r, rec, "ingest:post", r.metrics["post_p50_ms"], ingestShares(rec.spans))
	recs := map[string]*recorder{"ingest": rec, "replay": newRecorder(true), "serve": newRecorder(true)}
	if err := shortReplay(r, recs["replay"], s); err != nil {
		return err
	}
	if err := traceDaemon(r, recs["serve"], s, servePlan, 0, 20); err != nil {
		return fmt.Errorf("serve layers on the ingest feed: %w", err)
	}
	return finishTrace(r, s, recs)
}

func traceServe(r *run) error {
	s, fill, batches, err := serveInputs(r)
	if err != nil {
		return err
	}
	g, err := setupServe(r, s, fill)
	if err != nil {
		return err
	}
	if err := servePhase(r, g, s, batches, r.seconds/2); err != nil {
		g.stop()
		return err
	}
	if err := g.stop(); err != nil {
		return err
	}
	r.setDefault("gen.lateness_p90_ms", p90Of(r.lateness))
	rec := newRecorder(true)
	if err := traceDaemon(r, rec, s, servePlan, r.seconds/2, 20); err != nil {
		return err
	}
	finishPrimary(r, rec, "serve:estimate", r.metrics["estimate_p50_ms"], serveShares(rec.spans))
	recs := map[string]*recorder{"serve": rec, "replay": newRecorder(true), "ingest": newRecorder(true)}
	if err := shortReplay(r, recs["replay"], s); err != nil {
		return err
	}
	if err := traceDaemon(r, recs["ingest"], s, ingestPlan, 0, 20); err != nil {
		return fmt.Errorf("ingest layers on the serve feed: %w", err)
	}
	return finishTrace(r, s, recs)
}

// shortReplay runs 30 traced replay checkpoints over another workload's
// feed.
func shortReplay(r *run, rec *recorder, s *stream) error {
	p, err := replayOver(s)
	if err != nil {
		return err
	}
	defer p.win.Close()
	return tracedReplay(r, rec, p, 0, 30)
}

func p90Of(l latencies) float64 {
	_, p90, err := l.p50p90()
	if err != nil {
		return 0
	}
	return p90
}

// shares is a workload's layer breakdown: each layer's share of the
// workload's traced time, and whether the prediction written down for it
// held.
type shares struct {
	Prediction string             `json:"prediction"`
	Held       bool               `json:"held"`
	Shares     map[string]float64 `json:"shares"`
}

// replayShares: the solve should take at least 80 % of a checkpoint.
func replayShares(spans []span) shares {
	const root = "replay:checkpoint"
	var total int64
	for _, s := range spans {
		if s.Parent < 0 && s.Name == root {
			total += s.dur()
		}
	}
	prime := sumDur(spans, root, spanPrime)
	solve := sumDur(spans, root, spanRun) - sumDur(spans, root, spanEvalPrimed)
	sh := map[string]float64{
		"window.observe":      frac(sumDur(spans, root, spanObserve), total),
		"measure.prime_pairs": frac(prime, total),
		"core.evaluate_in":    frac(sumDur(spans, root, spanEvaluate)-prime, total),
		"core.solve":          frac(solve, total),
	}
	return shares{Prediction: "core.solve >= 80% of a replay checkpoint", Held: sh["core.solve"] >= 0.80, Shares: sh}
}

// ingestShares: ingest time is the daemon's batches plus its estimates.
// Every batch of the workload travels over HTTP; the traced batches mostly
// do not, so the HTTP layer is charged per batch from the bursts. Per-batch
// layers are charged their median per batch (a GC pause or a host stall
// lands in whichever span is open), estimates their sum. The observe and
// view calls should lead, and the solve should stay under 15 %.
func ingestShares(spans []span) shares {
	const post, burst, est = "ingest:post", "ingest:burst", "ingest:estimate"
	p50 := func(root, name string) float64 {
		v, _ := spanDurs(spans, root, name).p50()
		return v * 1e6
	}
	batches := float64(len(spanDurs(spans, post, spanObserveWords)) + len(spanDurs(spans, burst, spanObserveWords)))
	decode := p50(post, "serve.ingest_wire.binary")
	httpOver := p50(burst, spanHTTPPost) - p50(burst, "serve.ingest_wire.binary")
	obsView := p50(post, spanObserveWords) + p50(post, spanView)
	daemonEst := sumDur(spans, est, spanDaemonEst)
	estIn := sumDur(spans, est, spanEstimateIn)
	total := int64(batches*(decode+httpOver+obsView)) + daemonEst
	sh := map[string]float64{
		"http.overhead":                          frac(int64(batches*httpOver), total),
		"serve.ingest_wire.binary":               frac(int64(batches*decode), total),
		"window.observe_batch_words+window.view": frac(int64(batches*obsView), total),
		"serve.estimate.wait":                    frac(daemonEst-estIn, total),
		"window.estimate_in":                     frac(estIn, total),
		"core.solve":                             frac(sumDur(spans, est, spanRun)-sumDur(spans, est, spanEvalPrimed), total),
	}
	lead := sh["window.observe_batch_words+window.view"]
	held := sh["core.solve"] < 0.15
	for name, v := range sh {
		if name != "window.observe_batch_words+window.view" && name != "core.solve" && v >= lead {
			held = false
		}
	}
	return shares{Prediction: "window.observe_batch_words+window.view lead ingest; core.solve < 15%", Held: held, Shares: sh}
}

// serveShares splits the daemon's estimate call with the shadow's nested
// calls: the view wait, the facade around the estimator, the mle optimizer
// and the pair count. The optimizer should lead.
func serveShares(spans []span) shares {
	const est = "serve:estimate"
	daemonEst := sumDur(spans, est, spanDaemonEst)
	estIn := sumDur(spans, est, spanEstimateIn)
	mleIn := sumDur(spans, est, spanMLE)
	prime := sumDur(spans, est, spanPrime)
	sh := map[string]float64{
		"serve.estimate.wait": frac(daemonEst-estIn, daemonEst),
		"window.estimate_in":  frac(estIn-mleIn, daemonEst),
		"mle.estimate_in":     frac(mleIn-prime, daemonEst),
		"measure.prime_pairs": frac(prime, daemonEst),
	}
	m := sh["mle.estimate_in"]
	held := m > sh["serve.estimate.wait"] && m > sh["window.estimate_in"] && m > sh["measure.prime_pairs"]
	return shares{Prediction: "mle.estimate_in leads serve estimates", Held: held, Shares: sh}
}

func frac(a, b int64) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// finishPrimary reports the primary's accounting, layer shares and tracing
// overhead. headline is the root span whose median is compared with the
// untraced phase's median of the same operation.
func finishPrimary(r *run, rec *recorder, headline string, untracedP50 float64, sh shares) {
	self := selfTimes(rec.spans)
	var glue, wall int64
	for i, s := range rec.spans {
		if s.Parent < 0 {
			glue += self[i]
			wall += s.dur()
		}
	}
	un := frac(glue, wall)
	r.set("trace.unattributed_pct", 100*un)
	if un > unattributedTolerance {
		r.fail("layer spans leave %.1f%% of traced operation time unattributed (tolerance %.0f%%)", 100*un, 100*unattributedTolerance)
	}
	perOp := map[string]any{}
	for _, root := range []string{"replay:checkpoint", "ingest:post", "ingest:burst", "ingest:estimate", "serve:post", "serve:burst", "serve:estimate"} {
		byName, w, n := breakdown(rec.spans, self, root)
		if n == 0 {
			continue
		}
		fr := map[string]float64{}
		for name, t := range byName {
			fr[name] = frac(t, w)
		}
		perOp[root] = map[string]any{"ops": n, "wall_ms_per_op": float64(w) / 1e6 / float64(n), "self_share": fr}
	}
	r.note("self_time", perOp)
	r.note("layer_shares", sh)
	if tracedP50, err := durations(rec.spans, headline).p50(); err == nil && untracedP50 > 0 {
		r.set("trace.overhead_pct", 100*(tracedP50-untracedP50)/untracedP50)
		r.note("trace_overhead", map[string]float64{"traced_" + headline + "_p50_ms": tracedP50, "untraced_p50_ms": untracedP50})
	}
	r.setDefault("gen.lateness_p90_ms", p90Of(r.lateness))
}

// finishTrace reports the set-up layers and writes every span out.
func finishTrace(r *run, s *stream, recs map[string]*recorder) error {
	r.set("scenario.build.ms", ms(s.buildDur))
	r.set("netsim.simulate.us_per_snap", float64(s.simDur)/float64(time.Microsecond)/float64(s.rows))
	c, err := compileMs(s.top)
	if err != nil {
		return err
	}
	r.set("plan.compile.ms", c)
	files := map[string]string{}
	for name, rec := range recs {
		path := filepath.Join(r.outdir, fmt.Sprintf("spans-%s-seed%d-%s.jsonl", r.workload, r.seed, name))
		if err := writeSpans(path, rec.spans); err != nil {
			return err
		}
		files[name] = path
	}
	r.note("span_files", files)
	return nil
}
