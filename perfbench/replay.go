package main

import (
	"fmt"
	"math"
	"time"

	tomography "repro"
	"repro/internal/bitset"
)

// replayWhy: the offline path, solve-heavy. Each checkpoint is 64 per-row
// Window.Observe calls (the only workload on the Empirical.Append path)
// and one correlation estimate whose L1 LP solve takes ~10 ms against
// ~0.1 ms for the observes, so the solve layer dominates it.
const replayWhy = "offline path, solve-heavy: the L1 LP solve dominates each checkpoint; only workload on the per-row Observe append path"

const (
	replayWindow = 2048
	replayStride = 64
	// replayRows is simulated afresh by every set-up and replayed
	// cyclically by the timed phase: 512 distinct checkpoints, ~30 bursts
	// of each congestion group, so runs on different seeds see alike
	// solves, and a pass short enough to repeat five times a run.
	replayRows   = 1 << 15
	replaySetups = 5
	replayWarmup = 16
)

// replayer drives a diurnal feed row by row through a RAM window.
type replayer struct {
	s   *stream
	win *tomography.Window
	row *bitset.Set
	pos int
}

// newReplayer is the offline path's whole set-up: scenario build,
// simulation, window creation, the window fill, and the first estimate,
// which compiles the window's lazy plan.
func newReplayer(seed int64) (*replayer, error) {
	s, err := newStream("diurnal", seed, replayRows)
	if err != nil {
		return nil, err
	}
	p, err := replayOver(s)
	if err != nil {
		return nil, err
	}
	win := p.win
	res, err := win.EstimateShared()
	if err != nil {
		win.Close()
		return nil, err
	}
	if err := inUnit(res.CongestionProb); err != nil {
		win.Close()
		return nil, err
	}
	return p, nil
}

// replayOver opens a replay window over s and fills it.
func replayOver(s *stream) (*replayer, error) {
	win, err := tomography.NewWindow(s.top, tomography.WindowConfig{Size: replayWindow, Estimator: "correlation"})
	if err != nil {
		return nil, err
	}
	p := &replayer{s: s, win: win, row: bitset.New(s.numPaths())}
	for p.pos < replayWindow {
		p.observe()
	}
	return p, nil
}

func (p *replayer) observe() {
	p.s.rowSet(p.pos, p.row)
	p.pos++
	p.win.Observe(p.row)
}

func (p *replayer) observeBlock() {
	for i := 0; i < replayStride; i++ {
		p.observe()
	}
}

// setupReplay runs the set-up replaySetups times, keeps the last one, and
// records the median set-up time.
func setupReplay(r *run) (*replayer, error) {
	var p *replayer
	var times []float64
	for i := 0; i < replaySetups; i++ {
		if p != nil {
			p.win.Close()
		}
		settle()
		t0 := time.Now()
		var err error
		if p, err = newReplayer(r.seed); err != nil {
			return nil, fmt.Errorf("replay set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("setup_s", medianOf(times))
	r.note("setup_s_all", times)
	return p, nil
}

// replayPass is one pass over the feed: every window position of the
// cyclic feed once, so a position's window holds the same rows on every
// pass and its checkpoint repeats the same work.
//
// Timed phases run at least replayMinPasses whole passes, and each
// position reports the fastest of its repeats; the percentiles are over
// positions. On a shared host the same checkpoint runs up to twice as slow
// while a neighbour is busy, switching within seconds, so percentiles of
// raw times measured how long the neighbour was busy during the run. The
// fastest repeat of identical work is the program's own cost; the raw
// figures are kept in the run's notes.
const (
	replayPass      = replayRows / replayStride
	replayMinPasses = 5
)

// replayPhase is the untraced timed phase: whole passes until the phase has
// lasted d, and at least replayMinPasses.
func replayPhase(r *run, p *replayer, d time.Duration) error {
	settle()
	for i := 0; i < replayWarmup; i++ {
		p.observeBlock()
		if _, err := p.win.EstimateShared(); err != nil {
			return err
		}
	}
	inf := time.Duration(math.MaxInt64)
	post, est, ckpt := make([]time.Duration, replayPass), make([]time.Duration, replayPass), make([]time.Duration, replayPass)
	for i := range ckpt {
		post[i], est[i], ckpt[i] = inf, inf, inf
	}
	var raw, gaps latencies
	var last []float64
	start := time.Now()
	prevEnd := start
	n := 0
	for ; n%replayPass != 0 || n < replayMinPasses*replayPass || !enough(start, d, n, 100); n++ {
		t0 := time.Now()
		p.observeBlock()
		t1 := time.Now()
		res, err := p.win.EstimateShared()
		t2 := time.Now()
		gaps.add(t0.Sub(prevEnd))
		prevEnd = t2
		if err == nil {
			err = inUnit(res.CongestionProb)
		}
		if !r.ops.note(err) {
			continue
		}
		i := n % replayPass
		post[i], est[i], ckpt[i] = min(post[i], t1.Sub(t0)), min(est[i], t2.Sub(t1)), min(ckpt[i], t2.Sub(t0))
		raw.add(t2.Sub(t0))
		last = append(last[:0], res.CongestionProb...)
	}
	wall := time.Since(start)
	var total time.Duration
	for _, series := range []struct {
		name string
		best []time.Duration
	}{{"post", post}, {"estimate", est}, {"checkpoint", ckpt}} {
		var l latencies
		for _, d := range series.best {
			if d != inf {
				l.add(d)
				if series.name == "checkpoint" {
					total += d
				}
			}
		}
		if err := setP50P90(r, series.name, l); err != nil {
			return err
		}
	}
	r.set("snapshots_per_s", float64(replayPass*replayStride)/total.Seconds())
	rawP50, _ := raw.p50()
	r.note("passes", n/replayPass)
	r.note("raw_checkpoint_p50_ms", rawP50)
	r.note("raw_snapshots_per_s", float64(len(raw)*replayStride)/wall.Seconds())
	r.lateness = gaps
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	if err := checkFinal(p.s, p.pos, replayWindow, "correlation", last); err != nil {
		r.fail("replay final estimate: %v", err)
	}
	return nil
}

// setP50P90 sets <prefix>_p50_ms and <prefix>_p90_ms.
func setP50P90(r *run, prefix string, l latencies) error {
	p50, p90, err := l.p50p90()
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	r.set(prefix+"_p50_ms", p50)
	r.set(prefix+"_p90_ms", p90)
	return nil
}

func runReplay(r *run) error {
	p, err := setupReplay(r)
	if err != nil {
		return err
	}
	defer p.win.Close()
	return replayPhase(r, p, r.seconds)
}

// tracedReplay replays checkpoints with every layer call in a span until
// the phase has lasted d and holds at least n checkpoints.
func tracedReplay(r *run, rec *recorder, p *replayer, d time.Duration, n int) error {
	lt, err := newLinearTrace(p.s.top)
	if err != nil {
		return err
	}
	settle()
	for i := 0; i < replayWarmup; i++ {
		p.observeBlock()
		if _, err := lt.estimate(newRecorder(false), p.win.Source()); err != nil {
			return err
		}
	}
	g0 := readGoStats()
	start := time.Now()
	var last []float64
	count := 0
	for count < n || time.Since(start) < d {
		op := rec.op("replay:checkpoint")
		for i := 0; i < replayStride; i++ {
			p.s.rowSet(p.pos, p.row)
			p.pos++
			id := rec.begin(spanObserve)
			p.win.Observe(p.row)
			rec.end(id)
		}
		probs, err := lt.estimate(rec, p.win.Source())
		rec.end(op)
		if err == nil {
			err = inUnit(probs)
		}
		count++
		if r.ops.note(err) {
			last = append(last[:0], probs...)
		}
	}
	setGoStats(r, g0, count*replayStride)
	if err := checkFinal(p.s, p.pos, replayWindow, "correlation", last); err != nil {
		r.fail("traced replay final estimate: %v", err)
	}
	spans := rec.spans
	observe := spanDurs(spans, "replay:checkpoint", spanObserve)
	if err := setP50(r, "window.observe.us_per_snap", observe, 1000); err != nil {
		return err
	}
	if err := setLinearMetrics(r, spans, "replay:checkpoint", lt); err != nil {
		return err
	}
	return nil
}

// setLinearMetrics reports the core and measure layers of the linear
// decompositions under roots named root.
func setLinearMetrics(r *run, spans []span, root string, lt *linearTrace) error {
	if err := setP50(r, "measure.prime_pairs.ms_p50", spanDurs(spans, root, spanPrime), 1); err != nil {
		return err
	}
	r.setDefault("measure.prime_pairs.pairs", float64(lt.pairs))
	if err := setP50(r, "core.evaluate_in.ms_p50", spanDurs(spans, root, spanEvaluate), 1); err != nil {
		return err
	}
	if err := setP50(r, "core.solve.ms_p50", derived(spans, spanRun, spanEvalPrimed), 1); err != nil {
		return err
	}
	r.setDefault("core.solver.square", float64(lt.solvers["square"]))
	r.setDefault("core.solver.l1", float64(lt.solvers["l1"]))
	r.setDefault("core.solver.min_norm", float64(lt.solvers["min-norm"]))
	return nil
}

// setP50 sets name (unless an earlier phase did) to the samples' median
// times scale.
func setP50(r *run, name string, l latencies, scale float64) error {
	if _, ok := r.metrics[name]; ok {
		return nil
	}
	v, err := l.p50()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.set(name, v*scale)
	return nil
}

// setGoStats reports the runtime's GC and allocation work since g0 for a
// phase that processed snaps snapshots.
func setGoStats(r *run, g0 goStats, snaps int) {
	g1 := readGoStats()
	r.setDefault("go.gc_cycles", float64(g1.gcCycles-g0.gcCycles))
	r.setDefault("go.gc_pause_ms", ms(g1.pauseTotal-g0.pauseTotal))
	if snaps > 0 {
		r.setDefault("go.alloc_bytes_per_snap", float64(g1.allocBytes-g0.allocBytes)/float64(snaps))
	}
}
