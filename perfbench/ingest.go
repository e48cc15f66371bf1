package main

import (
	"fmt"
	"time"

	"repro/internal/serve"
)

// ingestWhy: the daemon path, write-heavy. Binary batches go through
// ObserveBatchWords → AppendBatchWords → the snapstore ring, plus one
// full-window view copy per batch; binary decode and the solve are small.
// Batches carry 2048 snapshots: at 1024, the HTTP round trip of a batch
// cost as much as its observe and view, and the workload no longer
// exercised the ring first. One read-your-accepted-writes estimate per
// tenant every 128 of its batches is the flow control: it bounds each
// shard queue at 128 batches, below QueueDepth (256), so the daemon never
// refuses a batch and a faster decoder cannot raise the share of failed
// operations.
const ingestWhy = "daemon path, write-heavy: binary batches into the RAM ring plus one full-window view per batch; estimates only as flow control"

var ingestPlan = daemonPlan{
	root: "ingest", binary: true, batch: 2048, window: 1 << 16, estimator: "correlation",
	fillBatch: 2048, every: 128,
}

const (
	ingestTenants = 2
	// ingestRows is the simulated feed; tenants replay it cyclically from
	// offsets half a feed apart.
	ingestRows   = 1 << 16
	ingestSetups = 5
)

// ingestConfig is the ingest workload's daemon: one shard per tenant.
func ingestConfig() serve.Config { return serve.Config{Shards: ingestTenants} }

// daemonRig is a running daemon with its tenants registered and filled.
type daemonRig struct {
	h        *daemon
	c        *client
	names    []string
	offset   []int   // feed row where each tenant's stream starts
	accepted []int64 // snapshots each tenant has had accepted
	// gaps, when set, collects the closed loop's lateness: the time from
	// one request's return to the next one's send.
	gaps     *latencies
	lastDone time.Time
}

// sent notes a request about to be sent, returning its send time.
func (g *daemonRig) sent() time.Time {
	t := time.Now()
	if g.gaps != nil {
		g.gaps.add(t.Sub(g.lastDone))
	}
	return t
}

func (g *daemonRig) stop() error {
	g.c.close()
	return g.h.stop()
}

// startRig is a daemon workload's whole set-up: daemon start, tenant
// registration, the window fill (binary batches of fillBatch snapshots),
// and one warm-up estimate per tenant.
func startRig(r *run, s *stream, cfg serve.Config, pl daemonPlan, tenants int, fill [][]byte) (*daemonRig, error) {
	h, err := startDaemon(cfg)
	if err != nil {
		return nil, err
	}
	g := &daemonRig{h: h, c: newClient(h.base)}
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := g.c.register(serve.TenantConfig{Name: name, Scenario: s.scenario, Seed: s.seed, Window: pl.window, Estimator: pl.estimator}); err != nil {
			g.stop()
			return nil, err
		}
		g.names = append(g.names, name)
		g.offset = append(g.offset, i*s.rows/tenants)
		g.accepted = append(g.accepted, 0)
	}
	// fill holds the feed in fillBatch blocks; tenant offsets are whole
	// blocks, so every tenant's fill is a run of those bodies.
	blocks := s.rows / pl.fillBatch
	for k := 0; k < pl.window/pl.fillBatch; k++ {
		for i := range g.names {
			body := fill[(g.offset[i]/pl.fillBatch+k)%blocks]
			n, err := g.c.post(g.names[i], body, serve.ContentTypeBinary)
			if !r.ops.note(err) {
				continue
			}
			g.accepted[i] += int64(n)
		}
	}
	for _, name := range g.names {
		if _, err := g.c.estimate(name); err != nil {
			g.stop()
			return nil, fmt.Errorf("warm-up estimate %s: %w", name, err)
		}
	}
	return g, nil
}

// encodeFeed encodes the feed as ingest bodies of n snapshots each.
func encodeFeed(s *stream, n int, binary bool) ([][]byte, error) {
	var out [][]byte
	for at := 0; at < s.rows; at += n {
		b, err := s.body(at, n, binary)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// setupRig runs startRig times times, keeps the last rig, and records the
// median set-up time.
func setupRig(r *run, s *stream, cfg serve.Config, pl daemonPlan, tenants, times int, fill [][]byte, reset func() error) (*daemonRig, error) {
	var g *daemonRig
	var secs []float64
	for i := 0; i < times; i++ {
		if g != nil {
			if err := g.stop(); err != nil {
				return nil, err
			}
		}
		if reset != nil {
			if err := reset(); err != nil {
				return nil, err
			}
		}
		settle()
		t0 := time.Now()
		var err error
		if g, err = startRig(r, s, cfg, pl, tenants, fill); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", pl.root, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.set("setup_s", medianOf(secs))
	r.note("setup_s_all", secs)
	return g, nil
}

// ingestCycle posts pl.every batches to every tenant, round-robin, then
// reads one estimate per tenant. It returns the estimates, each already
// checked to cover exactly the tenant's accepted snapshots.
func ingestCycle(r *run, g *daemonRig, bodies [][]byte, pl daemonPlan, s *stream, cov []*coverage, post, est, ckpt *latencies) [][]float64 {
	blocks := s.rows / pl.batch
	for k := 0; k < pl.every*len(g.names); k++ {
		i := k % len(g.names)
		pos := g.offset[i] + int(g.accepted[i])
		body := bodies[(pos/pl.batch)%blocks]
		t0 := g.sent()
		n, err := g.c.post(g.names[i], body, serve.ContentTypeBinary)
		t1 := time.Now()
		g.lastDone = t1
		if !r.ops.note(err) {
			continue
		}
		g.accepted[i] += int64(n)
		if post != nil {
			post.add(t1.Sub(t0))
			cov[i].wrote(t0, g.accepted[i])
		}
	}
	out := make([][]float64, len(g.names))
	for i, name := range g.names {
		t0 := g.sent()
		resp, err := g.c.estimate(name)
		t1 := time.Now()
		g.lastDone = t1
		if err == nil {
			err = inUnit(resp.CongestionProb)
		}
		if err == nil && int64(resp.SnapshotsSeen) != g.accepted[i] {
			err = fmt.Errorf("estimate for %s covers %d snapshots, %d accepted", name, resp.SnapshotsSeen, g.accepted[i])
		}
		if !r.ops.note(err) {
			continue
		}
		out[i] = resp.CongestionProb
		if est != nil {
			est.add(t1.Sub(t0))
			if d, ok := cov[i].read(int64(resp.SnapshotsSeen), t1); ok {
				ckpt.add(d)
			}
		}
	}
	return out
}

// ingestPhase is the untraced timed phase: phaseTrials trials of
// closed-loop cycles, each lasting d/phaseTrials and holding enough
// checkpoints for p90.
func ingestPhase(r *run, g *daemonRig, s *stream, bodies [][]byte, d time.Duration) error {
	pl := ingestPlan
	settle()
	ingestCycle(r, g, bodies, pl, s, nil, nil, nil, nil)
	cov := make([]*coverage, len(g.names))
	for i := range cov {
		cov[i] = &coverage{covered: g.accepted[i]}
	}
	accepted := func() (n int64) {
		for _, a := range g.accepted {
			n += a
		}
		return n
	}
	b := best{}
	var final [][]float64
	for k := 0; k < phaseTrials; k++ {
		var post, est, ckpt, gaps latencies
		base := accepted()
		start := time.Now()
		g.gaps, g.lastDone = &gaps, start
		for !enough(start, d/phaseTrials, len(ckpt), 100) {
			final = ingestCycle(r, g, bodies, pl, s, cov, &post, &est, &ckpt)
		}
		g.gaps = nil
		b.keep("snapshots_per_s", float64(accepted()-base)/time.Since(start).Seconds(), true)
		for _, p := range []struct {
			name string
			l    latencies
		}{{"post", post}, {"estimate", est}, {"checkpoint", ckpt}} {
			if err := b.keepP50P90(p.name, p.l); err != nil {
				return err
			}
		}
		r.lateness = append(r.lateness, gaps...)
	}
	for name, v := range b {
		r.set(name, v)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	for i, probs := range final {
		end := g.offset[i] + int(g.accepted[i])
		if err := checkFinal(s, end, pl.window, pl.estimator, probs); err != nil {
			r.fail("ingest tenant %s final estimate: %v", g.names[i], err)
		}
	}
	m, err := g.h.scrape()
	if err != nil {
		return err
	}
	r.note("refused", sumPrefix(m, "tomod_ingest_rejected_total"))
	return nil
}

// ingestInputs simulates the feed and encodes it as 2048-snapshot binary
// bodies, used both to fill the windows and as the timed stream.
func ingestInputs(r *run) (*stream, [][]byte, error) {
	s, err := newStream("diurnal", r.seed, ingestRows)
	if err != nil {
		return nil, nil, err
	}
	bodies, err := encodeFeed(s, ingestPlan.batch, true)
	return s, bodies, err
}

func runIngest(r *run) error {
	s, bodies, err := ingestInputs(r)
	if err != nil {
		return err
	}
	g, err := setupRig(r, s, ingestConfig(), ingestPlan, ingestTenants, ingestSetups, bodies, nil)
	if err != nil {
		return err
	}
	if err := ingestPhase(r, g, s, bodies, r.seconds); err != nil {
		g.stop()
		return err
	}
	return g.stop()
}
