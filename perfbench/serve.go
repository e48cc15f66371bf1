package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/serve"
)

// serveWhy: the daemon path with reads beside writes, out of core. Small
// JSON batches and estimates arrive on fixed schedules (an open loop) at
// four mle tenants over spill-backed 2^18-snapshot windows. The feed is
// the flash-crowd scenario, on which the optimizer runs its full 500
// iterations on every seed; on diurnal its iteration count, and with it
// the estimate time, swings from 326 to 486 with the seed. It is the only
// workload where the JSON decoder, segstore sealing and mapped counts, the
// read-replica view wait and the mle optimizer carry the time: an LP or
// ring change should leave it unchanged, as an mle, JSON or segstore
// change should leave replay unchanged.
const serveWhy = "daemon path, reads beside writes, out-of-core: JSON decode, segstore seals, the view wait and the mle optimizer carry the time"

var servePlan = daemonPlan{
	root: "serve", binary: false, batch: 64, window: 1 << 18, estimator: "mle", spill: true,
	fillBatch: 4096, every: 8,
}

const (
	serveTenants = 4
	serveRows    = 1 << 16
	serveSetups  = 3
	// The rates keep the single estimate worker under half busy (an mle
	// estimate takes ~20 ms), give each trial ~160 estimates so its p90
	// rests on ~16 samples, and seal a segment per tenant every ~5 s.
	servePostPeriod     = 10 * time.Millisecond // 100 JSON batches/s
	serveEstimatePeriod = 50 * time.Millisecond // 20 estimates/s
)

func serveConfig(r *run) serve.Config {
	return serve.Config{Shards: 2, SpillDir: filepath.Join(r.workdir, "spill")}
}

// trial is what one open-loop trial measured, in milliseconds from each
// request's due time.
type trial struct {
	post, est, ckpt   latencies
	postLate, estLate latencies
}

// servePhase is the untraced timed phase: phaseTrials open-loop trials of
// d/phaseTrials each, two roles on their own connections.
func servePhase(r *run, g *daemonRig, s *stream, bodies [][]byte, d time.Duration) error {
	pl := servePlan
	settle()
	for i, name := range g.names {
		// Untimed warm-up: one small batch and one estimate per tenant.
		pos := g.offset[i] + int(g.accepted[i])
		n, err := g.c.post(name, bodies[(pos/pl.batch)%len(bodies)], serve.ContentTypeJSON)
		if !r.ops.note(err) {
			continue
		}
		g.accepted[i] += int64(n)
		_, err = g.c.estimate(name)
		r.ops.note(err)
	}
	estClient := newClient(g.h.base)
	defer estClient.close()
	cov := make([]*coverage, len(g.names))
	for i := range cov {
		cov[i] = &coverage{covered: g.accepted[i]}
	}
	var base int64
	for _, a := range g.accepted {
		base += a
	}
	b := best{}
	start := time.Now()
	for k := 0; k < phaseTrials; k++ {
		tr := serveTrial(r, g, estClient, bodies, cov, d/phaseTrials)
		for _, m := range []struct {
			name string
			l    latencies
		}{{"post", tr.post}, {"estimate", tr.est}, {"checkpoint", tr.ckpt}} {
			if err := b.keepP50P90(m.name, m.l); err != nil {
				return err
			}
		}
		r.lateness = append(append(r.lateness, tr.postLate...), tr.estLate...)
		for _, role := range []struct {
			name   string
			late   latencies
			period time.Duration
		}{{"post", tr.postLate, servePostPeriod}, {"estimate", tr.estLate, serveEstimatePeriod}} {
			_, p90, err := role.late.p50p90()
			if err != nil {
				return fmt.Errorf("%s lateness: %w", role.name, err)
			}
			r.note(fmt.Sprintf("%s_lateness_p90_ms_trial%d", role.name, k), p90)
			if p90 > ms(role.period) {
				r.fail("%s generator fell behind its schedule: lateness p90 %.3f ms > period %v", role.name, p90, role.period)
			}
		}
	}
	for name, v := range b {
		r.set(name, v)
	}

	// Final read-your-accepted-writes estimates: the phase's throughput
	// ends when they return, and they are what the output check compares.
	final := make([][]float64, len(g.names))
	for i, name := range g.names {
		resp, err := g.c.estimate(name)
		if err == nil && int64(resp.SnapshotsSeen) != g.accepted[i] {
			err = fmt.Errorf("estimate for %s covers %d snapshots, %d accepted", name, resp.SnapshotsSeen, g.accepted[i])
		}
		if r.ops.note(err) {
			final[i] = resp.CongestionProb
		}
	}
	wall := time.Since(start)
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	var total int64
	for _, a := range g.accepted {
		total += a
	}
	r.set("snapshots_per_s", float64(total-base)/wall.Seconds())
	for i, probs := range final {
		end := g.offset[i] + int(g.accepted[i])
		if err := checkFinal(s, end, pl.window, pl.estimator, probs); err != nil {
			r.fail("serve tenant %s final estimate: %v", g.names[i], err)
		}
	}
	return nil
}

// serveTrial runs the two open-loop roles for d, stretched if needed so
// the estimates suffice for p90.
func serveTrial(r *run, g *daemonRig, estClient *client, bodies [][]byte, cov []*coverage, d time.Duration) trial {
	if least := 110 * serveEstimatePeriod; d < least {
		d = least
	}
	var tr trial
	var mu sync.Mutex // guards g.accepted and tr.ckpt between the two roles
	var postT, estT []timing
	var estDone []bool
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		postT = openLoop(start, servePostPeriod, end, nil, func(i int, due time.Time) {
			t := i % len(g.names)
			mu.Lock()
			pos := g.offset[t] + int(g.accepted[t])
			mu.Unlock()
			n, err := g.c.post(g.names[t], bodies[(pos/servePlan.batch)%len(bodies)], serve.ContentTypeJSON)
			if !r.ops.note(err) {
				return
			}
			mu.Lock()
			g.accepted[t] += int64(n)
			acc := g.accepted[t]
			mu.Unlock()
			cov[t].wrote(due, acc)
		})
	}()
	go func() {
		defer wg.Done()
		estT = openLoop(start, serveEstimatePeriod, end, nil, func(i int, due time.Time) {
			t := i % len(g.names)
			resp, err := estClient.estimate(g.names[t])
			done := time.Now()
			if err == nil {
				err = inUnit(resp.CongestionProb)
			}
			ok := r.ops.note(err)
			estDone = append(estDone, ok)
			if !ok {
				return
			}
			if c, ok := cov[t].read(int64(resp.SnapshotsSeen), done); ok {
				mu.Lock()
				tr.ckpt.add(c)
				mu.Unlock()
			}
		})
	}()
	wg.Wait()
	for _, t := range postT {
		tr.post.add(t.latency())
		tr.postLate.add(t.lateness())
	}
	for i, t := range estT {
		if estDone[i] {
			tr.est.add(t.latency())
		}
		tr.estLate.add(t.lateness())
	}
	return tr
}

// serveInputs simulates the feed and encodes it twice: as binary fill
// bodies, and as the JSON batches of the timed phase (encoded ahead, so
// the generator makes no garbage while it is timed).
func serveInputs(r *run) (s *stream, fill, batches [][]byte, err error) {
	if s, err = newStream("flash-crowd", r.seed, serveRows); err != nil {
		return nil, nil, nil, err
	}
	if fill, err = encodeFeed(s, servePlan.fillBatch, true); err != nil {
		return nil, nil, nil, err
	}
	batches, err = encodeFeed(s, servePlan.batch, false)
	return s, fill, batches, err
}

func setupServe(r *run, s *stream, fill [][]byte) (*daemonRig, error) {
	cfg := serveConfig(r)
	return setupRig(r, s, cfg, servePlan, serveTenants, serveSetups, fill, func() error {
		// Each set-up starts from an empty spill directory.
		return os.RemoveAll(cfg.SpillDir)
	})
}

func runServe(r *run) error {
	s, fill, batches, err := serveInputs(r)
	if err != nil {
		return err
	}
	g, err := setupServe(r, s, fill)
	if err != nil {
		return err
	}
	if err := servePhase(r, g, s, batches, r.seconds); err != nil {
		g.stop()
		return err
	}
	return g.stop()
}
