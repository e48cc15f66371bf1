package tomography_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	tomography "repro"
)

// assertBitIdentical compares two probability vectors via math.Float64bits.
func assertBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: result lengths differ: %d vs %d", label, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: link %d: view %v != window %v (not bit-identical)", label, k, got[k], want[k])
		}
	}
}

// TestWindowViewMatchesWindow is the read-replica bit-identity contract for
// the RAM-backed window: a view frozen at checkpoint T estimates exactly
// what the window itself estimated at T — including after the window has
// moved on past the view, which is what makes it a copy-on-write snapshot
// rather than an alias. Views are recycled through the publisher loop the
// way the serving layer recycles them. Run with -race.
func TestWindowViewMatchesWindow(t *testing.T) {
	const (
		snapshots = 700
		window    = 256
		stride    = 97
	)
	top, rec := windowFixture(t, snapshots)
	plan, err := tomography.Compile(top, tomography.PlanOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, estimator := range []string{"correlation", "independence", "mle"} {
		estimator := estimator
		t.Run(estimator, func(t *testing.T) {
			t.Parallel() // estimators share one plan — exercised under -race
			w, err := tomography.NewWindow(top, tomography.WindowConfig{
				Size: window, Estimator: estimator, Plan: plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			ws := tomography.NewWorkspace()
			var recycle *tomography.WindowView
			type pending struct {
				view *tomography.WindowView
				want []float64
			}
			var held pending // a view deliberately estimated only later
			for ts := 0; ts < rec.Snapshots(); ts++ {
				w.Observe(rec.PathSnapshot(ts))
				if ts+1 < window || (ts+1)%stride != 0 {
					continue
				}
				want, err := w.Estimate()
				if err != nil {
					t.Fatal(err)
				}
				v := w.View(recycle)
				recycle = nil
				if v.Seen() != ts+1 || v.Len() != window {
					t.Fatalf("t=%d: view seen=%d len=%d, want %d, %d", ts, v.Seen(), v.Len(), ts+1, window)
				}
				got, err := v.EstimateIn(ws)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, estimator, got.CongestionProb, want.CongestionProb)
				if held.view != nil {
					// The previous checkpoint's view, estimated only now — a
					// full stride of appends and evictions later: it must
					// still answer as of its freeze point.
					late, err := held.view.EstimateIn(ws)
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, estimator+"/stale-view", late.CongestionProb, held.want)
					held.view.Close()
					recycle = held.view
				}
				held = pending{view: v, want: append([]float64(nil), want.CongestionProb...)}
			}
			if held.view != nil {
				held.view.Close()
			}
		})
	}
}

// TestWindowViewTheorem extends the view bit-identity contract to the
// theorem estimator, whose congested-pattern histogram must be carried into
// (and stay frozen in) the view.
func TestWindowViewTheorem(t *testing.T) {
	top := tomography.Figure1A()
	s, err := tomography.BuildScenario("quickstart", 5)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: top, Model: s.Model, Snapshots: 900, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	const window = 256
	w, err := tomography.NewWindow(top, tomography.WindowConfig{Size: window, Estimator: "theorem"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Source().PrimePatterns()
	ws := tomography.NewWorkspace()
	var recycle *tomography.WindowView
	for ts := 0; ts < rec.Snapshots(); ts++ {
		w.Observe(rec.PathSnapshot(ts))
		if ts+1 < window || (ts+1)%101 != 0 {
			continue
		}
		want, err := w.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		v := w.View(recycle)
		got, err := v.EstimateIn(ws)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "theorem", got.CongestionProb, want.CongestionProb)
		v.Close()
		recycle = v
	}
}

// TestWindowViewSpillConcurrent is the read-replica contract on the
// out-of-core window under -race: reader goroutines hold views (whose
// sealed segments are shared with the live window by reference) and
// estimate from them while the owner keeps appending — sealing new
// segments, evicting old ones, and releasing its own segment references.
// Every view estimate must be bit-identical to the window's estimate at
// the view's freeze point.
func TestWindowViewSpillConcurrent(t *testing.T) {
	const (
		snapshots = 600
		window    = 192
		segRows   = 64
		stride    = 64
	)
	top, rec := windowFixture(t, snapshots)
	for _, estimator := range []string{"correlation", "mle"} {
		w, err := tomography.NewWindow(top, tomography.WindowConfig{
			Size: window, Estimator: estimator,
			Spill: &tomography.SpillConfig{Dir: t.TempDir(), SegmentRows: segRows},
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for ts := 0; ts < rec.Snapshots(); ts++ {
			w.Observe(rec.PathSnapshot(ts))
			if ts+1 < window || (ts+1)%stride != 0 {
				continue
			}
			want, err := w.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			wantProbs := append([]float64(nil), want.CongestionProb...)
			v := w.View(nil)
			wg.Add(1)
			go func(v *tomography.WindowView, want []float64, at int) {
				defer wg.Done()
				defer v.Close()
				ws := tomography.NewWorkspace()
				for rep := 0; rep < 3; rep++ {
					got, err := v.EstimateIn(ws)
					if err != nil {
						errs <- err
						return
					}
					for k := range want {
						if math.Float64bits(got.CongestionProb[k]) != math.Float64bits(want[k]) {
							errs <- errMismatch{estimator: estimator, at: at, link: k}
							return
						}
					}
				}
			}(v, wantProbs, ts)
		}
		wg.Wait()
		w.Close()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

type errMismatch struct {
	estimator string
	at        int
	link      int
}

func (e errMismatch) Error() string {
	return fmt.Sprintf("view estimate diverged: %s at snapshot %d link %d", e.estimator, e.at, e.link)
}

// TestWindowCloseIdempotent covers the Window lifecycle bugfix: Close twice
// is a no-op the second time, estimates on a closed window error cleanly,
// and Observe on a closed window panics with a diagnostic (silently
// dropping observations would desync downstream consumers).
func TestWindowCloseIdempotent(t *testing.T) {
	top, rec := windowFixture(t, 64)
	for _, spill := range []bool{false, true} {
		cfg := tomography.WindowConfig{Size: 32}
		if spill {
			cfg.Spill = &tomography.SpillConfig{Dir: t.TempDir(), SegmentRows: 64}
		}
		w, err := tomography.NewWindow(top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ts := 0; ts < rec.Snapshots(); ts++ {
			w.Observe(rec.PathSnapshot(ts))
		}
		w.Close()
		w.Close() // must not panic or double-release
		if _, err := w.Estimate(); err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("spill=%v: Estimate on closed window: err = %v, want closed error", spill, err)
		}
		if _, err := w.EstimateShared(); err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("spill=%v: EstimateShared on closed window: err = %v, want closed error", spill, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spill=%v: Observe on closed window did not panic", spill)
				}
			}()
			w.Observe(rec.PathSnapshot(0))
		}()
	}
}

// TestWindowCloseDuringEstimate races Close against a goroutine issuing
// estimates in a loop: Close must wait for the in-flight estimate rather
// than tearing the source down under it, and every estimate either
// succeeds or reports the window closed — never panics. Run with -race.
func TestWindowCloseDuringEstimate(t *testing.T) {
	top, rec := windowFixture(t, 300)
	for _, spill := range []bool{false, true} {
		cfg := tomography.WindowConfig{Size: 128}
		if spill {
			cfg = tomography.WindowConfig{
				Size:  128,
				Spill: &tomography.SpillConfig{Dir: t.TempDir(), SegmentRows: 64},
			}
		}
		w, err := tomography.NewWindow(top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ts := 0; ts < rec.Snapshots(); ts++ {
			w.Observe(rec.PathSnapshot(ts))
		}
		started := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			close(started)
			for {
				if _, err := w.EstimateShared(); err != nil {
					done <- err
					return
				}
			}
		}()
		<-started
		w.Close()
		err = <-done
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("spill=%v: estimate loop ended with %v, want closed error", spill, err)
		}
	}
}
