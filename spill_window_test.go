package tomography_test

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	tomography "repro"
)

// TestWindowedSpillMatchesRAM is the top-level half of the out-of-core
// bit-identity contract: a sliding replay whose window spills sealed column
// segments to disk must produce the same WindowPoint sequence — congestion
// probabilities compared via math.Float64bits, change flags exactly — as the
// RAM-only window, for segment sizes that divide the window evenly, leave a
// mid-segment head boundary, and exceed the window entirely. Run with -race.
func TestWindowedSpillMatchesRAM(t *testing.T) {
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
	for _, estimator := range []string{"correlation", "mle"} {
		ram, err := tomography.WindowedEstimate(top, rec,
			tomography.WindowConfig{Size: window, Estimator: estimator, Plan: plan}, stride)
		if err != nil {
			t.Fatal(err)
		}
		if len(ram) == 0 {
			t.Fatal("no checkpoints")
		}
		for _, segRows := range []int{64, 192, 1024} {
			cfg := tomography.WindowConfig{
				Size: window, Estimator: estimator, Plan: plan,
				Spill: &tomography.SpillConfig{Dir: t.TempDir(), SegmentRows: segRows},
			}
			spill, err := tomography.WindowedEstimate(top, rec, cfg, stride)
			if err != nil {
				t.Fatal(err)
			}
			if len(spill) != len(ram) {
				t.Fatalf("%s/segRows=%d: %d spill checkpoints, %d RAM", estimator, segRows, len(spill), len(ram))
			}
			for k := range ram {
				if spill[k].T != ram[k].T || spill[k].Changed != ram[k].Changed {
					t.Fatalf("%s/segRows=%d: checkpoint %d is (T=%d, changed=%v), RAM (T=%d, changed=%v)",
						estimator, segRows, k, spill[k].T, spill[k].Changed, ram[k].T, ram[k].Changed)
				}
				a, b := ram[k].Result.CongestionProb, spill[k].Result.CongestionProb
				if len(a) != len(b) {
					t.Fatalf("%s/segRows=%d: checkpoint T=%d result lengths differ", estimator, segRows, ram[k].T)
				}
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("%s/segRows=%d: checkpoint T=%d link %d: RAM %v, spill %v",
							estimator, segRows, ram[k].T, i, a[i], b[i])
					}
				}
			}
		}
	}
}

// TestWindowSpillStreaming closes the loop end to end: SimulateStream
// feeds a spill-backed Window live (no record in RAM on the spill side), and
// its estimate must be bit-identical to a RAM window driven from the recorded
// run of the same configuration.
func TestWindowSpillStreaming(t *testing.T) {
	const (
		snapshots = 600
		window    = 200
	)
	top := tomography.Figure1A()
	proc, err := tomography.NewMarkovModulated(tomography.MarkovConfig{
		NumLinks: top.NumLinks(),
		Groups: []tomography.MarkovGroup{{
			Links:   []int{0, 1},
			Chain:   tomography.MarkovChain{POn: 0.05, MeanBurst: 20},
			OnProb:  []float64{0.9, 0.8},
			OffProb: []float64{0.02, 0.02},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tomography.SimConfig{Topology: top, Process: proc, Snapshots: snapshots, Seed: 3}
	rec, err := tomography.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ramW, err := tomography.NewWindow(top, tomography.WindowConfig{Size: window})
	if err != nil {
		t.Fatal(err)
	}
	defer ramW.Close()
	for ts := 0; ts < rec.Snapshots(); ts++ {
		ramW.Observe(rec.PathSnapshot(ts))
	}
	spillW, err := tomography.NewWindow(top, tomography.WindowConfig{
		Size:  window,
		Spill: &tomography.SpillConfig{Dir: t.TempDir(), SegmentRows: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer spillW.Close()
	cfg.OnSnapshot = func(ts int, congested *tomography.PathSet) { spillW.Observe(congested) }
	if err := tomography.SimulateStream(cfg); err != nil {
		t.Fatal(err)
	}
	if spillW.Seen() != ramW.Seen() || spillW.Len() != ramW.Len() {
		t.Fatalf("spill window seen/len %d/%d, RAM %d/%d", spillW.Seen(), spillW.Len(), ramW.Seen(), ramW.Len())
	}
	a, err := ramW.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spillW.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.CongestionProb) != len(b.CongestionProb) {
		t.Fatal("result lengths differ")
	}
	for i := range a.CongestionProb {
		if math.Float64bits(a.CongestionProb[i]) != math.Float64bits(b.CongestionProb[i]) {
			t.Fatalf("link %d: RAM %v, spill %v", i, a.CongestionProb[i], b.CongestionProb[i])
		}
	}
}

// spillMappings counts this process's memory mappings of files under dir,
// read from /proc/self/maps.
func spillMappings(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	prefix := dir + string(filepath.Separator)
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if i := strings.IndexByte(line, '/'); i >= 0 && strings.HasPrefix(line[i:], prefix) {
			n++
		}
	}
	return n
}

// TestWindowedReplayUnmapsSpill pins that both offline replays close their
// window: once WindowedEstimate or WindowedEstimateFunc returns, no segment
// of a spill replay is still mapped. The Func replay also checks that its
// segments are mapped mid-replay, so the probe can see them at all.
func TestWindowedReplayUnmapsSpill(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	const (
		snapshots = 1500
		window    = 1024
		stride    = 256
	)
	top, rec := windowFixture(t, snapshots)
	spillCfg := func(dir string) tomography.WindowConfig {
		return tomography.WindowConfig{Size: window, Spill: &tomography.SpillConfig{Dir: dir, SegmentRows: 128}}
	}

	dir := t.TempDir()
	if _, err := tomography.WindowedEstimate(top, rec, spillCfg(dir), stride); err != nil {
		t.Fatal(err)
	}
	if n := spillMappings(t, dir); n != 0 {
		t.Errorf("WindowedEstimate left %d segment mappings under the spill directory", n)
	}

	dir = t.TempDir()
	mapped := 0
	err := tomography.WindowedEstimateFunc(top, rec, spillCfg(dir), stride, func(tomography.WindowPoint) error {
		mapped = max(mapped, spillMappings(t, dir))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mapped == 0 {
		t.Fatal("no segment mapped under the spill directory during the replay")
	}
	if n := spillMappings(t, dir); n != 0 {
		t.Errorf("WindowedEstimateFunc left %d segment mappings under the spill directory (%d mid-replay)", n, mapped)
	}
}
