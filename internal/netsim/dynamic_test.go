package netsim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dynamics"
	"repro/internal/topology"
)

// dynFixture builds a Figure-1(a) topology with a Markov-modulated process
// over its first correlation set.
func dynFixture(t *testing.T) (*topology.Topology, *dynamics.MarkovModulated) {
	t.Helper()
	top := topology.Figure1A()
	proc, err := dynamics.NewMarkovModulated(dynamics.Config{
		NumLinks: top.NumLinks(),
		Groups: []dynamics.Group{{
			Links:   []int{0, 1},
			Chain:   dynamics.Chain{POn: 0.05, MeanBurst: 20},
			OnProb:  []float64{0.9, 0.8},
			OffProb: []float64{0.02, 0.02},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return top, proc
}

func TestRunDynamicDeterministic(t *testing.T) {
	top, proc := dynFixture(t)
	cfg := Config{Topology: top, Process: proc, Snapshots: 600, Seed: 5, RecordLinkStates: true}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameColumns(a.Paths, b.Paths) || !sameColumns(a.Links, b.Links) {
		t.Fatal("two runs with the same seed produced different records")
	}
	cfg.Seed = 6
	c, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sameColumns(a.Paths, c.Paths) {
		t.Fatal("different seeds produced identical records")
	}
}

// TestRunDynamicObservationsConsistent checks Assumption 2 holds between
// recorded link states and path observations, and that the OnSnapshot tap
// sees exactly what lands in the record.
func TestRunDynamicObservationsConsistent(t *testing.T) {
	top, proc := dynFixture(t)
	var tapped []*bitset.Set
	rec, err := Run(context.Background(), Config{
		Topology: top, Process: proc, Snapshots: 400, Seed: 9, RecordLinkStates: true,
		OnSnapshot: func(_ int, congested *bitset.Set) {
			tapped = append(tapped, congested.Clone())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshots() != 400 || len(tapped) != 400 {
		t.Fatalf("recorded %d snapshots, tapped %d, want 400", rec.Snapshots(), len(tapped))
	}
	for ts := 0; ts < rec.Snapshots(); ts++ {
		paths := rec.PathSnapshot(ts)
		if !paths.Equal(tapped[ts]) {
			t.Fatalf("snapshot %d: tap %v != record %v", ts, tapped[ts], paths)
		}
		links := rec.LinkSnapshot(ts)
		for _, p := range top.Paths() {
			want := top.PathLinkSet(p.ID).Intersects(links)
			if got := paths.Contains(int(p.ID)); got != want {
				t.Fatalf("snapshot %d path %d: observed %v, link states imply %v", ts, p.ID, got, want)
			}
		}
	}
}

func TestRunDynamicErrors(t *testing.T) {
	top, proc := dynFixture(t)
	other, err := dynamics.NewMarkovModulated(dynamics.Config{NumLinks: 99})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     Config
		errPart string
	}{
		{"nil topology", Config{Process: proc, Snapshots: 10}, "nil topology"},
		{"nil process", Config{Topology: top, Snapshots: 10}, "nil process"},
		{"model and process", Config{Topology: top, Model: fig1aModel(t), Process: proc, Snapshots: 10}, "both"},
		{"mismatched links", Config{Topology: top, Process: other, Snapshots: 10}, "covers 99 links"},
		{"no snapshots", Config{Topology: top, Process: proc}, "snapshots = 0"},
		{"bad tl", Config{Topology: top, Process: proc, Snapshots: 10, Tl: 2}, "tl"},
		{"bad packets", Config{Topology: top, Process: proc, Snapshots: 10, PacketsPerPath: -1}, "packets"},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), tc.cfg); err == nil {
			t.Errorf("%s: config accepted, want error", tc.name)
		} else if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errPart)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Topology: top, Process: proc, Snapshots: 10}); err == nil {
		t.Error("cancelled context accepted")
	}
}
