package tomographer

import (
	"context"
	"testing"

	"repro/internal/netsim"
	"repro/internal/planetlab"
	"repro/internal/scenario"
	"repro/internal/topology"
)

func setup(t *testing.T) (*topology.Topology, *netsim.Record) {
	t.Helper()
	net, err := planetlab.Generate(planetlab.Config{
		Routers: 64, VantagePoints: 24, Paths: 150, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.PlanetLab(scenario.PlanetLabConfig{
		Net: net, FracCongested: 0.10, Level: scenario.HighCorrelation, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: s.Topology, Model: s.Model, Snapshots: 2000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s.Topology, rec
}

func TestRunValidation(t *testing.T) {
	top, rec := setup(t)
	if _, err := Run(Config{Topology: nil, Record: rec}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := Run(Config{Topology: top, Record: nil}); err == nil {
		t.Fatal("nil record accepted")
	}
	if _, err := Run(Config{Topology: top, Record: rec, Algorithm: "nonsense"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestIndirectValidationBasics(t *testing.T) {
	top, rec := setup(t)
	rep, err := Run(Config{Topology: top, Record: rec, HoldoutFrac: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != Correlation {
		t.Fatalf("default algorithm = %q", rep.Algorithm)
	}
	if len(rep.HeldOut) == 0 {
		t.Fatal("no paths held out")
	}
	if len(rep.HeldOut) != len(rep.Predicted) || len(rep.HeldOut) != len(rep.Observed) {
		t.Fatal("ragged report")
	}
	for i, p := range rep.Predicted {
		if p < 0 || p > 1 {
			t.Fatalf("predicted probability %v out of range", p)
		}
		if rep.Observed[i] < 0 || rep.Observed[i] > 1 {
			t.Fatalf("observed probability %v out of range", rep.Observed[i])
		}
	}
	if rep.MeanAbsError < 0 || rep.RMSE < rep.MeanAbsError-1e-12 {
		t.Fatalf("inconsistent error stats: mae=%v rmse=%v", rep.MeanAbsError, rep.RMSE)
	}
	// The inference must not have used held-out paths in its equations.
	held := map[topology.PathID]bool{}
	for _, id := range rep.HeldOut {
		held[id] = true
	}
	for _, eq := range rep.Inference.System.Equations {
		for _, pid := range eq.Paths {
			if held[pid] {
				t.Fatalf("equation uses held-out path %d", pid)
			}
		}
	}
}

// The paper's planned experiment: correlation-aware validation error should
// be no worse than (and typically better than) the independence run on a
// correlated mesh.
func TestCompareOnCorrelatedMesh(t *testing.T) {
	top, rec := setup(t)
	cmp, err := Compare(top, rec, 0.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("correlation: mae=%.4f rmse=%.4f | independence: mae=%.4f rmse=%.4f",
		cmp.Correlation.MeanAbsError, cmp.Correlation.RMSE,
		cmp.Independence.MeanAbsError, cmp.Independence.RMSE)
	if cmp.Correlation.MeanAbsError > cmp.Independence.MeanAbsError+0.02 {
		t.Fatalf("correlation validation error %.4f clearly worse than independence %.4f",
			cmp.Correlation.MeanAbsError, cmp.Independence.MeanAbsError)
	}
	// Sanity: predictions carry real signal (errors well below chance).
	if cmp.Correlation.MeanAbsError > 0.2 {
		t.Fatalf("correlation validation error %.4f suspiciously high", cmp.Correlation.MeanAbsError)
	}
}

func TestHoldoutKeepsLinksCovered(t *testing.T) {
	top, rec := setup(t)
	rep, err := Run(Config{Topology: top, Record: rec, HoldoutFrac: 0.3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	held := map[topology.PathID]bool{}
	for _, id := range rep.HeldOut {
		held[id] = true
	}
	covered := make([]bool, top.NumLinks())
	for _, p := range top.Paths() {
		if held[p.ID] {
			continue
		}
		top.PathLinkSet(p.ID).ForEach(func(k int) bool {
			covered[k] = true
			return true
		})
	}
	for k, c := range covered {
		if !c {
			t.Fatalf("link %d uncovered by training paths", k)
		}
	}
}
