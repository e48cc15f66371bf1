package tomography_test

import (
	"fmt"
	"math"
	"testing"

	tomography "repro"
)

// TestDeadPathEstimatesInRange is the dead-path property: with one path,
// three paths or every path congested in every snapshot, every registered
// estimator either returns an error or a CongestionProb whose entries are
// finite and within [0, 1] — a dead path never yields NaN or an
// out-of-range probability.
func TestDeadPathEstimatesInRange(t *testing.T) {
	const snapshots = 1000
	for _, name := range []string{"diurnal", "worm", "link-flap", "quickstart"} {
		scn, err := tomography.BuildScenario(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := tomography.Simulate(tomography.SimConfig{
			Topology: scn.Topology, Model: scn.Model, Process: scn.Process, Snapshots: snapshots, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := tomography.Compile(scn.Topology, tomography.PlanOptions{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		n := scn.Topology.NumPaths()
		every := make([]int, n)
		for p := range every {
			every[p] = p
		}
		for _, dead := range [][]int{{n / 2}, {n / 4, n / 2, 3 * n / 4}, every} {
			rows := recordRows(rec)
			for _, r := range rows {
				for _, p := range dead {
					r.Add(p)
				}
			}
			src, err := tomography.NewEmpirical(tomography.NewRecordFromRows(n, rows))
			if err != nil {
				t.Fatal(err)
			}
			for _, est := range tomography.EstimatorNames() {
				what := fmt.Sprintf("%s %s with %d of %d paths dead", name, est, len(dead), n)
				res, err := tomography.Estimate(est, plan, src, tomography.EstimateOptions{})
				if err != nil {
					t.Logf("%s: error %v", what, err)
					continue
				}
				for k, p := range res.CongestionProb {
					if math.IsNaN(p) || p < 0 || p > 1 {
						t.Errorf("%s: link %d congestion probability %v", what, k, p)
					}
				}
			}
		}
	}
}
