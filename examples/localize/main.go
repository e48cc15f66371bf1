// Per-snapshot congested-link localization (Section 3.3).
//
// Knowing every link's long-run congestion probability is only half of the
// operational story: an operator staring at one bad measurement round wants
// to know which links are congested RIGHT NOW. This example runs that
// pipeline on the paper's Figure-1(a) topology:
//
//  1. simulate correlated measurements and compile the topology into an
//     inference plan;
//  2. learn the full joint distribution of each correlation set with the
//     theorem estimator (exact Appendix-A algorithm, by name through
//     Estimate) — and marginals-only probabilities with the independence
//     baseline for contrast;
//  3. for every snapshot, explain the observed congested paths:
//     LocalizeCorrelated uses the learned joint states (it knows e1 and e2
//     usually fail together), plain Localize uses independent marginals;
//  4. score both against the simulator's ground-truth link states.
//
// The correlated localizer detects more truly congested links because a
// snapshot that congests one link of a correlated pair makes its partner
// likely congested too — information the independence assumption throws
// away.
//
// Run with:
//
//	go run ./examples/localize
package main

import (
	"fmt"
	"log"

	tomography "repro"
	"repro/internal/bitset"
	"repro/internal/congestion"
)

func main() {
	top := tomography.Figure1A()
	fmt.Println("topology:", top)

	// Ground truth: e1 and e2 congest together far more often than
	// independence predicts; e3 and e4 are independent.
	model, err := congestion.NewTable(4, []congestion.GroupTable{
		{
			Links: []int{0, 1},
			States: []congestion.SubsetProb{
				{Links: bitset.New(0), P: 0.60},
				{Links: bitset.FromIndices(0), P: 0.10},
				{Links: bitset.FromIndices(1), P: 0.12},
				{Links: bitset.FromIndices(0, 1), P: 0.18},
			},
		},
		{Links: []int{2}, States: []congestion.SubsetProb{
			{Links: bitset.New(0), P: 0.8}, {Links: bitset.FromIndices(2), P: 0.2},
		}},
		{Links: []int{3}, States: []congestion.SubsetProb{
			{Links: bitset.New(0), P: 0.9}, {Links: bitset.FromIndices(3), P: 0.1},
		}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// RecordLinkStates keeps the simulator's per-snapshot ground truth so
	// localization quality can be scored at the end.
	const snapshots = 20000
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: top, Model: model, Snapshots: snapshots, Seed: 5,
		RecordLinkStates: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	src, err := tomography.NewEmpirical(rec)
	if err != nil {
		log.Fatal(err)
	}

	// One compiled plan; two estimators by name.
	plan, err := tomography.Compile(top, tomography.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	thmRes, err := tomography.Estimate("theorem", plan, src, tomography.EstimateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	thm := thmRes.Theorem
	indep, err := tomography.Estimate("independence", plan, src, tomography.EstimateOptions{
		Algorithm: tomography.Options{UseAllEquations: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The theorem estimator recovered each correlation set's joint state
	// distribution; feed it to the correlated localizer.
	states := tomography.TheoremSetStates(top, thm)
	fmt.Printf("\nlearned joint for {e1,e2}: P(both congested) = %.3f (independence would predict %.3f)\n",
		thm.JointProb[bitset.FromIndices(0, 1).Key()],
		thm.CongestionProb[0]*thm.CongestionProb[1])

	// Localize every snapshot twice: with the joint states and with
	// independent marginals, and keep its true congested links.
	var truth, corrInferred, indepInferred []*tomography.PathSet
	for t := 0; t < rec.Snapshots(); t++ {
		links := tomography.NewPathSet()
		rec.Links.RowInto(t, links)
		truth = append(truth, links)
		obs := rec.PathSnapshot(t)
		cr, err := tomography.LocalizeCorrelated(top, thm.CongestionProb, states, obs)
		if err != nil {
			log.Fatal(err)
		}
		corrInferred = append(corrInferred, cr.Congested)
		ir, err := tomography.Localize(top, indep.CongestionProb, obs)
		if err != nil {
			log.Fatal(err)
		}
		indepInferred = append(indepInferred, ir.Congested)
	}

	mCorr, err := tomography.EvaluateLocalization(truth, corrInferred)
	if err != nil {
		log.Fatal(err)
	}
	mIndep, err := tomography.EvaluateLocalization(truth, indepInferred)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nlocalization quality over %d snapshots:\n", snapshots)
	fmt.Printf("  %-22s detection %.1f%%  false positives %.1f%%\n",
		"correlated (joint):", 100*mCorr.DetectionRate, 100*mCorr.FalsePositiveRate)
	fmt.Printf("  %-22s detection %.1f%%  false positives %.1f%%\n",
		"independent (marginal):", 100*mIndep.DetectionRate, 100*mIndep.FalsePositiveRate)

	// Show one concrete snapshot where the joint knowledge mattered.
	for t := 0; t < rec.Snapshots(); t++ {
		c, i := corrInferred[t], indepInferred[t]
		if c.Equal(truth[t]) && !i.Equal(truth[t]) {
			fmt.Printf("\nexample snapshot %d: congested paths %v\n", t, rec.PathSnapshot(t))
			fmt.Printf("  truth        %v\n  correlated   %v  ✓\n  independent  %v  ✗\n",
				truth[t], c, i)
			break
		}
	}
}
