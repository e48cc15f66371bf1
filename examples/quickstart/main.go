// Quickstart: the paper's Figure 1(a) worked example, end to end.
//
// We build the toy topology of Figure 1(a) — four links, three paths, links
// e1 and e2 correlated — define a ground-truth congestion process in which
// e1 and e2 really are correlated, simulate end-to-end measurements,
// compile the topology into a reusable inference plan, and recover every
// link's congestion probability with two of the library's estimators: the
// practical Section-4 correlation algorithm and the exact Appendix-A
// theorem algorithm.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	tomography "repro"
	"repro/internal/bitset"
	"repro/internal/congestion"
)

func main() {
	// The topology of Figure 1(a):
	//   links  e1, e2, e3, e4 (e1 and e2 share a physical link → correlated)
	//   paths  P1 = (e1,e3), P2 = (e2,e3), P3 = (e2,e4)
	top := tomography.Figure1A()
	fmt.Println("topology:", top)

	// Compile the topology into an inference plan: admissible path/pair
	// selection and equation structure are computed once here and shared by
	// every estimator run below (and by any future run over new
	// measurements of this topology).
	plan, err := tomography.Compile(top, tomography.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Assumption 4 holds on this topology (the paper proves identifiability
	// under it), so every link's congestion probability is recoverable.
	fmt.Println("Assumption 4 (identifiability):", tomography.CheckIdentifiability(top, 0).Identifiable)
	fmt.Println("registered estimators:", tomography.EstimatorNames())

	// Ground truth: e1 and e2 are congested together far more often than
	// independence would allow (P(both) = 0.18 >> 0.10·0.12); e3 and e4 are
	// independent. The same joint table the library's tests validate against.
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

	// Simulate 100000 measurement snapshots (Section 5's simulator; state-
	// level mode applies the separability assumption directly).
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: top, Model: model, Snapshots: 100000, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	src, err := tomography.NewEmpirical(rec)
	if err != nil {
		log.Fatal(err)
	}

	// The practical algorithm (Section 4): forms the log-linear system
	// y1 = x1+x3, y2 = x2+x3, y3 = x2+x4, y23 = x2+x3+x4 and solves it.
	// Estimators are selected by name; all of them run
	// against the shared compiled plan.
	corr, err := tomography.Estimate("correlation", plan, src, tomography.EstimateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sys := corr.Linear.System
	fmt.Printf("\npractical algorithm: %d single-path + %d pair equations, rank %d, solver %s\n",
		sys.SinglePathEqs, sys.PairEqs, sys.Rank, corr.Linear.Solver)

	// The exact theorem algorithm (Appendix A): computes the congestion
	// factors αA for every correlation subset, then the marginals.
	res, err := tomography.Estimate("theorem", plan, src, tomography.EstimateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	thm := res.Theorem

	truth := congestion.Marginals(model)
	fmt.Printf("\n%-6s %-8s %-12s %-12s\n", "link", "truth", "correlation", "theorem")
	for k := 0; k < top.NumLinks(); k++ {
		fmt.Printf("%-6s %-8.3f %-12.3f %-12.3f\n",
			top.Link(tomography.LinkID(k)).Name, truth[k],
			corr.CongestionProb[k], thm.CongestionProb[k])
	}

	// The theorem algorithm also recovers the joint: P(e1 ∧ e2 congested).
	joint := thm.JointProb[bitset.FromIndices(0, 1).Key()]
	fmt.Printf("\nP(e1 and e2 congested together): truth 0.180, recovered %.3f\n", joint)
	fmt.Println("(an independence assumption would have predicted",
		fmt.Sprintf("%.3f)", truth[0]*truth[1]))
}
