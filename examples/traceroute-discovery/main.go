// Traceroute discovery + congested-link localization.
//
// This example walks the paper's full operational story:
//
//  1. discover a topology with traceroute over a physical network whose
//     switches/MPLS gear do not respond (internal/trace — the Figure-2
//     construction); logical links that share hidden physical links form
//     correlation sets;
//  2. learn every logical link's congestion probability from end-to-end
//     snapshots (the Section-4 correlation algorithm, run through a
//     compiled inference plan);
//  3. use the learned probabilities to localize which links were congested
//     in each individual snapshot (Localize — the follow-up problem the
//     paper outlines in Section 3.3), and score detection quality against
//     ground truth;
//  4. cross-check the inference with indirect validation [13]
//     (CompareValidation — the paper's "Ongoing Work" experiment).
//
// Run with:
//
//	go run ./examples/traceroute-discovery
package main

import (
	"context"
	"fmt"
	"log"

	tomography "repro"
	"repro/internal/congestion"
	"repro/internal/netsim"
	"repro/internal/trace"
)

func main() {
	// 1. Discovery: 100 physical elements, 30% of which are invisible to
	// traceroute; 16 vantage points; 80 measurement paths.
	net, err := trace.Discover(trace.Config{
		Elements: 100, HiddenFrac: 0.3, VantagePoints: 16, Paths: 80, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	top := net.Logical
	multi := 0
	for p := 0; p < top.NumSets(); p++ {
		if top.CorrelationSet(p).Len() > 1 {
			multi++
		}
	}
	fmt.Printf("discovered: %s — %d physical links hidden behind %d logical links, %d multi-link correlation sets\n",
		top, net.NumPhysicalLinks, top.NumLinks(), multi)

	// Ground truth lives on the PHYSICAL links (probabilities per physical
	// link; a logical link is congested iff any of its backing physical
	// links is — the RouterBacked model).
	physP := make([]float64, net.NumPhysicalLinks)
	for i := 0; i < net.NumPhysicalLinks; i += 9 { // every 9th physical link congestible
		physP[i] = 0.05 + float64(i%4)*0.08
	}
	model, err := congestion.NewRouterBacked(net.Backing, physP)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Measure and learn.
	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: top, Model: model, Snapshots: 4000, Seed: 11,
		RecordLinkStates: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	src, err := tomography.NewEmpirical(rec)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := tomography.Compile(top, tomography.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := tomography.Estimate("correlation", plan, src, tomography.EstimateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	truth := congestion.Marginals(model)
	var worst float64
	for k := range truth {
		if d := abs(truth[k] - res.CongestionProb[k]); d > worst {
			worst = d
		}
	}
	fmt.Printf("tomography: rank %d/%d, solver %s, worst per-link error %.3f\n",
		res.Linear.System.Rank, top.NumLinks(), res.Linear.Solver, worst)

	// 3. Per-snapshot localization with the learned probabilities, scored
	// against each snapshot's true congested links.
	var congested, inferred []*tomography.PathSet
	for t := 0; t < rec.Snapshots(); t++ {
		links := tomography.NewPathSet()
		rec.Links.RowInto(t, links)
		congested = append(congested, links)
		lr, err := tomography.Localize(top, res.CongestionProb, rec.PathSnapshot(t))
		if err != nil {
			log.Fatal(err)
		}
		inferred = append(inferred, lr.Congested)
	}
	m, err := tomography.EvaluateLocalization(congested, inferred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("localization over %d snapshots: detection rate %.1f%%, false-positive rate %.1f%%\n",
		m.Snapshots, 100*m.DetectionRate, 100*m.FalsePositiveRate)

	// 4. Indirect validation (hold out 20% of paths, predict their behavior).
	cmp, err := tomography.CompareValidation(top, rec, 0.2, 17)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indirect validation (held-out path good-frequency prediction):\n")
	fmt.Printf("  correlation assumption:  mean abs err %.4f (rmse %.4f) over %d paths\n",
		cmp.Correlation.MeanAbsError, cmp.Correlation.RMSE, len(cmp.Correlation.HeldOut))
	fmt.Printf("  independence assumption: mean abs err %.4f (rmse %.4f)\n",
		cmp.Independence.MeanAbsError, cmp.Independence.RMSE)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
