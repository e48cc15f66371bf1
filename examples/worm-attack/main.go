// Worm attack: the unknown-correlation-pattern scenario of Section 5
// ("Unknown Correlation Patterns", Figure 5).
//
// A worm periodically orders compromised hosts to flood a set of otherwise
// uncorrelated links. The flooded links congest simultaneously — they are
// correlated — but no operator can know the worm's target list, so the
// tomography algorithm mislabels them as uncorrelated.
//
// The example generates a Brite-style inter-domain topology, overlays a
// hidden attack on links drawn from distinct correlation sets, and measures
// how both algorithms degrade. The correlation algorithm only loses accuracy
// on (some of) the mislabeled links; the independence baseline additionally
// ignores every known correlation set, and its errors compound.
//
// Run with:
//
//	go run ./examples/worm-attack
package main

import (
	"context"
	"fmt"
	"log"

	tomography "repro"
	"repro/internal/brite"
	"repro/internal/eval"
	"repro/internal/netsim"
	"repro/internal/scenario"
)

func main() {
	net, err := brite.Generate(brite.Config{ASes: 60, EdgesPerAS: 2, Paths: 250, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	top := net.Topology
	fmt.Println("topology:", top)

	// Base congestion: 8% of links congested, highly correlated within
	// correlation sets (all known to the algorithm).
	base, err := scenario.Brite(scenario.BriteConfig{
		Net: net, FracCongested: 0.08, Level: scenario.HighCorrelation, Seed: 13,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The worm: every snapshot, with probability 0.3, it floods its target
	// links — chosen across distinct correlation sets so that the induced
	// correlation crosses every boundary the operator knows about. Half of
	// all congested links end up mislabeled.
	attacked, err := scenario.WithMislabeled(base, 0.5, 0.3, 17)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("congested links: %d (of which %d are worm targets, mislabeled as uncorrelated)\n",
		attacked.CongestedLinks.Len(), attacked.Mislabeled.Len())

	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: top, Model: attacked.Model, Snapshots: 2500, Seed: 23,
	})
	if err != nil {
		log.Fatal(err)
	}
	src, err := tomography.NewEmpirical(rec)
	if err != nil {
		log.Fatal(err)
	}

	// One compiled plan serves both estimators over the same record.
	plan, err := tomography.Compile(top, tomography.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	corr, err := tomography.Estimate("correlation", plan, src, tomography.EstimateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	indep, err := tomography.Estimate("independence", plan, src, tomography.EstimateOptions{
		Algorithm: tomography.Options{UseAllEquations: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, include interface{ Contains(int) bool }, n int) {
		ce := eval.AbsErrors(attacked.Truth, corr.CongestionProb, nil)
		_ = ce
		var cErrs, iErrs []float64
		for k := range attacked.Truth {
			if !include.Contains(k) {
				continue
			}
			cErrs = append(cErrs, abs(attacked.Truth[k]-corr.CongestionProb[k]))
			iErrs = append(iErrs, abs(attacked.Truth[k]-indep.CongestionProb[k]))
		}
		fmt.Printf("%-34s correlation mean-err %.4f | independence mean-err %.4f (%d links)\n",
			name, eval.Mean(cErrs), eval.Mean(iErrs), n)
	}
	fmt.Println()
	report("all potentially congested links:", attacked.PotentiallyCongested, attacked.PotentiallyCongested.Len())
	report("worm-target (mislabeled) links:", attacked.Mislabeled, attacked.Mislabeled.Len())

	fmt.Println("\nworst-inferred worm targets (correlation algorithm):")
	shown := 0
	attacked.Mislabeled.ForEach(func(k int) bool {
		fmt.Printf("  link %-4d true %.3f  correlation %.3f  independence %.3f\n",
			k, attacked.Truth[k], corr.CongestionProb[k], indep.CongestionProb[k])
		shown++
		return shown < 6
	})
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
