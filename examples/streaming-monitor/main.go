// Streaming (online) tomography over the columnar measurement store.
//
// Real monitoring systems do not collect a fixed batch of snapshots and
// stop: probes arrive continuously, and operators want current estimates at
// any moment (the continuous-monitoring deployment mode of the
// Nguyen–Thiran line of work). This example drives exactly that loop:
//
//  1. snapshots arrive one at a time and are appended to a streaming
//     Empirical source (an unbounded window on the chunked column store
//     that also holds a finished Record's columns);
//  2. the topology is compiled into an inference plan ONCE — at every
//     checkpoint only the probability right-hand side is re-filled from
//     the stream and re-solved, so estimates sharpen as measurements
//     accumulate without re-deriving the equation structure each time;
//  3. after the last snapshot, the streaming estimates are compared against
//     a one-shot batch over the same data — they are identical, bit for
//     bit, which is the store's streaming-equals-batch guarantee.
//
// Run with:
//
//	go run ./examples/streaming-monitor
package main

import (
	"fmt"
	"log"

	tomography "repro"
)

func main() {
	top := tomography.Figure1A()

	// Ground truth for the simulated feed: the Figure-1(a) correlated model.
	scn, err := tomography.NewScenario(tomography.ScenarioConfig{
		Topology: top, FracCongested: 0.5, Seed: 21, // default Level: high correlation
	})
	if err != nil {
		log.Fatal(err)
	}

	// The "network": a finished simulation record standing in for a probe
	// feed. Snapshots are replayed from it one at a time below.
	const snapshots = 20000
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: top, Model: scn.Model, Snapshots: snapshots, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Compile the topology's inference plan once: admissible path/pair
	// selection and the equation structure are fixed by the topology, so
	// every checkpoint below reuses them and only re-fills probabilities.
	plan, err := tomography.Compile(top, tomography.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Online estimation: append each arriving snapshot, re-estimate at
	// checkpoints.
	stream := tomography.NewStreaming(top.NumPaths())
	fmt.Printf("streaming %d snapshots through a %d-path monitor:\n\n", snapshots, top.NumPaths())
	fmt.Printf("%10s  %s\n", "snapshots", "inferred P(congested) per link")
	for t := 0; t < snapshots; t++ {
		stream.Append(rec.PathSnapshot(t))
		if n := t + 1; n == 500 || n == 2000 || n == 8000 || n == snapshots {
			res, err := tomography.Estimate("correlation", plan, stream, tomography.EstimateOptions{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%10d  %v\n", n, fmtProbs(res.CongestionProb))
		}
	}

	// The cross-check: a one-shot batch over the same record must agree
	// exactly with the stream's final state.
	batch, err := tomography.NewEmpirical(rec)
	if err != nil {
		log.Fatal(err)
	}
	resStream, err := tomography.Estimate("correlation", plan, stream, tomography.EstimateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	resBatch, err := tomography.Estimate("correlation", plan, batch, tomography.EstimateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for k := range resBatch.CongestionProb {
		if resStream.CongestionProb[k] != resBatch.CongestionProb[k] {
			log.Fatalf("link %d: streaming %v != batch %v",
				k, resStream.CongestionProb[k], resBatch.CongestionProb[k])
		}
	}
	fmt.Printf("\nstreaming estimates are identical to the one-shot batch over the same %d snapshots ✓\n", snapshots)
}

func fmtProbs(p []float64) string {
	s := "["
	for i, v := range p {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", v)
	}
	return s + "]"
}
