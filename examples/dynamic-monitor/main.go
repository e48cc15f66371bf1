// Windowed online tomography over a time-evolving network.
//
// Static batch inference answers "what were the link congestion
// probabilities over the whole measurement campaign?" — but real networks
// shift: a flash crowd ignites, links start flapping, a maintenance window
// ends. This example drives the temporal-dynamics pipeline end to end:
//
//  1. the ground truth is a Markov-modulated congestion process on the
//     Figure-1(a) topology whose correlated group {e1, e2} is quiet until a
//     congestion-state shift is injected at a known snapshot (a forced
//     burst), flooding both links simultaneously;
//  2. a sliding-window monitor (tomography.Window) observes the live feed
//     through the simulator's OnSnapshot tap: one compiled plan, incremental
//     window eviction, and a CUSUM change-point detector on the congested-
//     path fraction;
//  3. when the detector fires, the example reports the detection lag — how
//     many snapshots after the true shift the alarm came — and shows the
//     windowed estimates tracking the new regime while a whole-history
//     batch estimate still dilutes the burst with thousands of quiet
//     snapshots.
//
// Run with:
//
//	go run ./examples/dynamic-monitor
package main

import (
	"fmt"
	"log"

	tomography "repro"
)

func main() {
	top := tomography.Figure1A()

	// Ground truth: links e1 (0) and e2 (1) form the correlated group. The
	// modulator never ignites on its own; the injected burst at t=shift is
	// the congestion-state change the monitor must catch.
	const (
		snapshots = 6000
		shift     = 3000
		window    = 400
	)
	proc, err := tomography.NewMarkovModulated(tomography.MarkovConfig{
		NumLinks: top.NumLinks(),
		Groups: []tomography.MarkovGroup{{
			Links:   []int{0, 1},
			Chain:   tomography.MarkovChain{POn: 0, MeanBurst: 1},
			OnProb:  []float64{0.85, 0.75},
			OffProb: []float64{0.04, 0.03},
		}},
		Force: []tomography.ForcedBurst{{Group: 0, Start: shift, End: snapshots}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The monitor: a 400-snapshot sliding window with the default CUSUM
	// change-point detector, estimating through one compiled plan.
	monitor, err := tomography.NewWindow(top, tomography.WindowConfig{Size: window})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("monitoring %d paths with a %d-snapshot sliding window; true shift at t=%d\n\n",
		top.NumPaths(), window, shift)
	fmt.Printf("%8s  %-28s %s\n", "t", "windowed P(congested)", "event")

	detectedAt := -1
	checkpoints := map[int]bool{1000: true, 2900: true, 3100: true, 3400: true, 5900: true}
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: top, Process: proc, Snapshots: snapshots, Seed: 42,
		OnSnapshot: func(t int, congested *tomography.PathSet) {
			changed := monitor.Observe(congested)
			event := ""
			if changed && detectedAt < 0 {
				detectedAt = t
				event = fmt.Sprintf("congestion-state shift detected (lag %d snapshots)", t-shift)
			}
			if checkpoints[t] || event != "" {
				res, err := monitor.Estimate()
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("%8d  %-28s %s\n", t, fmtProbs(res.CongestionProb), event)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if detectedAt < 0 {
		log.Fatal("the injected shift was never detected")
	}

	// The contrast: a whole-history batch estimate over all 6000 snapshots
	// still averages the quiet half against the burst half, while the
	// window has fully converged to the new regime.
	batchSrc, err := tomography.NewEmpirical(rec)
	if err != nil {
		log.Fatal(err)
	}
	batch, err := tomography.Estimate("correlation", monitor.Plan(), batchSrc, tomography.EstimateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	final, err := monitor.Estimate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter the shift (burst truth: e1=0.856, e2=0.757):\n")
	fmt.Printf("  %-24s %s\n", "whole-history batch:", fmtProbs(batch.CongestionProb))
	fmt.Printf("  %-24s %s\n", "sliding window:", fmtProbs(final.CongestionProb))
	fmt.Printf("\ndetection lag: %d snapshots; change points: %v\n",
		detectedAt-shift, monitor.ChangePoints())
}

func fmtProbs(p []float64) string {
	s := "["
	for i, v := range p {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", v)
	}
	return s + "]"
}
