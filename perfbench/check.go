package main

import (
	"fmt"
	"math"

	tomography "repro"
)

// offlineEstimate replays feed rows [start, start+n) through the offline
// WindowedEstimate with an n-snapshot window and returns its estimate at
// the last row. A sliding window estimates bit-identically to a batch over
// the rows it retains, so this is the reference for any window of n
// snapshots whose newest row is start+n−1, however many rows it evicted.
func offlineEstimate(s *stream, start, n int, estimator string) ([]float64, error) {
	pts, err := tomography.WindowedEstimate(s.top, s.record(start, n),
		tomography.WindowConfig{Size: n, Estimator: estimator}, n)
	if err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("offline replay produced no estimate")
	}
	return pts[len(pts)-1].Result.CongestionProb, nil
}

// sameBits reports the first link whose probability differs in any bit.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d links, offline replay has %d", len(got), len(want))
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			return fmt.Errorf("link %d: %v, offline replay %v", k, got[k], want[k])
		}
	}
	return nil
}

// inUnit rejects a probability vector with an entry outside [0, 1] (NaN
// included).
func inUnit(p []float64) error {
	if len(p) == 0 {
		return fmt.Errorf("empty estimate")
	}
	for k, v := range p {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("link %d: probability %v outside [0, 1]", k, v)
		}
	}
	return nil
}

// checkFinal compares a final estimate with the offline replay of the
// window it covers: the n feed rows ending at row end−1.
func checkFinal(s *stream, end, n int, estimator string, got []float64) error {
	if err := inUnit(got); err != nil {
		return err
	}
	want, err := offlineEstimate(s, end-n, n, estimator)
	if err != nil {
		return err
	}
	return sameBits(got, want)
}
