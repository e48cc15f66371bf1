package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples a reported percentile needs beyond it: p50
// needs 20 samples, p90 needs 100. A percentile with fewer samples behind
// it is a single draw of host noise, not a property of the system.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by the nearest-rank
// rule, or an error when xs has fewer than minTail samples beyond it. xs is
// sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	// The epsilon keeps p·n from rounding up past an exact integer.
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if beyond := n - 1 - i; n == 0 || beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p*100, minTail, max(beyond, 0), n)
	}
	sort.Float64s(xs)
	return xs[i], nil
}

// medianOf returns the median of a handful of repeated measurements (such
// as the set-ups of one run), where no tail percentile is reported.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects one metric's per-operation samples in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// p50p90 reports the median and 90th percentile of the samples under the
// percentile rule.
func (l latencies) p50p90() (p50, p90 float64, err error) {
	xs := append([]float64(nil), l...)
	if p50, err = percentile(xs, 0.5); err != nil {
		return 0, 0, err
	}
	p90, err = percentile(xs, 0.9)
	return p50, p90, err
}

// p50 reports the median under the percentile rule.
func (l latencies) p50() (float64, error) {
	return percentile(append([]float64(nil), l...), 0.5)
}

// phaseTrials is how many trials of the same load a daemon workload's timed
// phase runs. Each metric reports its best trial: on a shared host a
// neighbour's burst can slow a whole trial, while a change in the program
// moves every trial.
const phaseTrials = 3

// best keeps each metric's best value over a phase's trials.
type best map[string]float64

func (b best) keep(name string, v float64, higherIsBetter bool) {
	if old, ok := b[name]; !ok || (higherIsBetter && v > old) || (!higherIsBetter && v < old) {
		b[name] = v
	}
}

// keepP50P90 keeps <prefix>_p50_ms and <prefix>_p90_ms of one trial.
func (b best) keepP50P90(prefix string, l latencies) error {
	p50, p90, err := l.p50p90()
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	b.keep(prefix+"_p50_ms", p50, false)
	b.keep(prefix+"_p90_ms", p90, false)
	return nil
}
