package dynamics

import (
	"fmt"
	"math"
)

// Detector is an online change-point detector over a scalar observable — in
// the tomography pipeline, the per-snapshot fraction of congested paths,
// whose level shifts when a congestion modulator changes state.
//
// Raw per-snapshot fractions are extremely noisy on small monitors (with P
// paths the observable is P-quantized), so each observation first passes
// through an exponentially weighted moving average; the two-sided CUSUM then
// runs on the smoothed signal. The detector learns a baseline mean over the
// first Warmup observations, then accumulates smoothed deviations beyond
// Drift in two one-sided cumulative sums; an alarm fires when either sum
// crosses Threshold. After an alarm the detector resets and re-learns its
// baseline from the post-change observations, so successive shifts each
// produce one alarm. The zero value is not ready; use NewDetector for
// validated defaults.
type Detector struct {
	// Warmup is the number of observations used to learn the baseline mean
	// before deviations accumulate.
	Warmup int
	// Drift is the per-observation slack: smoothed deviations below it never
	// accumulate, making the detector blind to shifts smaller than Drift.
	Drift float64
	// Threshold is the alarm level of the cumulative sums. With a shift of
	// size Δ > Drift, the expected detection lag is ≈ 1/Smoothing (the EWMA
	// rise time) + Threshold/(Δ−Drift) observations.
	Threshold float64
	// Smoothing is the EWMA weight α in (0, 1]: smoothed = α·x + (1−α)·prev.
	// 1 disables smoothing.
	Smoothing float64

	n        int     // observations since the last reset
	mean     float64 // baseline (running mean during warmup, then frozen)
	ewma     float64 // smoothed observable
	pos, neg float64 // one-sided cumulative sums
	total    int     // observations ever seen
	changes  []int   // 0-based observation indices where alarms fired
}

// Default detector tuning: a baseline learned over 50 snapshots, EWMA
// smoothing that suppresses the quantization noise of small monitors,
// shifts of at least 10 percentage points of congested-path fraction
// visible.
const (
	DefaultWarmup    = 50
	DefaultDrift     = 0.10
	DefaultThreshold = 2.5
	DefaultSmoothing = 0.15
)

// NewDetector returns a detector with the given tuning; zero (or negative)
// parameters take the documented defaults (including DefaultSmoothing —
// construct a Detector literal to disable smoothing).
func NewDetector(warmup int, drift, threshold float64) (*Detector, error) {
	if warmup <= 0 {
		warmup = DefaultWarmup
	}
	if drift <= 0 {
		drift = DefaultDrift
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	if math.IsNaN(drift) || math.IsNaN(threshold) {
		return nil, fmt.Errorf("dynamics: detector drift %v / threshold %v must be numbers", drift, threshold)
	}
	return &Detector{Warmup: warmup, Drift: drift, Threshold: threshold, Smoothing: DefaultSmoothing}, nil
}

// Observe feeds one observation and reports whether a change-point alarm
// fired on it.
func (d *Detector) Observe(x float64) bool {
	idx := d.total
	d.total++
	d.n++
	alpha := d.Smoothing
	if alpha <= 0 || alpha > 1 {
		alpha = 1
	}
	if d.total == 1 {
		d.ewma = x
	} else {
		d.ewma += alpha * (x - d.ewma)
	}
	if d.n <= d.Warmup {
		// Baseline learning: running mean of the smoothed signal, no
		// accumulation yet.
		d.mean += (d.ewma - d.mean) / float64(d.n)
		return false
	}
	// The builtin max has math.Max's NaN and ±0 results and compiles
	// inline; math.Max is an assembly call on amd64.
	d.pos = max(0, d.pos+d.ewma-d.mean-d.Drift)
	d.neg = max(0, d.neg+d.mean-d.ewma-d.Drift)
	if d.pos <= d.Threshold && d.neg <= d.Threshold {
		return false
	}
	d.changes = append(d.changes, idx)
	d.n, d.mean, d.pos, d.neg = 0, 0, 0, 0
	return true
}

// ChangePoints returns the 0-based observation indices at which alarms
// fired, in order.
func (d *Detector) ChangePoints() []int {
	out := make([]int, len(d.changes))
	copy(out, d.changes)
	return out
}

// Alarms returns how many alarms have fired — len(ChangePoints()) without
// copying the index list.
func (d *Detector) Alarms() int { return len(d.changes) }

// Observed returns the number of observations fed so far.
func (d *Detector) Observed() int { return d.total }
