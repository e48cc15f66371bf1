// Package dynamics provides time-indexed congestion processes: joint
// distributions over link congestion states that evolve across snapshots,
// replacing the simulator's i.i.d. per-snapshot draw with temporally
// correlated workloads.
//
// The paper's core claim is that link losses are correlated because links
// share congestion sources. The standard dynamic extension of that model in
// loss tomography is the Markov-modulated (on/off) process: each correlation
// group carries a hidden two-state modulator chain — congestion "bursts"
// while the modulator is on, background noise while it is off — so links in
// one group congest together in time as well as in space. MarkovModulated
// implements exactly that, with configurable ignition rates, mean burst
// lengths, cross-group coupling through an optional global driver chain (a
// flash-crowd/worm-style common cause), and deterministic forced bursts for
// injecting known congestion-state shifts into demos and tests.
//
// A Process is an immutable specification. Start(seed) begins one
// deterministic realization; the netsim engine drives it one snapshot at a
// time (netsim.Run with Config.Process), emitting observations into the columnar
// measurement store through the streaming Append path. StationaryMarginals
// exposes the long-run per-link congestion probabilities — the ground truth
// that windowed online inference (tomography.Window) is evaluated against
// between state shifts.
package dynamics

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitset"
)

// Process is a time-indexed congestion process over a fixed set of links.
// Implementations must be immutable after construction and safe for
// concurrent use; all evolution state lives in the Run.
type Process interface {
	// NumLinks returns the number of links the process covers.
	NumLinks() int
	// StationaryMarginals returns the long-run P(link k congested) — the
	// truth dynamic scenarios are evaluated against. Transient injections
	// (forced bursts) are excluded.
	StationaryMarginals() []float64
	// Start begins a deterministic realization: two runs started with the
	// same seed draw identical snapshot sequences.
	Start(seed int64) Run
}

// Run is one realization of a Process. Next must be called sequentially —
// snapshot t's state depends on snapshot t−1's — so a Run is not safe for
// concurrent use.
type Run interface {
	// Next advances one snapshot and draws its congested-link set into out
	// (cleared first).
	Next(out *bitset.Set)
}

// Chain parameterizes one on/off modulator: a two-state Markov chain over
// snapshots.
type Chain struct {
	// POn is the per-snapshot ignition probability P(off → on).
	POn float64
	// MeanBurst is the expected on-run length in snapshots (≥ 1); the
	// extinction probability is P(on → off) = 1/MeanBurst.
	MeanBurst float64
}

// validate checks the chain's parameters.
func (c Chain) validate(what string) error {
	if c.POn < 0 || c.POn > 1 || math.IsNaN(c.POn) {
		return fmt.Errorf("dynamics: %s ignition probability %v out of [0,1]", what, c.POn)
	}
	if c.MeanBurst < 1 || math.IsNaN(c.MeanBurst) || math.IsInf(c.MeanBurst, 0) {
		return fmt.Errorf("dynamics: %s mean burst length %v, want finite ≥ 1", what, c.MeanBurst)
	}
	return nil
}

// pOff returns the extinction probability P(on → off).
func (c Chain) pOff() float64 { return 1 / c.MeanBurst }

// Group configures one modulated congestion group: a set of links driven by
// a shared on/off modulator.
type Group struct {
	// Links are the link indices this group's modulator drives. A link may
	// appear in at most one group.
	Links []int
	// Chain is the group's modulator.
	Chain Chain
	// OnProb[i] is P(Links[i] congested | modulator on) — the burst rate.
	OnProb []float64
	// OffProb[i] is P(Links[i] congested | modulator off) — the background
	// (idiosyncratic) rate.
	OffProb []float64
	// Coupling in [0,1] couples this group to the global driver: while the
	// driver is on, the ignition probability is boosted to
	// POn + Coupling·(1−POn), so a global event ignites many groups at once.
	// Zero (or a nil Config.Global) leaves the group independent.
	Coupling float64
}

// ForcedBurst deterministically forces a modulator on during [Start, End) —
// the injection mechanism behind "known congestion-state shift" demos and
// change-point detection tests. Forced bursts are transient: they do not
// contribute to StationaryMarginals.
type ForcedBurst struct {
	// Group indexes Config.Groups; −1 forces the global driver.
	Group int
	// Start and End bound the forced-on snapshot range [Start, End).
	Start, End int
}

// Config parameterizes NewMarkovModulated.
type Config struct {
	// NumLinks is the size of the link namespace. Links not claimed by any
	// group are never congested.
	NumLinks int
	// Groups are the modulated congestion groups.
	Groups []Group
	// Global, when non-nil, is the cross-group driver chain groups couple to
	// via their Coupling factor.
	Global *Chain
	// Force lists deterministic modulator overrides.
	Force []ForcedBurst
}

// MarkovModulated is the Markov-modulated on/off congestion process: per
// group, a hidden two-state modulator chain selects between burst (OnProb)
// and background (OffProb) per-link congestion rates, and an optional global
// driver chain couples ignitions across groups. It implements Process.
type MarkovModulated struct {
	cfg        config
	stationary []float64
}

// config is the validated, defensively copied form of Config.
type config struct {
	numLinks int
	groups   []Group
	global   *Chain
	force    []ForcedBurst
}

// NewMarkovModulated validates the configuration and builds the process.
func NewMarkovModulated(cfg Config) (*MarkovModulated, error) {
	if cfg.NumLinks <= 0 {
		return nil, fmt.Errorf("dynamics: NumLinks = %d, want > 0", cfg.NumLinks)
	}
	if cfg.Global != nil {
		if err := cfg.Global.validate("global driver"); err != nil {
			return nil, err
		}
	}
	claimed := make([]bool, cfg.NumLinks)
	groups := make([]Group, len(cfg.Groups))
	for g, grp := range cfg.Groups {
		if len(grp.Links) == 0 {
			return nil, fmt.Errorf("dynamics: group %d has no links", g)
		}
		if len(grp.OnProb) != len(grp.Links) || len(grp.OffProb) != len(grp.Links) {
			return nil, fmt.Errorf("dynamics: group %d has %d links but %d on-probs and %d off-probs",
				g, len(grp.Links), len(grp.OnProb), len(grp.OffProb))
		}
		if err := grp.Chain.validate(fmt.Sprintf("group %d", g)); err != nil {
			return nil, err
		}
		if grp.Coupling < 0 || grp.Coupling > 1 || math.IsNaN(grp.Coupling) {
			return nil, fmt.Errorf("dynamics: group %d coupling %v out of [0,1]", g, grp.Coupling)
		}
		for i, k := range grp.Links {
			if k < 0 || k >= cfg.NumLinks {
				return nil, fmt.Errorf("dynamics: group %d link %d out of range [0,%d)", g, k, cfg.NumLinks)
			}
			if claimed[k] {
				return nil, fmt.Errorf("dynamics: link %d claimed by two groups", k)
			}
			claimed[k] = true
			for _, p := range []float64{grp.OnProb[i], grp.OffProb[i]} {
				if p < 0 || p > 1 || math.IsNaN(p) {
					return nil, fmt.Errorf("dynamics: group %d link %d congestion probability %v out of [0,1]", g, k, p)
				}
			}
		}
		groups[g] = Group{
			Links:    append([]int{}, grp.Links...),
			Chain:    grp.Chain,
			OnProb:   append([]float64{}, grp.OnProb...),
			OffProb:  append([]float64{}, grp.OffProb...),
			Coupling: grp.Coupling,
		}
	}
	for _, f := range cfg.Force {
		if f.Group < -1 || f.Group >= len(cfg.Groups) {
			return nil, fmt.Errorf("dynamics: forced burst targets group %d, want [-1,%d)", f.Group, len(cfg.Groups))
		}
		if f.Group == -1 && cfg.Global == nil {
			return nil, fmt.Errorf("dynamics: forced burst targets the global driver, but none is configured")
		}
		if f.Start < 0 || f.End <= f.Start {
			return nil, fmt.Errorf("dynamics: forced burst range [%d,%d) is empty or negative", f.Start, f.End)
		}
	}
	var global *Chain
	if cfg.Global != nil {
		g := *cfg.Global
		global = &g
	}
	m := &MarkovModulated{cfg: config{
		numLinks: cfg.NumLinks,
		groups:   groups,
		global:   global,
		force:    append([]ForcedBurst{}, cfg.Force...),
	}}
	m.stationary = m.computeStationary()
	return m, nil
}

// NumLinks implements Process.
func (m *MarkovModulated) NumLinks() int { return m.cfg.numLinks }

// StationaryMarginals implements Process: per link, the stationary
// probability the modulator is on times OnProb plus the complement times
// OffProb. With coupling, the (driver, modulator) pair is itself a four-state
// Markov chain whose stationary distribution is computed by power iteration.
func (m *MarkovModulated) StationaryMarginals() []float64 {
	out := make([]float64, len(m.stationary))
	copy(out, m.stationary)
	return out
}

// GroupStationaryOn returns the stationary probability that group g's
// modulator is on.
func (m *MarkovModulated) GroupStationaryOn(g int) float64 {
	return m.groupPiOn(m.cfg.groups[g])
}

// groupPiOn computes one group's stationary on-probability.
func (m *MarkovModulated) groupPiOn(grp Group) float64 {
	pOn, pOff := grp.Chain.POn, grp.Chain.pOff()
	if m.cfg.global == nil || grp.Coupling == 0 {
		if pOn == 0 && pOff == 0 {
			return 0
		}
		return pOn / (pOn + pOff)
	}
	// Coupled: the pair (driver z, modulator h) is Markov. The driver
	// transitions first, then the modulator ignites under the NEW driver
	// state (a global event ignites groups in the same snapshot). Power-
	// iterate the 4-state distribution to its fixed point.
	zOn, zOff := m.cfg.global.POn, m.cfg.global.pOff()
	boosted := pOn + grp.Coupling*(1-pOn)
	pz := [2][2]float64{{1 - zOn, zOn}, {zOff, 1 - zOff}} // pz[z][z']
	ignite := [2]float64{pOn, boosted}                    // P(off→on | z')
	ph := func(zn, h, hn int) float64 {                   // P(h→h' | z')
		if h == 0 {
			return [2]float64{1 - ignite[zn], ignite[zn]}[hn]
		}
		return [2]float64{pOff, 1 - pOff}[hn]
	}
	// State index: z*2 + h.
	pi := [4]float64{0.25, 0.25, 0.25, 0.25}
	for iter := 0; iter < 100000; iter++ {
		var next [4]float64
		for s, p := range pi {
			if p == 0 {
				continue
			}
			z, h := s/2, s%2
			for zn := 0; zn < 2; zn++ {
				for hn := 0; hn < 2; hn++ {
					next[zn*2+hn] += p * pz[z][zn] * ph(zn, h, hn)
				}
			}
		}
		delta := 0.0
		for s := range pi {
			delta += math.Abs(next[s] - pi[s])
		}
		pi = next
		if delta < 1e-15 {
			break
		}
	}
	return pi[1] + pi[3]
}

// computeStationary fills the per-link stationary marginals.
func (m *MarkovModulated) computeStationary() []float64 {
	out := make([]float64, m.cfg.numLinks)
	for _, grp := range m.cfg.groups {
		piOn := m.groupPiOn(grp)
		for i, k := range grp.Links {
			out[k] = piOn*grp.OnProb[i] + (1-piOn)*grp.OffProb[i]
		}
	}
	return out
}

// Start implements Process. The initial modulator states are drawn from
// each chain's stationary distribution, so realizations are stationary from
// snapshot 0 (absent forced bursts).
func (m *MarkovModulated) Start(seed int64) Run {
	rng := rand.New(rand.NewSource(seed))
	r := &mmRun{m: m, rng: rng, on: make([]bool, len(m.cfg.groups))}
	if m.cfg.global != nil {
		c := *m.cfg.global
		r.globalOn = rng.Float64() < c.POn/(c.POn+c.pOff())
	}
	for g, grp := range m.cfg.groups {
		r.on[g] = rng.Float64() < m.groupPiOn(grp)
	}
	return r
}

// mmRun is one realization of a MarkovModulated process.
type mmRun struct {
	m        *MarkovModulated
	rng      *rand.Rand
	t        int
	globalOn bool
	on       []bool
}

// forced reports whether a forced burst pins the modulator of group g
// (−1 = global driver) on at snapshot t.
func (r *mmRun) forced(g, t int) bool {
	for _, f := range r.m.cfg.force {
		if f.Group == g && t >= f.Start && t < f.End {
			return true
		}
	}
	return false
}

// Next implements Run: advance the driver, then every group modulator, then
// emit per-link congestion conditioned on the modulator states.
func (r *mmRun) Next(out *bitset.Set) {
	out.Clear()
	cfg := &r.m.cfg
	if cfg.global != nil {
		if r.globalOn {
			r.globalOn = r.rng.Float64() >= cfg.global.pOff()
		} else {
			r.globalOn = r.rng.Float64() < cfg.global.POn
		}
	}
	globalOn := r.globalOn || r.forced(-1, r.t)
	for g := range cfg.groups {
		grp := &cfg.groups[g]
		if r.on[g] {
			r.on[g] = r.rng.Float64() >= grp.Chain.pOff()
		} else {
			ignite := grp.Chain.POn
			if globalOn && grp.Coupling > 0 {
				ignite += grp.Coupling * (1 - ignite)
			}
			r.on[g] = r.rng.Float64() < ignite
		}
		on := r.on[g] || r.forced(g, r.t)
		probs := grp.OffProb
		if on {
			probs = grp.OnProb
		}
		for i, k := range grp.Links {
			if p := probs[i]; p > 0 && r.rng.Float64() < p {
				out.Add(k)
			}
		}
	}
	r.t++
}

// GroupOn reports whether group g's modulator (including forced bursts) was
// on in the most recently drawn snapshot. It is a diagnostics hook for tests
// and demos; it panics before the first Next.
func (r *mmRun) GroupOn(g int) bool {
	if r.t == 0 {
		panic("dynamics: GroupOn before the first Next")
	}
	return r.on[g] || r.forced(g, r.t-1)
}
