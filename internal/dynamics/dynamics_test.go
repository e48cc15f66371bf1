package dynamics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// testProcess builds a two-group process with a coupled global driver.
func testProcess(t *testing.T) *MarkovModulated {
	t.Helper()
	m, err := NewMarkovModulated(Config{
		NumLinks: 8,
		Groups: []Group{
			{
				Links:   []int{0, 1, 2},
				Chain:   Chain{POn: 0.02, MeanBurst: 40},
				OnProb:  []float64{0.9, 0.8, 0.7},
				OffProb: []float64{0.01, 0.01, 0.02},
			},
			{
				Links:    []int{4, 5},
				Chain:    Chain{POn: 0.01, MeanBurst: 20},
				OnProb:   []float64{0.6, 0.6},
				OffProb:  []float64{0.0, 0.05},
				Coupling: 0.8,
			},
		},
		Global: &Chain{POn: 0.005, MeanBurst: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStartIsDeterministic(t *testing.T) {
	m := testProcess(t)
	a, b := m.Start(7), m.Start(7)
	c := m.Start(8)
	sa, sb, sc := bitset.New(8), bitset.New(8), bitset.New(8)
	differs := false
	for i := 0; i < 500; i++ {
		a.Next(sa)
		b.Next(sb)
		c.Next(sc)
		if !sa.Equal(sb) {
			t.Fatalf("snapshot %d: same seed diverged: %v vs %v", i, sa, sb)
		}
		if !sa.Equal(sc) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 drew identical 500-snapshot realizations")
	}
}

// TestStationaryMarginalsMatchEmpirical draws a long realization and checks
// the empirical per-link congestion frequencies against the computed
// stationary marginals.
func TestStationaryMarginalsMatchEmpirical(t *testing.T) {
	if testing.Short() {
		t.Skip("long-run frequency convergence")
	}
	m := testProcess(t)
	truth := m.StationaryMarginals()
	const n = 400000
	counts := make([]int, m.NumLinks())
	run := m.Start(99)
	out := bitset.New(m.NumLinks())
	for i := 0; i < n; i++ {
		run.Next(out)
		out.ForEach(func(k int) bool {
			counts[k]++
			return true
		})
	}
	for k, want := range truth {
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("link %d: empirical frequency %.4f, stationary marginal %.4f", k, got, want)
		}
	}
	// Unclaimed links never congest.
	for _, k := range []int{3, 6, 7} {
		if counts[k] != 0 || truth[k] != 0 {
			t.Errorf("unclaimed link %d: %d congestions, marginal %v", k, counts[k], truth[k])
		}
	}
}

// TestTemporalCorrelation verifies the point of the whole package: the
// process is bursty in time. P(link congested at t+1 | congested at t) must
// clearly exceed the marginal P(link congested).
func TestTemporalCorrelation(t *testing.T) {
	m := testProcess(t)
	const n = 60000
	run := m.Start(3)
	out := bitset.New(m.NumLinks())
	prev := false
	congested, after, both := 0, 0, 0
	for i := 0; i < n; i++ {
		run.Next(out)
		cur := out.Contains(0)
		if cur {
			congested++
		}
		if i > 0 {
			after++
			if prev && cur {
				both++
			}
		}
		prev = cur
	}
	marginal := float64(congested) / n
	prevCongested := 0
	// recount conditional: P(cur | prev)
	run = m.Start(3)
	prev = false
	cond := 0
	for i := 0; i < n; i++ {
		run.Next(out)
		cur := out.Contains(0)
		if i > 0 && prev {
			prevCongested++
			if cur {
				cond++
			}
		}
		prev = cur
	}
	conditional := float64(cond) / float64(prevCongested)
	if conditional < 2*marginal {
		t.Fatalf("P(congested | congested before) = %.3f, marginal %.3f: no temporal correlation", conditional, marginal)
	}
}

// TestCrossGroupCoupling verifies that a coupled group bursts more often
// than the same group uncoupled — the driver raises its stationary
// on-probability — and that the coupled marginals still match a long run
// (covered by TestStationaryMarginalsMatchEmpirical).
func TestCrossGroupCoupling(t *testing.T) {
	base := Config{
		NumLinks: 2,
		Groups: []Group{{
			Links:   []int{0, 1},
			Chain:   Chain{POn: 0.01, MeanBurst: 10},
			OnProb:  []float64{0.9, 0.9},
			OffProb: []float64{0.0, 0.0},
		}},
		Global: &Chain{POn: 0.05, MeanBurst: 100},
	}
	uncoupled, err := NewMarkovModulated(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Groups[0].Coupling = 0.9
	coupled, err := NewMarkovModulated(base)
	if err != nil {
		t.Fatal(err)
	}
	if u, c := uncoupled.GroupStationaryOn(0), coupled.GroupStationaryOn(0); c <= u {
		t.Fatalf("coupling did not raise the stationary on-probability: coupled %.4f ≤ uncoupled %.4f", c, u)
	}
}

// TestForcedBurst verifies a forced burst congests its group during exactly
// the forced range, regardless of the chain state.
func TestForcedBurst(t *testing.T) {
	m, err := NewMarkovModulated(Config{
		NumLinks: 2,
		Groups: []Group{{
			Links:   []int{0, 1},
			Chain:   Chain{POn: 0, MeanBurst: 1}, // never ignites on its own
			OnProb:  []float64{1, 1},
			OffProb: []float64{0, 0},
		}},
		Force: []ForcedBurst{{Group: 0, Start: 10, End: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := m.Start(1)
	out := bitset.New(2)
	for i := 0; i < 40; i++ {
		run.Next(out)
		inBurst := i >= 10 && i < 20
		if got := out.Contains(0) && out.Contains(1); got != inBurst {
			t.Fatalf("snapshot %d: congested=%v, want %v", i, got, inBurst)
		}
		if gr := run.(*mmRun); gr.GroupOn(0) != inBurst {
			t.Fatalf("snapshot %d: GroupOn=%v, want %v", i, gr.GroupOn(0), inBurst)
		}
	}
	// Forced bursts are transient: stationary marginals ignore them.
	if got := m.StationaryMarginals()[0]; got != 0 {
		t.Fatalf("stationary marginal %v with a never-igniting chain, want 0", got)
	}
}

func TestConfigValidation(t *testing.T) {
	valid := func() Config {
		return Config{
			NumLinks: 4,
			Groups: []Group{{
				Links:   []int{0, 1},
				Chain:   Chain{POn: 0.1, MeanBurst: 5},
				OnProb:  []float64{0.5, 0.5},
				OffProb: []float64{0, 0},
			}},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		errPart string
	}{
		{"no links", func(c *Config) { c.NumLinks = 0 }, "NumLinks"},
		{"empty group", func(c *Config) { c.Groups[0].Links = nil }, "no links"},
		{"prob shape", func(c *Config) { c.Groups[0].OnProb = []float64{0.5} }, "on-probs"},
		{"bad ignition", func(c *Config) { c.Groups[0].Chain.POn = 1.5 }, "ignition"},
		{"bad burst", func(c *Config) { c.Groups[0].Chain.MeanBurst = 0.5 }, "burst"},
		{"bad coupling", func(c *Config) { c.Groups[0].Coupling = -1 }, "coupling"},
		{"link out of range", func(c *Config) { c.Groups[0].Links = []int{0, 9} }, "out of range"},
		{"duplicate link", func(c *Config) { c.Groups = append(c.Groups, c.Groups[0]) }, "two groups"},
		{"bad on-prob", func(c *Config) { c.Groups[0].OnProb[0] = 2 }, "congestion probability"},
		{"forced burst without driver", func(c *Config) { c.Force = []ForcedBurst{{Group: -1, Start: 0, End: 1}} }, "global driver"},
		{"forced burst bad group", func(c *Config) { c.Force = []ForcedBurst{{Group: 7, Start: 0, End: 1}} }, "targets group"},
		{"forced burst empty range", func(c *Config) { c.Force = []ForcedBurst{{Group: 0, Start: 5, End: 5}} }, "empty"},
	}
	for _, tc := range cases {
		cfg := valid()
		tc.mutate(&cfg)
		if _, err := NewMarkovModulated(cfg); err == nil {
			t.Errorf("%s: config accepted, want error", tc.name)
		} else if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errPart)
		}
	}
}

// TestDetector pins the CUSUM detector's behavior on a synthetic level
// shift: no alarm on the flat baseline, one alarm shortly after the shift.
func TestDetector(t *testing.T) {
	d, err := NewDetector(30, 0.05, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Flat baseline at 0.1 for 200 observations: no alarms.
	for i := 0; i < 200; i++ {
		if d.Observe(0.1) {
			t.Fatalf("false alarm at flat observation %d", i)
		}
	}
	// Level shift to 0.5: alarm within Threshold/(Δ−Drift) ≈ 3 observations
	// (allow a little slack).
	fired := -1
	for i := 0; i < 50; i++ {
		if d.Observe(0.5) {
			fired = i
			break
		}
	}
	if fired < 0 || fired > 25 {
		t.Fatalf("shift detected at lag %d, want within [0,25]", fired)
	}
	cps := d.ChangePoints()
	if len(cps) != 1 || cps[0] != 200+fired {
		t.Fatalf("change points %v, want [%d]", cps, 200+fired)
	}
	// The detector re-learns the new baseline: continued 0.5 observations
	// (past the fresh warmup) stay quiet.
	for i := 0; i < 200; i++ {
		if d.Observe(0.5) {
			t.Fatalf("false alarm %d observations after re-baselining", i)
		}
	}
	if d.Observed() != 200+fired+1+200 {
		t.Fatalf("Observed() = %d", d.Observed())
	}
}

func TestDetectorDefaults(t *testing.T) {
	d, err := NewDetector(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Warmup != DefaultWarmup || d.Drift != DefaultDrift || d.Threshold != DefaultThreshold || d.Smoothing != DefaultSmoothing {
		t.Fatalf("defaults not applied: %+v", d)
	}
	if _, err := NewDetector(10, math.NaN(), 1); err == nil {
		t.Fatal("NaN drift accepted")
	}
}

// observeMathMax is Detector.Observe as written with math.Max, the oracle
// for TestDetectorBuiltinMaxMatchesMathMax.
func observeMathMax(d *Detector, x float64) bool {
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
		d.mean += (d.ewma - d.mean) / float64(d.n)
		return false
	}
	d.pos = math.Max(0, d.pos+d.ewma-d.mean-d.Drift)
	d.neg = math.Max(0, d.neg+d.mean-d.ewma-d.Drift)
	if d.pos <= d.Threshold && d.neg <= d.Threshold {
		return false
	}
	d.changes = append(d.changes, idx)
	d.n, d.mean, d.pos, d.neg = 0, 0, 0, 0
	return true
}

// TestDetectorBuiltinMaxMatchesMathMax pins that Observe's builtin max
// keeps math.Max's results bit for bit: the same alarms and the same
// Float64bits of every state field after each observation, over zeros and
// negative zeros, a constant run past the warmup, a step up and down, and
// NaN.
func TestDetectorBuiltinMaxMatchesMathMax(t *testing.T) {
	var signal []float64
	for i := 0; i < 8; i++ {
		signal = append(signal, 0, math.Copysign(0, -1))
	}
	for i := 0; i < 40; i++ {
		signal = append(signal, 0.1)
	}
	for i := 0; i < 30; i++ {
		signal = append(signal, 0.6)
	}
	for i := 0; i < 30; i++ {
		signal = append(signal, 0)
	}
	signal = append(signal, math.NaN(), 0.2, math.NaN())
	for i := 0; i < 20; i++ {
		signal = append(signal, 0.3)
	}
	for _, cfg := range []Detector{
		{Warmup: 10, Drift: 0.05, Threshold: 1, Smoothing: DefaultSmoothing},
		{Warmup: 5, Drift: 0, Threshold: 0.5, Smoothing: 1},
		{Warmup: 1, Drift: -0.1, Threshold: 0, Smoothing: 0.5},
	} {
		got, want := cfg, cfg
		for k, x := range signal {
			if a, b := got.Observe(x), observeMathMax(&want, x); a != b {
				t.Fatalf("%+v: observation %d (%v): alarm %v, math.Max oracle %v", cfg, k, x, a, b)
			}
			for _, f := range [][2]float64{{got.mean, want.mean}, {got.ewma, want.ewma}, {got.pos, want.pos}, {got.neg, want.neg}} {
				if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
					t.Fatalf("%+v: observation %d (%v): state %v, math.Max oracle %v", cfg, k, x, f[0], f[1])
				}
			}
			if got.n != want.n || got.total != want.total {
				t.Fatalf("%+v: observation %d: counters %d/%d, oracle %d/%d", cfg, k, got.n, got.total, want.n, want.total)
			}
		}
		if len(got.changes) != len(want.changes) || got.Alarms() == 0 {
			t.Fatalf("%+v: %d alarms, oracle %d (want at least one)", cfg, len(got.changes), len(want.changes))
		}
		for k := range got.changes {
			if got.changes[k] != want.changes[k] {
				t.Fatalf("%+v: change points %v, oracle %v", cfg, got.changes, want.changes)
			}
		}
	}
}
