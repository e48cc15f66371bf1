// Package tomographer implements the end-to-end measurement tomographer the
// paper describes as ongoing work (Section 5, "Ongoing Work: PlanetLab
// Tomographer"): infer link congestion probabilities from a mesh of
// end-to-end measurements and validate the inference with the *indirect
// validation* method of Padmanabhan et al. [13] — hold out a fraction of the
// paths, infer link probabilities from the remaining paths only, predict the
// held-out paths' congestion frequencies from the inferred link
// probabilities, and compare prediction with observation.
//
// The paper's plan is to run the tomographer twice — once assuming all links
// are uncorrelated, once with links grouped into correlation sets — and
// compare; Compare does exactly that.
package tomographer

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/topology"
)

// Algorithm selects the inference flavor.
type Algorithm string

const (
	// Correlation uses the topology's correlation sets (Section 4).
	Correlation Algorithm = "correlation"
	// Independence treats every link as uncorrelated (the [12] baseline).
	Independence Algorithm = "independence"
)

// Config parameterizes one indirect-validation run.
type Config struct {
	Topology *topology.Topology
	Record   *netsim.Record
	// HoldoutFrac is the fraction of paths excluded from inference and used
	// for validation (default 0.2).
	HoldoutFrac float64
	// Algorithm selects correlation-aware or independence inference.
	Algorithm Algorithm
	// Seed drives the train/validation split.
	Seed int64
	// Options are forwarded to the inference algorithm.
	Options core.Options
	// Plan, when non-nil, is the inference plan the estimators run through
	// (one is compiled lazily otherwise). Note: the holdout PathFilter
	// makes each validation's equation structure split-specific, so those
	// structures compile per run either way; the point of passing a Plan
	// is to let validation ride on the same plan the caller already uses
	// for full-data inference over this topology, whose structures do
	// memoize, instead of constructing a second one.
	Plan *plan.Plan
}

// Report is the outcome of an indirect validation.
type Report struct {
	Algorithm Algorithm
	// HeldOut lists the validation paths.
	HeldOut []topology.PathID
	// Predicted[i] is the predicted P(path good) for HeldOut[i], computed
	// from the inferred link probabilities under the path-product rule.
	Predicted []float64
	// Observed[i] is the empirical fraction of snapshots in which the path
	// was good.
	Observed []float64
	// MeanAbsError and RMSE summarize |Predicted − Observed|.
	MeanAbsError float64
	RMSE         float64
	// Inference carries the underlying tomography result.
	Inference *core.Result
}

// Run performs one indirect validation.
func Run(cfg Config) (*Report, error) {
	if cfg.Topology == nil || cfg.Record == nil {
		return nil, fmt.Errorf("tomographer: topology and record are required")
	}
	if cfg.HoldoutFrac <= 0 || cfg.HoldoutFrac >= 1 {
		cfg.HoldoutFrac = 0.2
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = Correlation
	}
	top := cfg.Topology
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Train/validation split. Every link must stay covered by at least one
	// training path, otherwise its probability is unconstrained by
	// construction; candidate held-out paths are drawn at random and
	// skipped when removing them would orphan a link.
	coverCount := make([]int, top.NumLinks())
	for _, p := range top.Paths() {
		top.PathLinkSet(p.ID).ForEach(func(k int) bool {
			coverCount[k]++
			return true
		})
	}
	want := int(cfg.HoldoutFrac * float64(top.NumPaths()))
	if want < 1 {
		want = 1
	}
	heldOut := map[topology.PathID]bool{}
	for _, pi := range rng.Perm(top.NumPaths()) {
		if len(heldOut) >= want {
			break
		}
		id := topology.PathID(pi)
		ok := true
		top.PathLinkSet(id).ForEach(func(k int) bool {
			if coverCount[k] <= 1 {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			continue
		}
		heldOut[id] = true
		top.PathLinkSet(id).ForEach(func(k int) bool {
			coverCount[k]--
			return true
		})
	}
	if len(heldOut) == 0 {
		return nil, fmt.Errorf("tomographer: no path can be held out without orphaning a link")
	}

	src, err := measure.NewEmpirical(cfg.Record)
	if err != nil {
		return nil, fmt.Errorf("tomographer: %w", err)
	}
	p := cfg.Plan
	if p != nil && p.Topology() != top {
		return nil, fmt.Errorf("tomographer: cfg.Plan was compiled for a different topology")
	}
	if p == nil {
		if p, err = plan.Compile(top, plan.Options{Lazy: true}); err != nil {
			return nil, fmt.Errorf("tomographer: %w", err)
		}
	}
	opts := cfg.Options
	opts.PathFilter = func(id topology.PathID) bool { return !heldOut[id] }

	// The workspace serves this one run, so the report may keep the result
	// that aliases it.
	ws := p.NewWorkspace()
	var res *core.Result
	switch cfg.Algorithm {
	case Correlation:
		res, err = p.CorrelationIn(ws, src, opts)
	case Independence:
		opts.UseAllEquations = true // the [12] baseline uses all observations
		res, err = p.IndependenceIn(ws, src, opts)
	default:
		return nil, fmt.Errorf("tomographer: unknown algorithm %q", cfg.Algorithm)
	}
	if err != nil {
		return nil, fmt.Errorf("tomographer: inference: %w", err)
	}

	rep := &Report{Algorithm: cfg.Algorithm, Inference: res}
	var sumAbs, sumSq float64
	for pi := 0; pi < top.NumPaths(); pi++ {
		id := topology.PathID(pi)
		if !heldOut[id] {
			continue
		}
		// Predicted P(path good) = exp(Σ x_k) — exact when the path has at
		// most one link per correlation set, the independence approximation
		// otherwise (which is part of what validation measures).
		logp := 0.0
		top.PathLinkSet(id).ForEach(func(k int) bool {
			logp += res.LogGoodProb[k]
			return true
		})
		pred := math.Exp(logp)
		obs := src.ProbPathGood(id)
		rep.HeldOut = append(rep.HeldOut, id)
		rep.Predicted = append(rep.Predicted, pred)
		rep.Observed = append(rep.Observed, obs)
		d := pred - obs
		sumAbs += math.Abs(d)
		sumSq += d * d
	}
	n := float64(len(rep.HeldOut))
	rep.MeanAbsError = sumAbs / n
	rep.RMSE = math.Sqrt(sumSq / n)
	return rep, nil
}

// Comparison bundles the two runs the paper proposes.
type Comparison struct {
	Correlation  *Report
	Independence *Report
}

// Compare runs indirect validation under both correlation assumptions on
// the same record and split seed — the experiment the paper's tomographer
// was being built to perform. Both runs go through one plan; see
// Config.Plan for what that does and does not share.
func Compare(top *topology.Topology, rec *netsim.Record, holdoutFrac float64, seed int64) (*Comparison, error) {
	p, err := plan.Compile(top, plan.Options{Lazy: true})
	if err != nil {
		return nil, fmt.Errorf("tomographer: %w", err)
	}
	corr, err := Run(Config{
		Topology: top, Record: rec, HoldoutFrac: holdoutFrac, Seed: seed,
		Algorithm: Correlation, Plan: p,
	})
	if err != nil {
		return nil, err
	}
	indep, err := Run(Config{
		Topology: top, Record: rec, HoldoutFrac: holdoutFrac, Seed: seed,
		Algorithm: Independence, Plan: p,
	})
	if err != nil {
		return nil, err
	}
	return &Comparison{Correlation: corr, Independence: indep}, nil
}
