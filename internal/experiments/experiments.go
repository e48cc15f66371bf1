// Package experiments reproduces every figure of the paper's evaluation
// (Section 5). Each figure has a runner that builds the scenario, simulates
// N snapshots, runs both the correlation algorithm (Section 4) and the
// independence baseline (Nguyen–Thiran), and reports the same series the
// paper plots. The runners are shared by cmd/experiment and by the
// repository's benchmark harness (bench_test.go).
//
// All Monte-Carlo work — the sweep points of Figures 3(a)/(b) and the
// repeated trials behind every figure point — is sharded across the
// internal/runner worker pool. Per-trial seeds are derived from Params.Seed
// with runner.DeriveSeed, so results are bit-identical for any
// Params.Workers setting, and every figure runner accepts a context for
// cancellation.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/brite"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/planetlab"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Scale selects the experiment size. The paper runs ~1500 paths and ~2000
// links; Small keeps the full pipeline but at a size that fits a CI budget.
type Scale string

const (
	// Small: ~150 paths — seconds per figure.
	Small Scale = "small"
	// Medium: ~500 paths — tens of seconds per figure.
	Medium Scale = "medium"
	// Paper: 1500 paths, matching the published scale — minutes per figure.
	Paper Scale = "paper"
)

type sizes struct {
	briteASes, britePaths         int
	plRouters, plVantage, plPaths int
	snapshots                     int
}

func (s Scale) sizes() (sizes, error) {
	switch s {
	case "", Small:
		return sizes{briteASes: 50, britePaths: 300, plRouters: 64, plVantage: 24, plPaths: 150, snapshots: 1200}, nil
	case Medium:
		return sizes{briteASes: 90, britePaths: 500, plRouters: 150, plVantage: 45, plPaths: 500, snapshots: 1600}, nil
	case Paper:
		return sizes{briteASes: 220, britePaths: 1500, plRouters: 450, plVantage: 90, plPaths: 1500, snapshots: 2000}, nil
	default:
		return sizes{}, fmt.Errorf("experiments: unknown scale %q (small|medium|paper)", string(s))
	}
}

// Params configures a figure run.
type Params struct {
	Scale Scale
	Seed  int64
	// Snapshots overrides the scale's snapshot count when > 0.
	Snapshots int
	// Mode selects state-level (default) or packet-level measurement.
	Mode netsim.Mode
	// PacketsPerPath for packet-level mode (0 ⇒ default).
	PacketsPerPath int
	// Trials is the number of Monte-Carlo trials behind every figure point
	// (0 ⇒ 1). Each trial re-simulates the same scenario with an
	// independently derived seed; the error samples of all trials are merged
	// before the summary statistic, tightening the estimate.
	Trials int
	// Workers caps the worker pool shared by sweep points and trials
	// (0 ⇒ GOMAXPROCS, 1 ⇒ fully serial). Results are identical for every
	// setting; only wall-clock time changes.
	Workers int
	// Progress, when non-nil, is called after each completed trial with the
	// number of trials finished and the figure's total. Calls are serialized.
	Progress func(done, total int)
}

// trials resolves the effective trial count.
func (p Params) trials() int {
	if p.Trials > 0 {
		return p.Trials
	}
	return 1
}

// pool builds the worker pool configured by Params.
func (p Params) pool() *runner.Runner {
	return &runner.Runner{Workers: p.Workers}
}

// tracker adapts Params.Progress to figure-level accounting: a figure knows
// its total trial count up front, and every completed trial ticks the shared
// counter no matter which sweep point it belongs to. Callback invocations
// are serialized.
type tracker struct {
	total int
	mu    sync.Mutex
	done  int
	fn    func(done, total int)
}

func (p Params) tracker(total int) *tracker {
	return &tracker{total: total, fn: p.Progress}
}

// tick records one completed trial. Safe for concurrent use.
func (t *tracker) tick() {
	if t == nil || t.fn == nil {
		return
	}
	t.mu.Lock()
	t.done++
	t.fn(t.done, t.total)
	t.mu.Unlock()
}

// Series is one plotted line.
type Series struct {
	Label string
	X, Y  []float64
}

// Figure is a reproduced table/figure: the same series the paper plots.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Notes records scenario bookkeeping (link counts, congested counts...).
	Notes []string
}

// Render writes the figure as an aligned text table: first column X, one
// column per series.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", f.ID, f.Title); err != nil {
		return err
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, "\t")); err != nil {
		return err
	}
	if len(f.Series) == 0 {
		return nil
	}
	for i := range f.Series[0].X {
		row := []string{fmt.Sprintf("%.4g", f.Series[0].X[i])}
		for _, s := range f.Series {
			row = append(row, fmt.Sprintf("%.4f", s.Y[i]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// trialResult is the outcome of one Monte-Carlo trial: both algorithms'
// sorted error samples plus the bookkeeping notes.
type trialResult struct {
	corrErrs, indepErrs []float64
	notes               []string
}

// trialSeed derives the simulation seed for one trial. Trial 0 reproduces
// the historical single-trial seed (p.Seed + 1000003) so recorded figures
// stay stable; later trials branch off it with independent streams.
func trialSeed(p Params, trial int) int64 {
	root := p.Seed + 1000003
	if trial == 0 {
		return root
	}
	return runner.DeriveSeed(root, trial)
}

// trialWorkspaces hands each concurrently active worker one reusable
// evaluate workspace: the plan is shared per scenario, while all transient
// solver state is borrowed here and recycled across every trial of every
// figure.
var trialWorkspaces = sync.Pool{New: func() any { return &plan.Workspace{} }}

// runTrial simulates one trial of a scenario and runs both algorithms on
// it through the scenario's shared compiled plan. ctx must be the enclosing
// pool task's ctx: it carries this trial's share of the worker budget,
// which sizes the nested snapshot-simulator pool so total concurrency stays
// within p.Workers.
func runTrial(ctx context.Context, s *scenario.Scenario, pl *plan.Plan, p Params, snapshots, trial int) (trialResult, error) {
	rec, err := netsim.Run(ctx, netsim.Config{
		Topology:       s.Topology,
		Model:          s.Model,
		Process:        s.Process,
		Snapshots:      snapshots,
		Seed:           trialSeed(p, trial),
		Mode:           p.Mode,
		PacketsPerPath: p.PacketsPerPath,
		Workers:        p.Workers,
	})
	if err != nil {
		return trialResult{}, fmt.Errorf("simulating %s: %w", s.Name, err)
	}
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		return trialResult{}, fmt.Errorf("wrapping record for %s: %w", s.Name, err)
	}

	// Both algorithms run through the worker's borrowed workspace; each
	// result is consumed (error samples, note line) before the next call
	// reuses the workspace's buffers.
	ws := trialWorkspaces.Get().(*plan.Workspace)
	defer trialWorkspaces.Put(ws)

	res := trialResult{
		notes: []string{fmt.Sprintf("scenario %s: links=%d paths=%d congested=%d potentially-congested=%d snapshots=%d mode=%s trials=%d",
			s.Name, s.Topology.NumLinks(), s.Topology.NumPaths(),
			s.CongestedLinks.Len(), s.PotentiallyCongested.Len(), snapshots, p.Mode, p.trials())},
	}
	corr, err := pl.CorrelationIn(ws, src, core.Options{})
	if err != nil {
		return trialResult{}, fmt.Errorf("correlation algorithm on %s: %w", s.Name, err)
	}
	res.corrErrs = eval.AbsErrors(s.Truth, corr.CongestionProb, s.PotentiallyCongested)
	res.notes = append(res.notes, fmt.Sprintf("correlation: rank=%d/%d singles=%d pairs=%d solver=%s",
		corr.System.Rank, s.Topology.NumLinks(), corr.System.SinglePathEqs, corr.System.PairEqs, corr.Solver))
	// The independence baseline emulates Nguyen–Thiran: it uses all its
	// (incorrectly factorized, when links are correlated) observations in a
	// least-squares fit, rather than the Section-4 just-enough/L1 strategy —
	// a robust solver would quietly reject the wrong equations as outliers
	// and mask exactly the modelling error the paper measures.
	indep, err := pl.IndependenceIn(ws, src, core.Options{UseAllEquations: true})
	if err != nil {
		return trialResult{}, fmt.Errorf("independence algorithm on %s: %w", s.Name, err)
	}
	res.indepErrs = eval.AbsErrors(s.Truth, indep.CongestionProb, s.PotentiallyCongested)
	res.notes = append(res.notes, fmt.Sprintf("independence: rank=%d/%d singles=%d pairs=%d solver=%s",
		indep.System.Rank, s.Topology.NumLinks(), indep.System.SinglePathEqs, indep.System.PairEqs, indep.Solver))
	return res, nil
}

// algorithmErrors runs p.trials() Monte-Carlo trials of both algorithms on a
// scenario — sharded across the worker pool — and returns the merged sorted
// absolute errors over the potentially congested links. Results are
// bit-identical for every worker count: each trial's randomness is a
// function of (p.Seed, trial) only, and the sorted merge is order-blind.
func algorithmErrors(ctx context.Context, s *scenario.Scenario, p Params, snapshots int, tr *tracker) (corrErrs, indepErrs []float64, notes []string, err error) {
	trials := p.trials()
	// One compiled plan per scenario: every trial re-simulates and re-solves,
	// but the equation structure depends only on the topology and is shared.
	// Lazy: the two structures the trials need compile (once) on first use.
	pl, err := plan.Compile(s.Topology, plan.Options{Lazy: true})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("compiling plan for %s: %w", s.Name, err)
	}
	results, err := runner.Map(ctx, p.pool(), trials, func(ctx context.Context, t int) (trialResult, error) {
		res, err := runTrial(ctx, s, pl, p, snapshots, t)
		if err == nil {
			tr.tick()
		}
		return res, err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	corrParts := make([][]float64, trials)
	indepParts := make([][]float64, trials)
	for t, r := range results {
		corrParts[t] = r.corrErrs
		indepParts[t] = r.indepErrs
	}
	return runner.MergeSorted(corrParts), runner.MergeSorted(indepParts), results[0].notes, nil
}

func (p Params) snapshots(sz sizes) int {
	if p.Snapshots > 0 {
		return p.Snapshots
	}
	return sz.snapshots
}

func briteNetwork(p Params, sz sizes) (*brite.Network, error) {
	return brite.Generate(brite.Config{
		ASes:       sz.briteASes,
		EdgesPerAS: 2,
		Paths:      sz.britePaths,
		Seed:       p.Seed + 7,
	})
}

func planetlabNetwork(p Params, sz sizes) (*planetlab.Network, error) {
	return planetlab.Generate(planetlab.Config{
		Routers:       sz.plRouters,
		VantagePoints: sz.plVantage,
		Paths:         sz.plPaths,
		Seed:          p.Seed + 11,
	})
}

// CongestedFractions is the x-axis of Figures 3(a) and 3(b).
var CongestedFractions = []float64{0.05, 0.10, 0.15, 0.20, 0.25}

// figure3Sweep runs the Figure-3(a)/(b) sweep and summarizes each point with
// the given statistic over the absolute errors. The sweep points (and the
// trials inside each point) run concurrently on the worker pool; each
// point's scenario seed depends only on the point index, so the figure is
// identical for every worker count.
func figure3Sweep(ctx context.Context, p Params, id, title, ylabel string, stat func([]float64) float64) (*Figure, error) {
	sz, err := p.Scale.sizes()
	if err != nil {
		return nil, err
	}
	net, err := briteNetwork(p, sz)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "congested links (% of all links)", YLabel: ylabel,
	}
	tr := p.tracker(len(CongestedFractions) * p.trials())
	type point struct {
		corr, indep float64
		notes       []string
	}
	pts, err := runner.Map(ctx, p.pool(), len(CongestedFractions), func(ctx context.Context, i int) (point, error) {
		frac := CongestedFractions[i]
		s, err := scenario.Brite(scenario.BriteConfig{
			Net: net, FracCongested: frac, Level: scenario.HighCorrelation,
			Seed: p.Seed + int64(100*i),
		})
		if err != nil {
			return point{}, err
		}
		ce, ie, notes, err := algorithmErrors(ctx, s, p, p.snapshots(sz), tr)
		if err != nil {
			return point{}, err
		}
		return point{corr: stat(ce), indep: stat(ie), notes: notes}, nil
	})
	if err != nil {
		return nil, err
	}
	corrSeries := Series{Label: "Correlation"}
	indepSeries := Series{Label: "Independence"}
	for i, pt := range pts {
		corrSeries.X = append(corrSeries.X, 100*CongestedFractions[i])
		corrSeries.Y = append(corrSeries.Y, pt.corr)
		indepSeries.X = append(indepSeries.X, 100*CongestedFractions[i])
		indepSeries.Y = append(indepSeries.Y, pt.indep)
		fig.Notes = append(fig.Notes, pt.notes...)
	}
	fig.Series = []Series{corrSeries, indepSeries}
	return fig, nil
}

// Figure3a reproduces Figure 3(a): mean absolute error vs the fraction of
// congested links, Brite topology, highly correlated congestion.
func Figure3a(ctx context.Context, p Params) (*Figure, error) {
	return figure3Sweep(ctx, p, "3a",
		"Mean absolute error, highly correlated congested links (Brite)",
		"mean absolute error", eval.Mean)
}

// Figure3b reproduces Figure 3(b): 90th percentile of the absolute error.
func Figure3b(ctx context.Context, p Params) (*Figure, error) {
	return figure3Sweep(ctx, p, "3b",
		"90th percentile of the absolute error, highly correlated congested links (Brite)",
		"90th percentile of absolute error",
		func(xs []float64) float64 { return eval.Percentile(xs, 90) })
}

// cdfFigure renders the two algorithms' error CDFs for one scenario. With
// Trials > 1 the CDF is computed over the merged error samples of all
// trials.
func cdfFigure(ctx context.Context, s *scenario.Scenario, p Params, snapshots int, id, title string) (*Figure, error) {
	ce, ie, notes, err := algorithmErrors(ctx, s, p, snapshots, p.tracker(p.trials()))
	if err != nil {
		return nil, err
	}
	pts := eval.DefaultCDFPoints()
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "absolute error", YLabel: "CDF (% of potentially congested links)",
		Series: []Series{
			{Label: "Correlation", X: pts, Y: eval.CDF(ce, pts)},
			{Label: "Independence", X: pts, Y: eval.CDF(ie, pts)},
		},
		Notes: notes,
	}
	return fig, nil
}

// Figure3c reproduces Figure 3(c): error CDF with 10% congested links,
// highly correlated, Brite topology.
func Figure3c(ctx context.Context, p Params) (*Figure, error) {
	sz, err := p.Scale.sizes()
	if err != nil {
		return nil, err
	}
	net, err := briteNetwork(p, sz)
	if err != nil {
		return nil, err
	}
	s, err := scenario.Brite(scenario.BriteConfig{
		Net: net, FracCongested: 0.10, Level: scenario.HighCorrelation, Seed: p.Seed + 31,
	})
	if err != nil {
		return nil, err
	}
	return cdfFigure(ctx, s, p, p.snapshots(sz), "3c",
		"Error CDF, 10% congested, highly correlated (Brite)")
}

// Figure3d reproduces Figure 3(d): error CDF with 10% congested links,
// loosely correlated (≤2 congested links per correlation set).
func Figure3d(ctx context.Context, p Params) (*Figure, error) {
	sz, err := p.Scale.sizes()
	if err != nil {
		return nil, err
	}
	net, err := briteNetwork(p, sz)
	if err != nil {
		return nil, err
	}
	s, err := scenario.Brite(scenario.BriteConfig{
		Net: net, FracCongested: 0.10, Level: scenario.LooseCorrelation, Seed: p.Seed + 37,
	})
	if err != nil {
		return nil, err
	}
	return cdfFigure(ctx, s, p, p.snapshots(sz), "3d",
		"Error CDF, 10% congested, loosely correlated (Brite)")
}

// figure4 builds the unidentifiable-links scenarios of Figure 4.
func figure4(ctx context.Context, p Params, topo string, unidentFrac float64, id string) (*Figure, error) {
	sz, err := p.Scale.sizes()
	if err != nil {
		return nil, err
	}
	base, err := baseScenario(p, sz, topo)
	if err != nil {
		return nil, err
	}
	s, err := scenario.WithUnidentifiable(base, unidentFrac, p.Seed+41)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Error CDF, %d%% of congested links unidentifiable (%s), 10%% congested",
		int(100*unidentFrac), topo)
	return cdfFigure(ctx, s, p, p.snapshots(sz), id, title)
}

// figure5 builds the mislabeled-links scenarios of Figure 5.
func figure5(ctx context.Context, p Params, topo string, mislabeledFrac float64, id string) (*Figure, error) {
	sz, err := p.Scale.sizes()
	if err != nil {
		return nil, err
	}
	base, err := baseScenario(p, sz, topo)
	if err != nil {
		return nil, err
	}
	s, err := scenario.WithMislabeled(base, mislabeledFrac, 0.3, p.Seed+43)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Error CDF, %d%% of congested links mislabeled (%s), 10%% congested",
		int(100*mislabeledFrac), topo)
	return cdfFigure(ctx, s, p, p.snapshots(sz), id, title)
}

func baseScenario(p Params, sz sizes, topo string) (*scenario.Scenario, error) {
	switch topo {
	case "brite":
		net, err := briteNetwork(p, sz)
		if err != nil {
			return nil, err
		}
		return scenario.Brite(scenario.BriteConfig{
			Net: net, FracCongested: 0.10, Level: scenario.HighCorrelation, Seed: p.Seed + 53,
		})
	case "planetlab":
		net, err := planetlabNetwork(p, sz)
		if err != nil {
			return nil, err
		}
		return scenario.PlanetLab(scenario.PlanetLabConfig{
			Net: net, FracCongested: 0.10, Level: scenario.HighCorrelation, Seed: p.Seed + 53,
		})
	default:
		return nil, fmt.Errorf("experiments: unknown topology family %q (brite|planetlab)", topo)
	}
}

// Figure4a: 25% unidentifiable, Brite.
func Figure4a(ctx context.Context, p Params) (*Figure, error) {
	return figure4(ctx, p, "brite", 0.25, "4a")
}

// Figure4b: 50% unidentifiable, Brite.
func Figure4b(ctx context.Context, p Params) (*Figure, error) {
	return figure4(ctx, p, "brite", 0.50, "4b")
}

// Figure4c: 25% unidentifiable, PlanetLab.
func Figure4c(ctx context.Context, p Params) (*Figure, error) {
	return figure4(ctx, p, "planetlab", 0.25, "4c")
}

// Figure4d: 50% unidentifiable, PlanetLab.
func Figure4d(ctx context.Context, p Params) (*Figure, error) {
	return figure4(ctx, p, "planetlab", 0.50, "4d")
}

// Figure5a: 25% mislabeled, Brite.
func Figure5a(ctx context.Context, p Params) (*Figure, error) {
	return figure5(ctx, p, "brite", 0.25, "5a")
}

// Figure5b: 50% mislabeled, Brite.
func Figure5b(ctx context.Context, p Params) (*Figure, error) {
	return figure5(ctx, p, "brite", 0.50, "5b")
}

// Figure5c: 25% mislabeled, PlanetLab.
func Figure5c(ctx context.Context, p Params) (*Figure, error) {
	return figure5(ctx, p, "planetlab", 0.25, "5c")
}

// Figure5d: 50% mislabeled, PlanetLab.
func Figure5d(ctx context.Context, p Params) (*Figure, error) {
	return figure5(ctx, p, "planetlab", 0.50, "5d")
}

// Runners maps figure IDs to their runners, in the paper's order.
var Runners = []struct {
	ID  string
	Run func(context.Context, Params) (*Figure, error)
}{
	{"3a", Figure3a}, {"3b", Figure3b}, {"3c", Figure3c}, {"3d", Figure3d},
	{"4a", Figure4a}, {"4b", Figure4b}, {"4c", Figure4c}, {"4d", Figure4d},
	{"5a", Figure5a}, {"5b", Figure5b}, {"5c", Figure5c}, {"5d", Figure5d},
}

// ScenarioFigure evaluates one named registry scenario (scenario.BuildNamed)
// with the standard two-algorithm comparison and renders its error CDF — the
// bridge between the named scenario registry and the figure pipeline.
// Dynamic scenarios (flash-crowd, diurnal, link-flap, …) run on the
// sequential dynamic engine; their errors are measured against the process's
// stationary marginals.
func ScenarioFigure(ctx context.Context, name string, p Params) (*Figure, error) {
	s, err := scenario.BuildNamed(name, p.Seed)
	if err != nil {
		return nil, err
	}
	sz, err := p.Scale.sizes()
	if err != nil {
		return nil, err
	}
	return cdfFigure(ctx, s, p, p.snapshots(sz), "scenario:"+name,
		fmt.Sprintf("Error CDF, named scenario %q", name))
}

// Run dispatches a figure by ID ("3a" .. "5d"), or a named registry scenario
// as "scenario:<name>" (e.g. "scenario:flash-crowd").
func Run(ctx context.Context, id string, p Params) (*Figure, error) {
	if name, ok := strings.CutPrefix(id, "scenario:"); ok {
		return ScenarioFigure(ctx, name, p)
	}
	for _, r := range Runners {
		if r.ID == id {
			return r.Run(ctx, p)
		}
	}
	return nil, fmt.Errorf("experiments: unknown figure %q", id)
}

// RunAll runs the given figures concurrently on the worker pool and returns
// them in input order. Figure-level and trial-level parallelism share one
// worker budget; results are identical to running each figure alone. If
// figProgress is non-nil it is called (serialized) as each figure
// completes. p.Progress, if set, still reports per-trial completions with
// per-figure (done, total) counts; RunAll serializes those calls across the
// concurrently running figures.
func RunAll(ctx context.Context, ids []string, p Params, figProgress func(id string, done, total int)) ([]*Figure, error) {
	var mu sync.Mutex
	completed := 0
	if p.Progress != nil {
		// Each figure gets its own tracker; without this shared wrapper two
		// figures' trackers could invoke the user callback concurrently.
		orig := p.Progress
		var pmu sync.Mutex
		p.Progress = func(done, total int) {
			pmu.Lock()
			orig(done, total)
			pmu.Unlock()
		}
	}
	return runner.Map(ctx, p.pool(), len(ids), func(ctx context.Context, i int) (*Figure, error) {
		fig, err := Run(ctx, ids[i], p)
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", ids[i], err)
		}
		if figProgress != nil {
			mu.Lock()
			completed++
			figProgress(ids[i], completed, len(ids))
			mu.Unlock()
		}
		return fig, nil
	})
}
