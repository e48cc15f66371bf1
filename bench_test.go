// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 5), plus ablation benchmarks for the repo's design
// choices and a serial-vs-parallel comparison of the runner engine.
//
// Every BenchmarkFigureNx regenerates the corresponding figure at the
// "small" scale (the full pipeline — topology generation, scenario
// construction, snapshot simulation, both inference algorithms, metrics) and
// reports the headline numbers as custom benchmark metrics:
//
//	corr@0.1 / indep@0.1 — % of potentially congested links with absolute
//	                       error ≤ 0.1 (the paper's CDF reading), or
//	corr-mean / indep-mean for the Figure-3(a)/(b) sweeps.
//
// Run the full harness with:
//
//	go test -bench=. -benchmem
//
// and regenerate any figure at the published scale with:
//
//	go run ./cmd/experiment -figure 3c -scale paper
package tomography_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchmeta"
	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/measure"
	"repro/internal/mle"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// benchParams returns the standard benchmark parameters. Benchmarks use the
// small scale so the whole suite stays within a CI budget; regenerate
// medium/paper-scale results with cmd/experiment (see README.md).
func benchParams() experiments.Params {
	return experiments.Params{Scale: experiments.Small, Seed: 1}
}

// benchFigureCDF runs a CDF-style figure and reports both algorithms'
// fraction of links within 0.1 absolute error.
func benchFigureCDF(b *testing.B, id string) {
	b.Helper()
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.Run(context.Background(), id, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAtError(b, fig, 0.1)
}

// reportAtError extracts the CDF value at the given error level for both
// series and reports them as benchmark metrics.
func reportAtError(b *testing.B, fig *experiments.Figure, at float64) {
	b.Helper()
	for _, s := range fig.Series {
		for i, x := range s.X {
			if x == at {
				switch s.Label {
				case "Correlation":
					b.ReportMetric(s.Y[i], "corr@0.1")
				case "Independence":
					b.ReportMetric(s.Y[i], "indep@0.1")
				}
				break
			}
		}
	}
}

// benchFigureSweep runs a sweep-style figure (3a/3b) and reports the mean of
// each series across the sweep.
func benchFigureSweep(b *testing.B, id string) {
	b.Helper()
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.Run(context.Background(), id, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		switch s.Label {
		case "Correlation":
			b.ReportMetric(eval.Mean(s.Y), "corr-mean")
		case "Independence":
			b.ReportMetric(eval.Mean(s.Y), "indep-mean")
		}
	}
}

// --- One benchmark per paper figure. ---

// BenchmarkFigure3a: mean absolute error vs % congested links (Brite,
// highly correlated congestion).
func BenchmarkFigure3a(b *testing.B) { benchFigureSweep(b, "3a") }

// BenchmarkFigure3b: 90th-percentile error vs % congested links.
func BenchmarkFigure3b(b *testing.B) { benchFigureSweep(b, "3b") }

// BenchmarkFigure3c: error CDF, 10% congested, highly correlated (Brite).
func BenchmarkFigure3c(b *testing.B) { benchFigureCDF(b, "3c") }

// BenchmarkFigure3d: error CDF, 10% congested, loosely correlated (Brite).
func BenchmarkFigure3d(b *testing.B) { benchFigureCDF(b, "3d") }

// BenchmarkFigure4a: 25% of congested links unidentifiable (Brite).
func BenchmarkFigure4a(b *testing.B) { benchFigureCDF(b, "4a") }

// BenchmarkFigure4b: 50% of congested links unidentifiable (Brite).
func BenchmarkFigure4b(b *testing.B) { benchFigureCDF(b, "4b") }

// BenchmarkFigure4c: 25% of congested links unidentifiable (PlanetLab).
func BenchmarkFigure4c(b *testing.B) { benchFigureCDF(b, "4c") }

// BenchmarkFigure4d: 50% of congested links unidentifiable (PlanetLab).
func BenchmarkFigure4d(b *testing.B) { benchFigureCDF(b, "4d") }

// BenchmarkFigure5a: 25% of congested links mislabeled (Brite).
func BenchmarkFigure5a(b *testing.B) { benchFigureCDF(b, "5a") }

// BenchmarkFigure5b: 50% of congested links mislabeled (Brite).
func BenchmarkFigure5b(b *testing.B) { benchFigureCDF(b, "5b") }

// BenchmarkFigure5c: 25% of congested links mislabeled (PlanetLab).
func BenchmarkFigure5c(b *testing.B) { benchFigureCDF(b, "5c") }

// BenchmarkFigure5d: 50% of congested links mislabeled (PlanetLab).
func BenchmarkFigure5d(b *testing.B) { benchFigureCDF(b, "5d") }

// --- Runner throughput: serial vs parallel sweep. ---

// benchSweepWorkers runs the Figure-3a sweep (5 points × 2 trials, reduced
// snapshot budget) with the given worker-pool size. Comparing the Serial and
// Parallel variants measures the speedup of the internal/runner engine; the
// figures they produce are bit-identical.
func benchSweepWorkers(b *testing.B, workers int) {
	b.Helper()
	p := benchParams()
	p.Workers = workers
	p.Trials = 2
	p.Snapshots = 400
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3a(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial: the Figure-3a sweep on a single worker.
func BenchmarkSweepSerial(b *testing.B) { benchSweepWorkers(b, 1) }

// BenchmarkSweepParallel: the same sweep on GOMAXPROCS workers.
func BenchmarkSweepParallel(b *testing.B) { benchSweepWorkers(b, 0) }

// --- Ablations (quantifying the repo's design choices). ---

// benchScenario builds the standard ablation scenario (Figure-3c setup) and
// its measurement source once per benchmark invocation.
func benchScenario(b *testing.B, snapshots int, mode netsim.Mode, packets int) (*scenario.Scenario, *measure.Empirical) {
	b.Helper()
	net, err := brite.Generate(brite.Config{ASes: 40, EdgesPerAS: 2, Paths: 150, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	s, err := scenario.Brite(scenario.BriteConfig{
		Net: net, FracCongested: 0.10, Level: scenario.HighCorrelation, Seed: 31,
	})
	if err != nil {
		b.Fatal(err)
	}
	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: s.Topology, Model: s.Model, Snapshots: snapshots, Seed: 97,
		Mode: mode, PacketsPerPath: packets,
	})
	if err != nil {
		b.Fatal(err)
	}
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		b.Fatal(err)
	}
	return s, src
}

// BenchmarkAblationPairsOff quantifies what the pair equations (Eq. 10)
// contribute: the correlation algorithm with and without them.
func BenchmarkAblationPairsOff(b *testing.B) {
	for _, pairs := range []bool{true, false} {
		name := "pairs-on"
		if !pairs {
			name = "pairs-off"
		}
		b.Run(name, func(b *testing.B) {
			s, src := benchScenario(b, 1200, netsim.StateLevel, 0)
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = runLinearOnce(s.Topology, src, false, core.Options{DisablePairs: !pairs})
				if err != nil {
					b.Fatal(err)
				}
			}
			errs := eval.AbsErrors(s.Truth, res.CongestionProb, s.PotentiallyCongested)
			b.ReportMetric(float64(res.System.Rank), "rank")
			b.ReportMetric(eval.Mean(errs), "mean-err")
		})
	}
}

// BenchmarkAblationSolver compares the underdetermined-system completions:
// the paper's L1 (LP), minimum-L2-norm, and the overdetermined
// least-squares formulation.
func BenchmarkAblationSolver(b *testing.B) {
	cases := []struct {
		name string
		opts core.Options
	}{
		{"l1", core.Options{}},
		{"min-norm", core.Options{ForceMinNorm: true}},
		{"least-squares", core.Options{UseAllEquations: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s, src := benchScenario(b, 1200, netsim.StateLevel, 0)
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = runLinearOnce(s.Topology, src, false, c.opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			errs := eval.AbsErrors(s.Truth, res.CongestionProb, s.PotentiallyCongested)
			b.ReportMetric(eval.Mean(errs), "mean-err")
			b.ReportMetric(100*eval.FracBelow(errs, 0.1), "frac@0.1")
		})
	}
}

// BenchmarkAblationPacketLevel compares state-level measurement (exact
// separability) against the full packet-level data path at two probe rates.
func BenchmarkAblationPacketLevel(b *testing.B) {
	cases := []struct {
		name    string
		mode    netsim.Mode
		packets int
	}{
		{"state-level", netsim.StateLevel, 0},
		{"packet-level-100", netsim.PacketLevel, 100},
		{"packet-level-400", netsim.PacketLevel, 400},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, src := benchScenario(b, 600, c.mode, c.packets)
				res, err := runLinearOnce(s.Topology, src, false, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					errs := eval.AbsErrors(s.Truth, res.CongestionProb, s.PotentiallyCongested)
					b.ReportMetric(eval.Mean(errs), "mean-err")
				}
			}
		})
	}
}

// BenchmarkAblationSnapshots sweeps the measurement duration N: accuracy as
// a function of how long the network is observed.
func BenchmarkAblationSnapshots(b *testing.B) {
	for _, n := range []int{250, 1000, 4000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var meanErr float64
			for i := 0; i < b.N; i++ {
				s, src := benchScenario(b, n, netsim.StateLevel, 0)
				res, err := runLinearOnce(s.Topology, src, false, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				errs := eval.AbsErrors(s.Truth, res.CongestionProb, s.PotentiallyCongested)
				meanErr = eval.Mean(errs)
			}
			b.ReportMetric(meanErr, "mean-err")
		})
	}
}

// BenchmarkAblationMLE compares the independence baselines: the log-linear
// least-squares solver vs the composite-likelihood MLE (same information
// set, different weighting), on the correlated Figure-3c scenario.
func BenchmarkAblationMLE(b *testing.B) {
	s, src := benchScenario(b, 1200, netsim.StateLevel, 0)
	b.Run("linear", func(b *testing.B) {
		var res *core.Result
		var err error
		for i := 0; i < b.N; i++ {
			res, err = runLinearOnce(s.Topology, src, true, core.Options{UseAllEquations: true})
			if err != nil {
				b.Fatal(err)
			}
		}
		errs := eval.AbsErrors(s.Truth, res.CongestionProb, s.PotentiallyCongested)
		b.ReportMetric(eval.Mean(errs), "mean-err")
	})
	b.Run("mle", func(b *testing.B) {
		var res *mle.Result
		var err error
		for i := 0; i < b.N; i++ {
			res, err = runMLEOnce(s.Topology, src, mle.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		errs := eval.AbsErrors(s.Truth, res.CongestionProb, s.PotentiallyCongested)
		b.ReportMetric(eval.Mean(errs), "mean-err")
	})
}

// BenchmarkAblationTheorem compares the exact Appendix-A algorithm against
// the practical Section-4 algorithm on the Figure-1(a) toy, where both are
// applicable: exactness vs cost.
func BenchmarkAblationTheorem(b *testing.B) {
	top := topology.Figure1A()
	model, err := congestion.NewTable(4, []congestion.GroupTable{
		{
			Links: []int{0, 1},
			States: []congestion.SubsetProb{
				{Links: bitset.New(0), P: 0.60},
				{Links: bitset.FromIndices(0), P: 0.10},
				{Links: bitset.FromIndices(1), P: 0.12},
				{Links: bitset.FromIndices(0, 1), P: 0.18},
			},
		},
		{Links: []int{2}, States: []congestion.SubsetProb{
			{Links: bitset.New(0), P: 0.8}, {Links: bitset.FromIndices(2), P: 0.2},
		}},
		{Links: []int{3}, States: []congestion.SubsetProb{
			{Links: bitset.New(0), P: 0.9}, {Links: bitset.FromIndices(3), P: 0.1},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	rec, err := netsim.Run(context.Background(), netsim.Config{Topology: top, Model: model, Snapshots: 50000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	src, err := measure.NewEmpirical(rec)
	if err != nil {
		b.Fatal(err)
	}
	truth := congestion.Marginals(model)

	// Each algorithm is priced in two arms: the compile alone, and a warm
	// estimate that compiles once outside the timer, so a change to the
	// data phase shows apart from a change to the compile.
	b.Run("theorem-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CompileTheorem(top); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("theorem-estimate", func(b *testing.B) {
		tp, err := core.CompileTheorem(top)
		if err != nil {
			b.Fatal(err)
		}
		ws := core.NewWorkspace()
		b.ResetTimer()
		var res *core.TheoremResult
		for i := 0; i < b.N; i++ {
			if res, err = tp.RunIn(ws, src); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(eval.Mean(eval.AbsErrors(truth, res.CongestionProb, nil)), "mean-err")
	})
	b.Run("correlation-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CompileLinear(top, false, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("correlation-estimate", func(b *testing.B) {
		lp, err := core.CompileLinear(top, false, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ws := core.NewWorkspace()
		b.ResetTimer()
		var res *core.Result
		for i := 0; i < b.N; i++ {
			if res, err = lp.RunIn(ws, src); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(eval.Mean(eval.AbsErrors(truth, res.CongestionProb, nil)), "mean-err")
	})
}

// --- Columnar measurement-store benchmarks (BENCH_measure.json). ---

// rowMajorSource replays the pre-columnar Empirical implementation — a scan
// over all row-major snapshots per query — as the baseline the columnar
// store is measured against.
type rowMajorSource struct {
	numPaths int
	rows     []*bitset.Set
	probe    *bitset.Set // ProbPairGood's reused query set
}

func (s *rowMajorSource) NumPaths() int { return s.numPaths }

func (s *rowMajorSource) ProbPathGood(i topology.PathID) float64 { return s.ProbPairGood(i, i) }

func (s *rowMajorSource) ProbPairGood(i, j topology.PathID) float64 {
	if s.probe == nil {
		s.probe = bitset.New(s.numPaths)
	}
	s.probe.Clear()
	s.probe.Add(int(i))
	s.probe.Add(int(j))
	return s.ProbPathsGood(s.probe)
}

func (s *rowMajorSource) PrimePairs([]measure.Pair) {}

func (s *rowMajorSource) ProbPathsGood(paths *bitset.Set) float64 {
	hits := 0
	for _, r := range s.rows {
		if !r.Intersects(paths) {
			hits++
		}
	}
	return float64(hits) / float64(len(s.rows))
}

// benchSink defeats dead-code elimination of benchmark query results.
var benchSink float64

// writeBenchJSON merges the given metrics into BENCH_measure.json at the
// repo root, so the columnar-vs-row-major numbers are captured as an
// artifact of every benchmark run (CI runs this in smoke mode).
func writeBenchJSON(b *testing.B, bench string, metrics map[string]float64) {
	b.Helper()
	writeBenchJSONFile(b, "BENCH_measure.json", bench, metrics)
}

// writeBenchJSONFile merges the metrics into the named benchmark artifact
// (benchmeta.WriteJSON). It takes a testing.TB so env-gated smoke tests
// (not just benchmarks) can record artifacts too.
func writeBenchJSONFile(tb testing.TB, path, bench string, metrics map[string]float64) {
	tb.Helper()
	if err := benchmeta.WriteJSON(path, bench, metrics); err != nil {
		tb.Fatal(err)
	}
}

// measureWorkload builds the store-benchmark fixture: a Brite topology with
// 50 paths observed for 10000 snapshots, plus a query mix shaped like
// the selection's lookups (every single path, many pairs, some larger sets).
func measureWorkload(b *testing.B) (*scenario.Scenario, *netsim.Record, []*bitset.Set) {
	b.Helper()
	net, err := brite.Generate(brite.Config{ASes: 20, EdgesPerAS: 2, Paths: 50, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	s, err := scenario.Brite(scenario.BriteConfig{
		Net: net, FracCongested: 0.10, Level: scenario.HighCorrelation, Seed: 31,
	})
	if err != nil {
		b.Fatal(err)
	}
	rec, err := netsim.Run(context.Background(), netsim.Config{
		Topology: s.Topology, Model: s.Model, Snapshots: 10000, Seed: 97,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	numPaths := s.Topology.NumPaths()
	var queries []*bitset.Set
	// Distinct queries only: a repeat within one cycle would hit the
	// columnar side's memo caches and contaminate the kernel comparison.
	seen := map[string]bool{}
	add := func(q *bitset.Set) {
		if k := q.Key(); !seen[k] {
			seen[k] = true
			queries = append(queries, q)
		}
	}
	for i := 0; i < numPaths; i++ {
		add(bitset.FromIndices(i))
	}
	for q := 0; q < 500; q++ {
		add(bitset.FromIndices(rng.Intn(numPaths), rng.Intn(numPaths)))
	}
	for q := 0; q < 50; q++ {
		add(bitset.FromIndices(rng.Intn(numPaths), rng.Intn(numPaths), rng.Intn(numPaths)))
	}
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	return s, rec, queries
}

// BenchmarkProbPathsGood compares one all-good probability query on the
// row-major baseline (scan all N snapshot bitsets) against the columnar
// store (OR of bit columns + popcount). The columnar side re-wraps the
// record each time the query list cycles, so every measured query is a
// cache miss — the speedup is the kernel's, not the memo's.
func BenchmarkProbPathsGood(b *testing.B) {
	_, rec, queries := measureWorkload(b)
	rows := recordRows(rec)
	metrics := map[string]float64{"snapshots": float64(rec.Snapshots()), "paths": float64(rec.NumPaths())}

	b.Run("row-major", func(b *testing.B) {
		src := &rowMajorSource{numPaths: rec.NumPaths(), rows: rows}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += src.ProbPathsGood(queries[i%len(queries)])
		}
		metrics["row-major-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("columnar", func(b *testing.B) {
		src, err := measure.NewEmpirical(rec)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := i % len(queries)
			if q == 0 && i > 0 {
				// Fresh wrapper: drop the memo caches so the kernel is measured.
				if src, err = measure.NewEmpirical(rec); err != nil {
					b.Fatal(err)
				}
			}
			benchSink += src.ProbPathsGood(queries[q])
		}
		metrics["columnar-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if rm, cc := metrics["row-major-ns/op"], metrics["columnar-ns/op"]; rm > 0 && cc > 0 {
		metrics["speedup"] = rm / cc
		b.Logf("ProbPathsGood at %d snapshots / %d paths: row-major %.0f ns/op, columnar %.0f ns/op (%.0f×)",
			rec.Snapshots(), rec.NumPaths(), rm, cc, metrics["speedup"])
	}
	writeBenchJSON(b, "BenchmarkProbPathsGood", metrics)
}

// BenchmarkEvaluateEquations prices the per-source half of the Section-4
// selection — one probability lookup per selected row, through
// Structure.EvaluateIn on a warm workspace — on the two source
// implementations. The structure compiles once; the columnar side wraps
// the record fresh each iteration, so its caches start cold like a new
// window's and the comparison measures lookups.
func BenchmarkEvaluateEquations(b *testing.B) {
	s, rec, _ := measureWorkload(b)
	lp, err := core.CompileLinear(s.Topology, false, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st := lp.Structure()
	metrics := map[string]float64{"snapshots": float64(rec.Snapshots()), "paths": float64(rec.NumPaths())}

	b.Run("row-major", func(b *testing.B) {
		src := &rowMajorSource{numPaths: rec.NumPaths(), rows: recordRows(rec)}
		ws := core.NewWorkspace()
		var sys *core.EquationSystem
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if sys, err = st.EvaluateIn(ws, src); err != nil {
				b.Fatal(err)
			}
		}
		metrics["row-major-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		metrics["rank"] = float64(sys.Rank)
	})
	b.Run("columnar", func(b *testing.B) {
		ws := core.NewWorkspace()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, err := measure.NewEmpirical(rec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.EvaluateIn(ws, src); err != nil {
				b.Fatal(err)
			}
		}
		metrics["columnar-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if rm, cc := metrics["row-major-ns/op"], metrics["columnar-ns/op"]; rm > 0 && cc > 0 {
		metrics["speedup"] = rm / cc
		b.Logf("EvaluateIn: row-major %.0f ns/op, columnar %.0f ns/op (%.1f×)", rm, cc, metrics["speedup"])
	}
	writeBenchJSON(b, "BenchmarkEvaluateEquations", metrics)
}
