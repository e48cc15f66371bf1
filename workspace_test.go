package tomography_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	tomography "repro"
	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/congestion"
	"repro/internal/netsim"
	"repro/internal/scenario"
)

// quietDetector returns a change detector that never alarms (and therefore
// never appends a change point), so allocation measurements see only the
// inference pipeline.
func quietDetector() *tomography.ChangeDetector {
	return &tomography.ChangeDetector{Warmup: math.MaxInt32, Drift: 1, Threshold: 1e18, Smoothing: 1}
}

// recordRows materializes every snapshot of a record, oldest first.
func recordRows(rec *tomography.Record) []*tomography.PathSet {
	rows := make([]*tomography.PathSet, rec.Snapshots())
	for t := range rows {
		rows[t] = rec.PathSnapshot(t)
	}
	return rows
}

// briteWindowFixture builds a mid-sized Brite scenario record and
// pre-materialized observation rows for windowed-inference tests.
func briteWindowFixture(t testing.TB, snapshots int) (*scenario.Scenario, []*tomography.PathSet) {
	t.Helper()
	net, err := brite.Generate(brite.Config{ASes: 40, EdgesPerAS: 2, Paths: 150, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Brite(scenario.BriteConfig{
		Net: net, FracCongested: 0.10, Level: scenario.HighCorrelation, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: s.Topology, Model: s.Model, Snapshots: snapshots, Seed: 97, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, recordRows(rec)
}

// figure1AWindowFixture builds a record over the Figure-1(a) toy — small
// enough for the theorem estimator — with a bounded pattern alphabet, so a
// warmed sliding window sees no never-before-seen congestion pattern.
func figure1AWindowFixture(t testing.TB, snapshots int) (*tomography.Topology, []*tomography.PathSet) {
	t.Helper()
	top := tomography.Figure1A()
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
		t.Fatal(err)
	}
	rec, err := netsim.Run(context.Background(), netsim.Config{Topology: top, Model: model, Snapshots: snapshots, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return top, recordRows(rec)
}

// warmWindow is a window in the steady state of the online loop: it is
// full, every workspace buffer has grown, and it has seen every pattern the
// stream contains.
type warmWindow struct {
	t    testing.TB
	w    *tomography.Window
	rows []*tomography.PathSet
	next int
}

// newWarmWindow opens a window for an estimator and warms it up: it fills
// the window; one estimate grows every workspace buffer (and, for
// pattern-histogram estimators, materializes the histogram); a full cycle
// through the stream then charges every pattern it contains into the live
// histogram; a few more estimates settle map growth. The caller closes the
// window.
func newWarmWindow(t testing.TB, top *tomography.Topology, rows []*tomography.PathSet, estimator string, window int, spill *tomography.SpillConfig) *warmWindow {
	t.Helper()
	w, err := tomography.NewWindow(top, tomography.WindowConfig{
		Size:      window,
		Estimator: estimator,
		Detector:  quietDetector(),
		Spill:     spill,
	})
	if err != nil {
		t.Fatal(err)
	}
	ww := &warmWindow{t: t, w: w, rows: rows}
	for i := 0; i < window; i++ {
		ww.observe()
	}
	ww.estimate()
	for i := 0; i < len(rows); i++ {
		ww.observe()
	}
	for i := 0; i < 3; i++ {
		ww.estimate()
	}
	return ww
}

func (ww *warmWindow) observe() {
	ww.w.Observe(ww.rows[ww.next])
	ww.next = (ww.next + 1) % len(ww.rows)
}

func (ww *warmWindow) estimate() {
	if _, err := ww.w.EstimateShared(); err != nil {
		ww.t.Fatal(err)
	}
}

// step is one steady-state step: Observe the next row, then
// EstimateShared.
func (ww *warmWindow) step() {
	ww.observe()
	ww.estimate()
}

// steadyStateAllocs measures the average allocations of one steady-state
// windowed-inference step (Observe + EstimateShared) for an estimator on a
// warm window.
func steadyStateAllocs(t *testing.T, top *tomography.Topology, rows []*tomography.PathSet, estimator string, window int, spill *tomography.SpillConfig) float64 {
	t.Helper()
	ww := newWarmWindow(t, top, rows, estimator, window, spill)
	defer ww.w.Close()
	return testing.AllocsPerRun(50, ww.step)
}

// TestWindowedInferenceSteadyStateAllocs is the allocation budget of the
// online monitoring loop: once a window is warm, Observe + EstimateShared
// must run garbage-free for the linear-family and theorem estimators, and
// within a small pinned constant for the MLE optimizer. This is the
// regression gate CI enforces (any new per-estimate allocation on the hot
// path fails it).
func TestWindowedInferenceSteadyStateAllocs(t *testing.T) {
	scn, briteRows := briteWindowFixture(t, 700)
	toyTop, toyRows := figure1AWindowFixture(t, 700)

	cases := []struct {
		name      string
		estimator string
		top       *tomography.Topology
		rows      []*tomography.PathSet
		window    int
		spill     bool
		budget    float64
	}{
		{"correlation/brite", "correlation", scn.Topology, briteRows, 256, false, 0},
		{"independence/brite", "independence", scn.Topology, briteRows, 256, false, 0},
		{"correlation/toy", "correlation", toyTop, toyRows, 256, false, 0},
		{"theorem/toy", "theorem", toyTop, toyRows, 256, false, 0},
		// The MLE optimizer is allocation-free too; budget 0 documents it.
		{"mle/toy", "mle", toyTop, toyRows, 256, false, 0},
		// A large RAM window shares the budget: it spans eight sealed
		// 4160-row chunks plus the write buffer, and the warm-up leaves its
		// head in the middle of the oldest chunk.
		{"correlation/toy/many-chunks", "correlation", toyTop, toyRows, 64*512 + 300, false, 0},
		// The segment-backed warm read path shares the budget too: the
		// window spans sealed (mapped) segments, a mid-segment head
		// boundary, and the active tail buffer, and every count query over
		// them must stay garbage-free between seals (the seal itself — once
		// per 512 appends, outside the measured steady state — is the only
		// allocating event).
		{"correlation/toy/spill", "correlation", toyTop, toyRows, 1536, true, 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var spill *tomography.SpillConfig
			if c.spill {
				spill = &tomography.SpillConfig{Dir: t.TempDir(), SegmentRows: 512}
			}
			got := steadyStateAllocs(t, c.top, c.rows, c.estimator, c.window, spill)
			if got > c.budget {
				t.Fatalf("steady-state Observe+EstimateShared allocates %.2f objects/op, budget %v", got, c.budget)
			}
		})
	}
}

// heapAllocsThrough returns, per allocation stack that passes through a
// function whose name ends in fn, the objects allocated there so far. It
// reads the heap profile, which covers every allocation only while
// runtime.MemProfileRate is 1, and which a completed GC cycle publishes.
func heapAllocsThrough(fn string) map[string]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := map[string]int64{}
	for _, r := range recs[:n] {
		var stack strings.Builder
		through := false
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			fmt.Fprintf(&stack, "\n\t%s:%d", f.Function, f.Line)
			through = through || strings.HasSuffix(f.Function, fn)
		}
		if through {
			out[stack.String()] += r.AllocObjects
		}
	}
	return out
}

// TestWindowedEstimateAllocsExact counts every allocation of 300 warm
// windowed steps (Observe + EstimateShared) for the theorem and mle
// estimators, with a bound of 0. testing.AllocsPerRun divides the total by
// the run count as integers, so TestWindowedInferenceSteadyStateAllocs
// passes with one stray allocation in 50 runs; this count does not. It is
// read from the heap profile at MemProfileRate 1, on the stacks through
// the step, so that the runtime's own goroutines are not counted.
func TestWindowedEstimateAllocsExact(t *testing.T) {
	top, rows := figure1AWindowFixture(t, 700)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for _, estimator := range []string{"theorem", "mle"} {
		t.Run(estimator+"/toy", func(t *testing.T) {
			ww := newWarmWindow(t, top, rows, estimator, 256, nil)
			defer ww.w.Close()
			before := heapAllocsThrough("(*warmWindow).step")
			for i := 0; i < 300; i++ {
				ww.step()
			}
			for stack, n := range heapAllocsThrough("(*warmWindow).step") {
				if n -= before[stack]; n != 0 {
					t.Errorf("a warm step allocates %d objects in 300 steps, at%s", n, stack)
				}
			}
		})
	}
}

// alarmedDetector returns a change detector that has already fired n
// alarms and then goes quiet, so allocation measurements see a window whose
// detector holds a non-empty change-point list without growing it.
func alarmedDetector(t testing.TB, n int) *tomography.ChangeDetector {
	t.Helper()
	d := &tomography.ChangeDetector{Warmup: 1, Threshold: 0.5, Smoothing: 1}
	for i := 0; i < 2*n; i++ {
		d.Observe(float64(i % 2))
	}
	if got := len(d.ChangePoints()); got != n {
		t.Fatalf("detector fired %d alarms, want %d", got, n)
	}
	d.Warmup, d.Threshold = math.MaxInt32, 1e18
	return d
}

// TestWindowChunkTurnoverAllocs counts every allocation a warm RAM window
// makes while all its chunks turn over: per-row Observe and then
// ObserveBatchWords each append a whole window of rows — sealing the write
// buffer eight times, dropping chunks behind the window, recycling their
// words — with a recycled view published along the way, as the serving
// shards do. The alarmed case runs it with a detector that has fired 200
// alarms, so a view that copied the change-point list would allocate.
// testing.AllocsPerRun(1, …) reports the loop's total rather than a
// per-run average rounded down, so even one allocation per seal fails it.
func TestWindowChunkTurnoverAllocs(t *testing.T) {
	scn, rows := briteWindowFixture(t, 700)
	const (
		window = 1024 // 128-row chunks
		batch  = 64
	)
	stride := (scn.Topology.NumPaths() + 63) / 64
	words := make([]uint64, len(rows)*stride)
	for r, row := range rows {
		copy(words[r*stride:], row.Words())
	}
	for _, c := range []struct {
		name     string
		detector *tomography.ChangeDetector
	}{
		{"quiet", quietDetector()},
		{"alarmed", alarmedDetector(t, 200)},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, err := tomography.NewWindow(scn.Topology, tomography.WindowConfig{Size: window, Detector: c.detector})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			var view *tomography.WindowView
			defer func() { view.Close() }()
			next := 0
			turnover := func() {
				for i := 0; i < window; i++ {
					w.Observe(rows[next])
					next = (next + 1) % len(rows)
					if next%batch == 0 {
						view = w.View(view)
					}
				}
				for i := 0; i < window/batch; i++ {
					if next+batch > len(rows) {
						next = 0
					}
					w.ObserveBatchWords(words[next*stride:(next+batch)*stride], stride, batch)
					next += batch
					view = w.View(view)
				}
			}
			for w.Len() < window {
				w.Observe(rows[next])
				next = (next + 1) % len(rows)
			}
			turnover()
			if got := testing.AllocsPerRun(1, turnover); got != 0 {
				t.Fatalf("%v allocations over two full turnovers of a warm window, want 0", got)
			}
			if got := view.ChangePoints(); got != len(w.ChangePoints()) {
				t.Fatalf("view reports %d change points, window %d", got, len(w.ChangePoints()))
			}
		})
	}
}

// TestWindowedEstimateFuncSteadyState pins the streaming replay: it must
// produce the same checkpoints as WindowedEstimate, bit-identically, while
// its results live in the window's workspace.
func TestWindowedEstimateFuncSteadyState(t *testing.T) {
	s, err := tomography.BuildScenario("quickstart", 5)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: s.Topology, Model: s.Model, Snapshots: 600, Seed: 11, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tomography.WindowConfig{Size: 256}
	const stride = 64
	want, err := tomography.WindowedEstimate(s.Topology, rec, cfg, stride)
	if err != nil {
		t.Fatal(err)
	}
	var got []tomography.WindowPoint
	err = tomography.WindowedEstimateFunc(s.Topology, rec, cfg, stride, func(pt tomography.WindowPoint) error {
		// The point's result aliases the window workspace; detach what the
		// comparison keeps.
		cp := *pt.Result
		cp.CongestionProb = append([]float64(nil), cp.CongestionProb...)
		pt.Result = &cp
		got = append(got, pt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("WindowedEstimateFunc produced %d checkpoints, WindowedEstimate %d", len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T || got[i].Changed != want[i].Changed {
			t.Fatalf("checkpoint %d: (T=%d, Changed=%v) != (T=%d, Changed=%v)",
				i, got[i].T, got[i].Changed, want[i].T, want[i].Changed)
		}
		if !reflect.DeepEqual(got[i].Result.CongestionProb, want[i].Result.CongestionProb) {
			t.Fatalf("checkpoint %d: workspace replay diverged from allocating replay", i)
		}
	}
}

// fingerprint renders every value of an estimate result — floats by their
// bits, equation systems down to each equation's links and paths — so two
// fingerprints are equal exactly when the results are bitwise identical.
func fingerprint(r *tomography.EstimateResult) string {
	var b strings.Builder
	floats := func(tag string, xs []float64) {
		fmt.Fprintf(&b, "%s:", tag)
		for _, x := range xs {
			fmt.Fprintf(&b, "%x,", math.Float64bits(x))
		}
		b.WriteByte('\n')
	}
	keyed := func(tag string, m map[string]float64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s:", tag)
		for _, k := range keys {
			fmt.Fprintf(&b, "%q=%x,", k, math.Float64bits(m[k]))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "estimator:%s\n", r.Estimator)
	floats("prob", r.CongestionProb)
	if l := r.Linear; l != nil {
		floats("linear.prob", l.CongestionProb)
		floats("linear.log", l.LogGoodProb)
		sys := l.System
		fmt.Fprintf(&b, "solver:%s rank:%d n1:%d n2:%d skipped:%d covered:%v\n",
			l.Solver, sys.Rank, sys.SinglePathEqs, sys.PairEqs, sys.SkippedZeroProb, sys.Covered)
		for _, eq := range sys.Equations {
			fmt.Fprintf(&b, "eq:%v %x %v\n", eq.Links, math.Float64bits(eq.Y), eq.Paths)
		}
	}
	if th := r.Theorem; th != nil {
		floats("theorem.prob", th.CongestionProb)
		floats("theorem.empty", th.ProbSetEmpty)
		keyed("alpha", th.Alpha)
		keyed("joint", th.JointProb)
		fmt.Fprintf(&b, "subsets:%v\n", th.Subsets)
	}
	if m := r.MLE; m != nil {
		floats("mle.prob", m.CongestionProb)
		floats("mle.log", m.LogGoodProb)
		fmt.Fprintf(&b, "ll:%x iters:%d\n", math.Float64bits(m.LogLikelihood), m.Iters)
	}
	return b.String()
}

// TestEstimateInMatchesEstimate pins the two entry points against each
// other and Estimate's ownership contract. Estimate runs EstimateIn on a
// pooled workspace, so for every estimator (1) its result must
// be detached: bitwise unchanged after later Estimate and EstimateIn calls
// on other data have reused the pooled and caller-owned workspaces, down to
// the Linear.System equations; and (2) EstimateIn on a workspace dirtied by
// other sources must reproduce it bit for bit.
func TestEstimateInMatchesEstimate(t *testing.T) {
	top, rows := figure1AWindowFixture(t, 2000)
	rec := tomography.NewRecordFromRows(top.NumPaths(), rows)
	src, err := tomography.NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	// A second source with different data dirties the workspaces between runs.
	otherSrc, err := tomography.NewEmpirical(tomography.NewRecordFromRows(top.NumPaths(), rows[:1000]))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tomography.Compile(top, tomography.PlanOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	ws := tomography.NewWorkspace()
	for _, name := range tomography.EstimatorNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			want, err := tomography.Estimate(name, plan, src, tomography.EstimateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantPrint := fingerprint(want)
			for i := 0; i < 3; i++ {
				other, err := tomography.Estimate(name, plan, otherSrc, tomography.EstimateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 && fingerprint(other) == wantPrint {
					t.Fatal("fixture: the second source must estimate differently")
				}
				if _, err := tomography.EstimateIn(ws, name, plan, otherSrc, tomography.EstimateOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			if got := fingerprint(want); got != wantPrint {
				t.Fatalf("Estimate result changed after later estimates on other data:\n got %s\nwant %s", got, wantPrint)
			}
			got, err := tomography.EstimateIn(ws, name, plan, src, tomography.EstimateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if gotPrint := fingerprint(got); gotPrint != wantPrint {
				t.Fatalf("EstimateIn on a dirtied workspace diverges from Estimate:\n got %s\nwant %s", gotPrint, wantPrint)
			}
		})
	}
}

// TestEstimateInNilWorkspace pins the nil-workspace error text.
func TestEstimateInNilWorkspace(t *testing.T) {
	s, err := tomography.BuildScenario("quickstart", 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tomography.Compile(s.Topology, tomography.PlanOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tomography.EstimateIn(nil, "correlation", plan, nil, tomography.EstimateOptions{})
	if err == nil || err.Error() != `tomography: EstimateIn "correlation": nil workspace (use NewWorkspace)` {
		t.Fatalf("nil workspace error = %v", err)
	}
}
