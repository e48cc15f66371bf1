package tomography

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/dynamics"
	"repro/internal/measure"
	"repro/internal/scenario"
	"repro/internal/segstore"
)

// Time-evolving workloads: re-exports of the internal/dynamics process
// types. A CongestionProcess replaces the i.i.d. per-snapshot Model draw
// with Markov-modulated on/off congestion — bursts that persist across
// snapshots and couple across correlation groups.
type (
	// CongestionProcess is a time-indexed congestion process (see
	// internal/dynamics).
	CongestionProcess = dynamics.Process
	// MarkovModulated is the Markov-modulated on/off congestion process.
	MarkovModulated = dynamics.MarkovModulated
	// MarkovConfig parameterizes NewMarkovModulated.
	MarkovConfig = dynamics.Config
	// MarkovGroup configures one modulated congestion group.
	MarkovGroup = dynamics.Group
	// MarkovChain parameterizes one on/off modulator chain.
	MarkovChain = dynamics.Chain
	// ForcedBurst deterministically forces a modulator on over a snapshot
	// range — the injection mechanism for known congestion-state shifts.
	ForcedBurst = dynamics.ForcedBurst
	// ChangeDetector is the online CUSUM change-point detector windowed
	// inference uses to flag congestion-state shifts.
	ChangeDetector = dynamics.Detector
)

// NewMarkovModulated validates the configuration and builds a
// Markov-modulated congestion process.
func NewMarkovModulated(cfg MarkovConfig) (*MarkovModulated, error) {
	return dynamics.NewMarkovModulated(cfg)
}

// NewChangeDetector returns a CUSUM change-point detector; zero parameters
// take the documented defaults (see internal/dynamics).
func NewChangeDetector(warmup int, drift, threshold float64) (*ChangeDetector, error) {
	return dynamics.NewDetector(warmup, drift, threshold)
}

// DynamicSimConfig is SimConfig under its old name, and SimulateDynamic is
// Simulate: both stay only for the benchmark harness's input builder
// (perfbench/inputs.go), and go with the benchmark revision of ROADMAP
// item 8.
type DynamicSimConfig = SimConfig

// SimulateDynamic is Simulate; see DynamicSimConfig.
func SimulateDynamic(cfg DynamicSimConfig) (*Record, error) { return Simulate(cfg) }

// ScenarioSpec describes one named scenario in the registry.
type ScenarioSpec = scenario.Spec

// Scenarios returns every named scenario — quickstart, worm, flash-crowd,
// diurnal, link-flap, planetlab-replay, … — sorted by name. Build one with
// BuildScenario and feed it to EvaluateBatch, or select it on the command
// line with cmd/tomo -scenario.
func Scenarios() []ScenarioSpec { return scenario.Specs() }

// ScenarioNames returns the sorted names of all registered scenarios.
func ScenarioNames() []string { return scenario.Names() }

// BuildScenario builds the named scenario for a seed; equal seeds build
// identical scenarios.
func BuildScenario(name string, seed int64) (*Scenario, error) {
	return scenario.BuildNamed(name, seed)
}

// NewSlidingWindow returns an empty streaming measurement source whose
// estimates cover only the most recent window snapshots: Append past the
// capacity evicts the oldest snapshot from every count and from the pattern
// histogram, keeping memory bounded on an endless stream. At any moment it
// is bit-identical to a one-shot batch source over the retained rows.
// Window wraps one of these together with a compiled plan; use
// NewSlidingWindow directly to drive the estimators by hand.
func NewSlidingWindow(numPaths, window int) (*Empirical, error) {
	return measure.NewSlidingWindow(numPaths, window)
}

// SpillConfig configures the out-of-core backend of a spill-enabled sliding
// window: sealed column segments land as checksummed files under Dir (see
// internal/segstore), and counts run on the mapped segments zero-copy. It is
// an alias of segstore.Options.
type SpillConfig = segstore.Options

// NewSlidingWindowSpill is NewSlidingWindow with the window's sealed chunks
// spilled to disk: the retained rows live in a RAM write buffer only until
// a segment's worth has accumulated, then seal to disk under cfg.Dir. Estimates are
// bit-identical to the RAM-only window over the same rows; memory stays
// bounded by the segment size rather than the window size, so day-scale
// windows run in a fixed RSS budget.
func NewSlidingWindowSpill(numPaths, window int, cfg SpillConfig) (*Empirical, error) {
	return measure.NewSlidingWindowSpill(numPaths, window, cfg)
}

// WindowConfig parameterizes NewWindow.
type WindowConfig struct {
	// Size is the sliding-window length in snapshots (> 0): estimates cover
	// only the most recent Size observations.
	Size int
	// Estimator names the estimator to run per estimate ("" ⇒ correlation).
	Estimator string
	// Options tunes the estimator.
	Options EstimateOptions
	// Plan optionally supplies a precompiled plan for the topology; nil
	// compiles one lazily. Several windows over one topology should share a
	// plan.
	Plan *Plan
	// Detector overrides the change-point detector (nil ⇒ defaults). The
	// detector observes the per-snapshot fraction of congested paths.
	Detector *ChangeDetector
	// Spill, when non-nil, spills the window's sealed column chunks to
	// segment files under Spill.Dir, and counts run on the mapped files.
	// Estimates stay bit-identical to the RAM-only window; RSS stays
	// bounded by the segment size instead of Size.
	Spill *SpillConfig
}

// Window is an online sliding-window inference session: feed it one
// observation per snapshot with Observe, ask for current estimates at any
// moment with Estimate. The topology's equation structure is compiled once
// (or shared via WindowConfig.Plan) and reused by every estimate; the
// measurement window keeps counts and the congestion-pattern histogram
// incrementally, evicting the oldest snapshot as new ones arrive. A built-in
// change-point detector watches the observation stream and records
// congestion-state shifts.
//
// A frozen window estimates bit-identically to a one-shot batch over the
// same rows (the windowed==batch equivalence guarantee). Window methods must
// not be called concurrently, with one deliberate exception: Close may race
// an in-flight Estimate/EstimateShared/Observe — it waits for the call to
// finish, then closes (see Close). Concurrent reads belong on the immutable
// snapshots View produces, not on the window itself.
type Window struct {
	plan     *Plan
	name     string
	opts     EstimateOptions
	src      *Empirical
	detector *ChangeDetector
	numPaths int
	seen     int
	// ws is the window's evaluate workspace: the plan stays shared across
	// windows, while every per-estimate buffer (equation RHS, solver matrix,
	// LP tableau, MLE optimizer state) lives here and is reused, so a
	// steady-state EstimateShared allocates nothing.
	ws *Workspace

	// mu serializes the lifecycle against in-flight operations: Close takes
	// it, so closing during an estimate drains rather than pulling the
	// window's chunks (for spill windows, the segment mappings) out from
	// under the estimator mid-count.
	mu     sync.Mutex
	closed bool
}

// NewWindow opens a sliding-window inference session over a topology.
func NewWindow(top *Topology, cfg WindowConfig) (*Window, error) {
	if top == nil {
		return nil, fmt.Errorf("tomography: NewWindow: nil topology")
	}
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("tomography: NewWindow: window size = %d, want > 0", cfg.Size)
	}
	name := cfg.Estimator
	if name == "" {
		name = "correlation"
	}
	if !knownEstimator(name) {
		return nil, fmt.Errorf("tomography: NewWindow: unknown estimator %q (registered: %v)", name, EstimatorNames())
	}
	p := cfg.Plan
	if p == nil {
		var err error
		p, err = Compile(top, PlanOptions{Lazy: true})
		if err != nil {
			return nil, err
		}
	} else if p.Topology() != top {
		return nil, fmt.Errorf("tomography: NewWindow: the supplied plan was compiled for a different topology")
	}
	var src *Empirical
	var err error
	if cfg.Spill != nil {
		src, err = measure.NewSlidingWindowSpill(top.NumPaths(), cfg.Size, *cfg.Spill)
	} else {
		src, err = measure.NewSlidingWindow(top.NumPaths(), cfg.Size)
	}
	if err != nil {
		return nil, err
	}
	det := cfg.Detector
	if det == nil {
		det, err = NewChangeDetector(0, 0, 0)
		if err != nil {
			return nil, err
		}
	}
	return &Window{
		plan:     p,
		name:     name,
		opts:     cfg.Options,
		src:      src,
		detector: det,
		numPaths: top.NumPaths(),
		ws:       NewWorkspace(),
	}, nil
}

// Observe feeds one snapshot's congested-path observation, evicting the
// oldest retained snapshot once the window is full. It reports whether the
// change-point detector flagged a congestion-state shift on this snapshot.
// Observing a closed window panics: dropping observations silently would
// desync every downstream consumer.
func (w *Window) Observe(congested *PathSet) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		panic("tomography: Window.Observe on a closed window")
	}
	w.src.Append(congested)
	w.seen++
	return w.detector.Observe(float64(congested.Len()) / float64(w.numPaths))
}

// ObserveBatchWords feeds a batch of snapshots in observation order,
// presented as packed word-rows: rows snapshots, each wordsPerRow uint64
// words (bit i of word w ⇒ path w*64+i congested), laid out back to back in
// words — the exact layout the binary probe wire format carries, so wire
// ingest appends without materializing a PathSet per snapshot. The
// window's columns are column-major: each whole 64-row block of the batch
// is transposed into them, and the rows around the blocks are scattered
// bit by bit. It is bit-identical to calling Observe on each row
// (the detector sees the congested fraction as a popcount over each word
// row), but the evictions the batch forces are applied in one pass and the
// probability caches are reset once. It returns how many of the batch's
// snapshots the change-point detector flagged. The words may be reused by
// the caller after the call returns.
func (w *Window) ObserveBatchWords(words []uint64, wordsPerRow, rows int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		panic("tomography: Window.ObserveBatchWords on a closed window")
	}
	w.src.AppendBatchWords(words, wordsPerRow, rows)
	w.seen += rows
	flagged := 0
	for r := 0; r < rows; r++ {
		row := words[r*wordsPerRow : (r+1)*wordsPerRow]
		if w.detector.Observe(float64(bitset.PopCountWords(row)) / float64(w.numPaths)) {
			flagged++
		}
	}
	return flagged
}

// Close releases the window's storage: its chunks, or for spill windows
// its references to the mapped segments. Close is idempotent, and safe against an
// in-flight Estimate/EstimateShared/Observe from another goroutine: it
// waits for the operation to finish rather than tearing resources out from
// under it. After Close, estimates return an error and Observe panics;
// snapshot views taken earlier (View) remain independently valid until
// their own Close.
func (w *Window) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.src.Close()
}

// Estimate runs the configured estimator over the current window contents
// through the shared compiled plan. The result is independently allocated
// and may be retained across estimates; for the allocation-free steady
// state use EstimateShared.
func (w *Window) Estimate() (*EstimateResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("tomography: Window.Estimate: window is closed")
	}
	if w.src.Snapshots() == 0 {
		return nil, fmt.Errorf("tomography: Window.Estimate: no observations yet")
	}
	return Estimate(w.name, w.plan, w.src, w.opts)
}

// EstimateShared is Estimate on the window's own workspace: after the first
// few calls have grown the buffers, a steady-state estimate allocates
// nothing for the linear and theorem estimators (and a small constant for
// mle). The result is bit-identical to Estimate but aliases the workspace —
// read it (or copy what you keep) before the next EstimateShared on this
// window.
func (w *Window) EstimateShared() (*EstimateResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("tomography: Window.EstimateShared: window is closed")
	}
	if w.src.Snapshots() == 0 {
		return nil, fmt.Errorf("tomography: Window.EstimateShared: no observations yet")
	}
	return EstimateIn(w.ws, w.name, w.plan, w.src, w.opts)
}

// WindowView is an immutable snapshot of a Window at one instant: the
// frozen measurement source (measure.Empirical.SnapshotView — sealed
// chunks shared by reference, only the write buffer's filled rows
// copied), the shared compiled plan, and the window's progress gauges.
// Views are what estimate-side read replicas consume: any number of
// goroutines may each hold a view and run EstimateIn against it with their
// own Workspace while the window keeps observing, and every view estimate
// is bit-identical to what Window.Estimate would have returned at the
// moment View was called. Close releases the view's references to the
// window's chunks; a closed view may be passed back to View as the recycle
// argument.
type WindowView struct {
	src          *Empirical
	name         string
	plan         *Plan
	opts         EstimateOptions
	seen         int
	len          int
	changePoints int
}

// View freezes the window's current contents into an immutable WindowView.
// Sealed chunks are shared by reference and at most one chunk's rows are
// copied, so the cost does not grow with the window; passing a previously
// closed view as recycle reuses its storage, so a steady-state publisher
// allocates nothing. View must be called by the goroutine that
// owns the window's observations, and panics on a closed window.
func (w *Window) View(recycle *WindowView) *WindowView {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		panic("tomography: Window.View on a closed window")
	}
	v := recycle
	var src *Empirical
	if v != nil {
		src = v.src
	} else {
		v = &WindowView{}
	}
	v.src = w.src.SnapshotView(src)
	v.name, v.plan, v.opts = w.name, w.plan, w.opts
	v.seen = w.seen
	v.len = v.src.Snapshots()
	v.changePoints = w.detector.Alarms()
	return v
}

// EstimateIn runs the view's configured estimator over the frozen window
// contents on the caller's workspace — EstimateShared semantics for read
// replicas: each replica goroutine owns one Workspace and reuses it across
// views, so steady-state replica estimates allocate nothing. The result
// aliases the workspace; read or detach it before the workspace's next
// estimate.
func (v *WindowView) EstimateIn(ws *Workspace) (*EstimateResult, error) {
	if v.src.Snapshots() == 0 {
		return nil, fmt.Errorf("tomography: WindowView.EstimateIn: no observations in view")
	}
	return EstimateIn(ws, v.name, v.plan, v.src, v.opts)
}

// Source exposes the view's frozen measurement source.
func (v *WindowView) Source() *Empirical { return v.src }

// Seen returns the window's lifetime observation count at snapshot time.
func (v *WindowView) Seen() int { return v.seen }

// Len returns the number of snapshots retained in the view.
func (v *WindowView) Len() int { return v.len }

// ChangePoints returns how many change-point alerts the window's detector
// had fired at snapshot time.
func (v *WindowView) ChangePoints() int { return v.changePoints }

// Close releases the view's storage — the references that keep the
// window's shared chunks alive. Idempotent; a closed view may be
// recycled through Window.View.
func (v *WindowView) Close() {
	if v.src != nil {
		v.src.Close()
	}
}

// Source exposes the window's measurement source (e.g. to run a second
// estimator over the same window with EstimateIn).
func (w *Window) Source() *Empirical { return w.src }

// Plan returns the compiled plan the window estimates through.
func (w *Window) Plan() *Plan { return w.plan }

// Seen returns the total number of snapshots observed.
func (w *Window) Seen() int { return w.seen }

// Len returns the number of snapshots currently in the window
// (min(Seen, Size)).
func (w *Window) Len() int { return w.src.Snapshots() }

// ChangePoints returns the snapshot indices at which the detector flagged
// congestion-state shifts.
func (w *Window) ChangePoints() []int { return w.detector.ChangePoints() }

// WindowPoint is one checkpoint of a windowed replay: the estimate over the
// window ending at (0-based) snapshot T.
type WindowPoint struct {
	// T is the index of the last snapshot included in the window.
	T int
	// Result is the estimate over the window's rows.
	Result *EstimateResult
	// Changed reports whether a congestion-state shift was flagged anywhere
	// in (prevT, T].
	Changed bool
}

// WindowedEstimate replays a record through a sliding window of cfg.Size
// snapshots, estimating every stride snapshots (and at the final snapshot),
// starting once the window has filled. One plan is compiled (or shared via
// cfg.Plan) for the whole replay. It is the offline counterpart of driving a
// Window from a live feed: WindowedEstimateFunc with every checkpoint's
// result detached from the window's workspace and kept.
func WindowedEstimate(top *Topology, rec *Record, cfg WindowConfig, stride int) ([]WindowPoint, error) {
	var out []WindowPoint
	err := WindowedEstimateFunc(top, rec, cfg, stride, func(pt WindowPoint) error {
		pt.Result = pt.Result.clone()
		out = append(out, pt)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WindowedEstimateFunc is the steady-state form of WindowedEstimate: instead
// of materializing every checkpoint, it invokes fn with each WindowPoint as
// it is produced. The point's Result lives in the window's workspace and the
// replay's row scratch is reused, so after warm-up the loop allocates
// nothing per snapshot for the linear and theorem estimators — the
// monitoring loop runs garbage-free at whatever rate snapshots arrive.
// The Result passed to fn is valid only during the call; copy what you keep.
// fn returning a non-nil error stops the replay and returns that error.
// The replay's window is closed before it returns, releasing its chunks
// and, for a spill window, its segment mappings.
func WindowedEstimateFunc(top *Topology, rec *Record, cfg WindowConfig, stride int, fn func(WindowPoint) error) error {
	if rec == nil || rec.Paths == nil {
		return fmt.Errorf("tomography: WindowedEstimate: nil record")
	}
	if stride <= 0 {
		return fmt.Errorf("tomography: WindowedEstimate: stride = %d, want > 0", stride)
	}
	w, err := NewWindow(top, cfg)
	if err != nil {
		return err
	}
	defer w.Close()
	row := NewPathSet()
	n := rec.Snapshots()
	changed := false
	for t := 0; t < n; t++ {
		rec.Paths.RowInto(t, row)
		if w.Observe(row) {
			changed = true
		}
		full := t+1 >= cfg.Size
		checkpoint := (t+1)%stride == 0 || t == n-1
		if !full || !checkpoint {
			continue
		}
		res, err := w.EstimateShared()
		if err != nil {
			return fmt.Errorf("tomography: WindowedEstimate at snapshot %d: %w", t, err)
		}
		if err := fn(WindowPoint{T: t, Result: res, Changed: changed}); err != nil {
			return err
		}
		changed = false
	}
	return nil
}
