package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// selectorVariants are the structural configurations the selector tests
// run under: the paper's partition and the identity one, the
// overdetermined and pairs-off ablations, and the GF(2) rank tracker.
var selectorVariants = []struct {
	name     string
	identity bool
	opts     Options
	gf2      bool
}{
	{"default", false, Options{}, false},
	{"identity", true, Options{}, false},
	{"all-equations", false, Options{UseAllEquations: true}, false},
	{"pairs-off", false, Options{DisablePairs: true}, false},
	{"gf2", false, Options{}, true},
}

// withDead returns an empirical source over rec's snapshots in which every
// path of dead is congested in every snapshot.
func withDead(t testing.TB, rec *netsim.Record, dead []topology.PathID) *measure.Empirical {
	t.Helper()
	rows := make([]*bitset.Set, rec.Snapshots())
	for i := range rows {
		rows[i] = rec.PathSnapshot(i)
		for _, p := range dead {
			rows[i].Add(int(p))
		}
	}
	src, err := measure.NewEmpirical(netsim.NewRecordFromRows(rec.NumPaths(), rows))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// withNeverBothGood returns an empirical source over rec's snapshots in
// which path j is congested whenever path i is good, so the pair row of i
// and j measures 0 while both single rows stay usable.
func withNeverBothGood(t testing.TB, rec *netsim.Record, i, j topology.PathID) *measure.Empirical {
	t.Helper()
	rows := make([]*bitset.Set, rec.Snapshots())
	for s := range rows {
		rows[s] = rec.PathSnapshot(s)
		if !rows[s].Contains(int(i)) {
			rows[s].Add(int(j))
		}
	}
	src, err := measure.NewEmpirical(netsim.NewRecordFromRows(rec.NumPaths(), rows))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// deadSets picks the dead-path sets a structure's differential runs
// against, from its compiled selection: one path of a selected row, paths
// of several selected rows, a path that only a selected pair row uses (when
// the selection has one), every path, and a few random sets.
func deadSets(st *Structure, rng *rand.Rand) map[string][]topology.PathID {
	acc := st.compiled.accepted
	rowPath := func(i int) topology.PathID { return st.stream[acc[i]].paths[0] }
	sets := map[string][]topology.PathID{
		"one":     {rowPath(len(acc) / 2)},
		"several": {rowPath(len(acc) / 4), rowPath(len(acc) / 2), rowPath(3 * len(acc) / 4)},
	}
	inSingle := map[topology.PathID]bool{}
	for _, a := range acc {
		if c := st.stream[a]; c.n == 1 {
			inSingle[c.paths[0]] = true
		}
	}
pairs:
	for _, a := range acc {
		for _, p := range st.stream[a].pathIDs() {
			if !inSingle[p] {
				sets["pair-only"] = []topology.PathID{p}
				break pairs
			}
		}
	}
	var every []topology.PathID
	for p := 0; p < st.top.NumPaths(); p++ {
		every = append(every, topology.PathID(p))
	}
	sets["every"] = every
	for r := 0; r < 3; r++ {
		var set []topology.PathID
		for n := 1 + rng.Intn(5); len(set) < n; {
			set = append(set, topology.PathID(rng.Intn(st.top.NumPaths())))
		}
		sets[fmt.Sprintf("random-%d", r)] = set
	}
	return sets
}

// checkSelection evaluates st and its linear plan on ws against src and
// requires both to be reflect.DeepEqual to the fused oracle.
func checkSelection(t *testing.T, ws *Workspace, st *Structure, identity bool, opts Options, src measure.Source, what string) {
	t.Helper()
	_, gf2 := st.basis.(*gf2Tracker)
	want, err := BuildEquations(st.top, src, identity, opts, gf2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.EvaluateIn(ws, src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: resumed selection differs from fused BuildEquations (skipped %d vs %d, rank %d vs %d)",
			what, got.SkippedZeroProb, want.SkippedZeroProb, got.Rank, want.Rank)
	}
	wantRes, wantErr := solveSystemIn(NewWorkspace(), want, opts)
	gotRes, gotErr := (&LinearPlan{structure: st, opts: opts}).RunIn(ws, src)
	if (wantErr == nil) != (gotErr == nil) || wantErr == nil && !reflect.DeepEqual(wantRes, gotRes) {
		t.Fatalf("%s: RunIn differs from fused BuildEquations + solve (errors %v, %v)", what, gotErr, wantErr)
	}
}

// TestResumedSelectionMatchesOracle is the dead-path differential: under
// every selector variant and dead-path set, the compiled selection resumed
// on a workspace equals the fused selection made with the data in hand. One
// workspace then runs the sequence dead A → dead B → none → dead A → A and
// B, alternating with a second structure, so no estimate depends on what
// the workspace served before.
func TestResumedSelectionMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fused oracle over many dead-path sets; run without -short")
	}
	pairOnly := 0
	// Seed 28's selections use a path only through a pair row.
	for _, seed := range []int64{3, 28} {
		top, rec := briteRecord(t, seed)
		rng := rand.New(rand.NewSource(seed))
		other, err := compileStructure(top, true, Options{DisablePairs: true}, newRankTracker(top.NumLinks(), false))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range selectorVariants {
			st, err := compileStructure(top, v.identity, v.opts, newRankTracker(top.NumLinks(), v.gf2))
			if err != nil {
				t.Fatal(err)
			}
			sets := deadSets(st, rng)
			if _, ok := sets["pair-only"]; ok {
				pairOnly++
			}
			for name, dead := range sets {
				checkSelection(t, NewWorkspace(), st, v.identity, v.opts, withDead(t, rec, dead),
					fmt.Sprintf("seed %d %s dead %s", seed, v.name, name))
			}
			for _, a := range st.compiled.accepted {
				if c := st.stream[a]; c.n == 2 {
					checkSelection(t, NewWorkspace(), st, v.identity, v.opts, withNeverBothGood(t, rec, c.paths[0], c.paths[1]),
						fmt.Sprintf("seed %d %s dead pair %v", seed, v.name, c.pathIDs()))
					break
				}
			}

			a, b := sets["one"], sets["several"]
			if pb, ok := sets["pair-only"]; ok {
				b = pb
			}
			sequence := []struct {
				name string
				dead []topology.PathID
			}{
				{"A", a}, {"B", b}, {"none", nil}, {"A", a}, {"A+B", append(append([]topology.PathID{}, a...), b...)},
			}
			ws := NewWorkspace()
			for i, step := range sequence {
				src := withDead(t, rec, step.dead)
				what := fmt.Sprintf("seed %d %s step %d (dead %s)", seed, v.name, i, step.name)
				checkSelection(t, ws, st, v.identity, v.opts, src, what)
				checkSelection(t, ws, other, true, Options{DisablePairs: true}, src, what+" second structure")
				checkSelection(t, ws, st, v.identity, v.opts, src, what+" again")
			}
		}
	}
	if pairOnly == 0 {
		t.Fatal("no selection had a path used only by a pair row; the pair-only case never ran")
	}
}

// nanSource answers as src does, except that every query touching path nan
// measures NaN.
type nanSource struct {
	src measure.Source
	nan topology.PathID
}

func (s nanSource) NumPaths() int { return s.src.NumPaths() }

func (s nanSource) ProbPathGood(i topology.PathID) float64 {
	if i == s.nan {
		return math.NaN()
	}
	return s.src.ProbPathGood(i)
}

func (s nanSource) ProbPairGood(i, j topology.PathID) float64 {
	if i == s.nan || j == s.nan {
		return math.NaN()
	}
	return s.src.ProbPairGood(i, j)
}

func (s nanSource) PrimePairs(pairs []measure.Pair) { s.src.PrimePairs(pairs) }

// TestNaNProbabilityIsKept pins the selector's comparison: a NaN measured
// probability is not at or below minProb, so its row is kept, as the fused
// selection keeps it, rather than dropped.
func TestNaNProbabilityIsKept(t *testing.T) {
	top, src := briteFixture(t, 3)
	st, err := CompileStructure(top, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nan := nanSource{src: src, nan: st.stream[st.compiled.accepted[0]].paths[0]}
	want, err := BuildEquations(top, nan, false, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.EvaluateIn(NewWorkspace(), nan)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Equations[0].Y) || got.SkippedZeroProb != 0 {
		t.Fatalf("first row Y = %v, %d rows skipped; want NaN kept", got.Equations[0].Y, got.SkippedZeroProb)
	}
	// reflect.DeepEqual never equates NaNs; compare the bits.
	if len(want.Equations) != len(got.Equations) || want.Rank != got.Rank {
		t.Fatalf("%d equations, rank %d; oracle %d, rank %d", len(got.Equations), got.Rank, len(want.Equations), want.Rank)
	}
	for i := range want.Equations {
		if math.Float64bits(want.Equations[i].Y) != math.Float64bits(got.Equations[i].Y) ||
			!reflect.DeepEqual(want.Equations[i].Paths, got.Equations[i].Paths) {
			t.Fatalf("equation %d differs from the oracle", i)
		}
	}
}

// healthyWindow is the healthy side of TestHealthyAfterDeadPathAllocs: a
// warm sliding window that takes the next recorded row before each
// estimate.
type healthyWindow struct {
	win  *measure.Empirical
	rows []*bitset.Set
	next int
}

// step appends a row and estimates on the window; the allocations the
// test counts are the ones on stacks through step.
func (h *healthyWindow) step(t *testing.T, lp *LinearPlan, ws *Workspace) {
	h.win.Append(h.rows[h.next])
	h.next = (h.next + 1) % len(h.rows)
	res, err := lp.RunIn(ws, h.win)
	if err != nil {
		t.Fatal(err)
	}
	if res.System.SkippedZeroProb != 0 {
		t.Fatal("the healthy window dropped a row")
	}
}

// deadStep estimates on a source with a dead path, which resumes the
// selection.
func deadStep(t *testing.T, lp *LinearPlan, ws *Workspace, src measure.Source) {
	res, err := lp.RunIn(ws, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.System.SkippedZeroProb == 0 {
		t.Fatal("the dead path dropped no row")
	}
}

// heapAllocsThrough returns, per allocation stack that passes through a
// function whose name ends in one of fns, the objects allocated there so
// far. It reads the heap profile, which covers every allocation only while
// runtime.MemProfileRate is 1, and which a completed GC cycle publishes.
func heapAllocsThrough(fns ...string) map[string]int64 {
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
			for _, fn := range fns {
				through = through || strings.HasSuffix(f.Function, fn)
			}
		}
		if through {
			out[stack.String()] += r.AllocObjects
		}
	}
	return out
}

// TestHealthyAfterDeadPathAllocs pins that an estimate with a dead path
// leaves nothing on the workspace that a later healthy estimate pays for,
// and that a warm resume allocates nothing: one workspace alternates RunIn
// on a source with a dead path (which resumes the selection) and Append +
// RunIn on a healthy warm window, and after a warm-up neither allocates.
//
// Allocations are counted from the heap profile at MemProfileRate 1, on the
// stacks through the two steps. runtime.MemStats.Mallocs would also count
// other goroutines: the runtime's own, such as the scavenger growing its
// timer heap (runtime.(*timers).addHeap under runtime.bgscavenge), which
// made a Mallocs count fail now and then on code that did not allocate.
func TestHealthyAfterDeadPathAllocs(t *testing.T) {
	top, rec := briteRecord(t, 3)
	lp, err := CompileLinear(top, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := lp.Structure()
	dead := withDead(t, rec, []topology.PathID{st.stream[st.compiled.accepted[len(st.compiled.accepted)/2]].paths[0]})
	win, err := measure.NewSlidingWindow(top.NumPaths(), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()
	h := &healthyWindow{win: win, rows: make([]*bitset.Set, rec.Snapshots())}
	for i := range h.rows {
		h.rows[i] = rec.PathSnapshot(i)
	}
	for i := 0; i < 256; i++ {
		win.Append(h.rows[i])
	}
	h.next = 256 % len(h.rows)
	ws := NewWorkspace()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for i := 0; i < 4; i++ { // warm-up
		deadStep(t, lp, ws, dead)
		h.step(t, lp, ws)
	}
	steps := []string{"(*healthyWindow).step", "deadStep"}
	before := heapAllocsThrough(steps...)
	for i := 0; i < 16; i++ {
		deadStep(t, lp, ws, dead)
		h.step(t, lp, ws)
	}
	for stack, n := range heapAllocsThrough(steps...) {
		if n -= before[stack]; n != 0 {
			t.Errorf("a step allocates %d objects after a warm-up, at%s", n, stack)
		}
	}
}
