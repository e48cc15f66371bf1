package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// sameSelection reports how two selections differ, or nil when they accept
// the same rows with the same link sets and agree on every count.
func sameSelection(got, want *selection) error {
	if len(got.accepted) != len(want.accepted) {
		return fmt.Errorf("%d rows accepted, want %d", len(got.accepted), len(want.accepted))
	}
	for i := range want.accepted {
		if got.accepted[i] != want.accepted[i] || got.rankBefore[i] != want.rankBefore[i] {
			return fmt.Errorf("accepted row %d: stream position %d (rank before %d), want %d (%d)",
				i, got.accepted[i], got.rankBefore[i], want.accepted[i], want.rankBefore[i])
		}
		if !got.links[i].Equal(want.links[i]) {
			return fmt.Errorf("accepted row %d: link set %v, want %v", i, got.links[i], want.links[i])
		}
	}
	if got.rank != want.rank || got.dropped != want.dropped || got.singleEqs != want.singleEqs ||
		got.pairEqs != want.pairEqs || !got.covered.Equal(want.covered) {
		return fmt.Errorf("rank %d, dropped %d, %d+%d equations; want %d, %d, %d+%d (or covered links differ)",
			got.rank, got.dropped, got.singleEqs, got.pairEqs, want.rank, want.dropped, want.singleEqs, want.pairEqs)
	}
	return nil
}

// checkPackedMatchesDense compiles top with the packed float tracker and
// with the dense oracle, and requires the same compiled selection.
func checkPackedMatchesDense(t *testing.T, top *topology.Topology, identity bool, what string) {
	t.Helper()
	packed, err := compileStructure(top, identity, Options{}, newRankTracker(top.NumLinks(), false))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := compileStructure(top, identity, Options{}, newDenseTracker(top.NumLinks()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSelection(&packed.compiled, &dense.compiled); err != nil {
		t.Fatalf("%s: packed selection differs from the dense oracle: %v", what, err)
	}
}

// TestPackedSelectionMatchesDenseOnScenarios: on every registry scenario,
// with the paper's partition and the identity one, the packed float tracker
// accepts exactly the rows the dense Gram–Schmidt oracle accepts.
func TestPackedSelectionMatchesDenseOnScenarios(t *testing.T) {
	for _, name := range scenario.Names() {
		scn, err := scenario.BuildNamed(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, identity := range []bool{false, true} {
			checkPackedMatchesDense(t, scn.Topology, identity, fmt.Sprintf("%s identity=%v", name, identity))
		}
	}
}

// TestPackedSelectionMatchesDenseOnBrite is the same check on the BRITE
// topologies of the figure sweeps at Small and Medium scale.
func TestPackedSelectionMatchesDenseOnBrite(t *testing.T) {
	scales := []struct {
		name        string
		ases, paths int
		skipIfShort bool
	}{
		{"small", 50, 300, false},
		{"medium", 90, 500, true},
	}
	for _, sc := range scales {
		if sc.skipIfShort && testing.Short() {
			continue
		}
		net, err := brite.Generate(brite.Config{ASes: sc.ases, EdgesPerAS: 2, Paths: sc.paths, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, identity := range []bool{false, true} {
			checkPackedMatchesDense(t, net.Topology, identity, fmt.Sprintf("brite %s identity=%v", sc.name, identity))
		}
	}
}

// TestPackedTrackerMatchesDenseOnRandomRows offers random 0/1 rows to the
// packed float tracker and to the dense oracle and requires the same
// decision on every row. The rows are singletons, short paths and unions of
// earlier rows, so exact dependencies and residual entries that cancel to
// exact zeros are common.
func TestPackedTrackerMatchesDenseOnRandomRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		dim := 4 + rng.Intn(40)
		packed, dense := newRankTracker(dim, false), newDenseTracker(dim)
		var rows []*bitset.Set
		for i := 0; i < 4*dim; i++ {
			row := bitset.New(dim)
			switch k := rng.Intn(4); {
			case k == 0 || len(rows) < 2:
				row.Add(rng.Intn(dim))
			case k == 1:
				for c := 2 + rng.Intn(5); c > 0; c-- {
					row.Add(rng.Intn(dim))
				}
			default:
				row.CopyFrom(rows[rng.Intn(len(rows))])
				row.UnionWith(rows[rng.Intn(len(rows))])
			}
			rows = append(rows, row)
			p, d := packed.offer(row), dense.offer(row)
			if p != d {
				t.Fatalf("trial %d row %d %v: packed offer %v, dense %v", trial, i, row, p, d)
			}
			if p {
				packed.accept()
				dense.accept()
			}
		}
		if packed.rank() != dense.rank() {
			t.Fatalf("trial %d: packed rank %d, dense %d", trial, packed.rank(), dense.rank())
		}
	}
}

// TestResumeAtEveryPrefixMatchesRebuild kills each compiled row in turn and
// requires the selection resumed from the compiled tracker's prefix to
// equal a selection rebuilt from the start of the stream with a fresh
// tracker — the dense oracle for the float tracker, a new GF(2) tracker for
// the GF(2) one. One workspace serves every resume.
func TestResumeAtEveryPrefixMatchesRebuild(t *testing.T) {
	top, _ := briteRecord(t, 28)
	nl := top.NumLinks()
	ws := NewWorkspace()
	for _, v := range selectorVariants {
		st, err := compileStructure(top, v.identity, v.opts, newRankTracker(nl, v.gf2))
		if err != nil {
			t.Fatal(err)
		}
		for a, q := range st.compiled.accepted {
			dead := &st.stream[q]
			prob := func(c *candidate) float64 {
				if c == dead {
					return 0
				}
				return 1
			}
			got := ws.resume(&st.compiled, a)
			st.selectFrom(got, st.basis.resume(ws, int(st.compiled.rankBefore[a])), &ws.union, int(q), nil, prob)
			var want selection
			st.selectFrom(&want, oracleTracker(nl, v.gf2), bitset.New(nl), 0, nil, prob)
			if err := sameSelection(got, &want); err != nil {
				t.Fatalf("%s: resumed at accepted row %d: %v", v.name, a, err)
			}
		}
	}
}

// TestConcurrentResumesShareCompiledTracker runs dead-path estimates on one
// structure from several goroutines at once (run under -race in CI): each
// resume reads the shared compiled tracker in place, and every result must
// equal the serial one.
func TestConcurrentResumesShareCompiledTracker(t *testing.T) {
	top, rec := briteRecord(t, 3)
	for _, gf2 := range []bool{false, true} {
		st, err := compileStructure(top, false, Options{}, newRankTracker(top.NumLinks(), gf2))
		if err != nil {
			t.Fatal(err)
		}
		lp := &LinearPlan{structure: st}
		dead := withDead(t, rec, []topology.PathID{st.stream[st.compiled.accepted[len(st.compiled.accepted)/2]].paths[0]})
		want, err := lp.RunIn(NewWorkspace(), dead)
		if err != nil {
			t.Fatal(err)
		}
		want = want.Clone()
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ws := NewWorkspace()
				for i := 0; i < 5; i++ {
					got, err := lp.RunIn(ws, dead)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(want, got.Clone()) {
						errs <- fmt.Errorf("gf2=%v goroutine %d: concurrent dead-path estimate differs", gf2, g)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
