package netsim

import (
	"context"
	"math"
	"testing"

	"repro/internal/bitset"
	"repro/internal/congestion"
	"repro/internal/topology"
)

func fig1aModel(t *testing.T) congestion.Model {
	t.Helper()
	// e1, e2 correlated (shared cause), e3 and e4 independent.
	m, err := congestion.NewSharedCause(
		[]int{0, 0, 1, 2},
		[]float64{0.3, 0.2, 0.1},
		[]float64{1, 0.8, 1, 1},
		[]float64{0.05, 0.05, 0, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunValidation(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aModel(t)
	if _, err := Run(context.Background(), Config{Topology: nil, Model: model, Snapshots: 10}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := Run(context.Background(), Config{Topology: top, Model: nil, Snapshots: 10}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := Run(context.Background(), Config{Topology: top, Model: model, Snapshots: 0}); err == nil {
		t.Fatal("zero snapshots accepted")
	}
	bad, _ := congestion.NewIndependent([]float64{0.5})
	if _, err := Run(context.Background(), Config{Topology: top, Model: bad, Snapshots: 10}); err == nil {
		t.Fatal("model/topology size mismatch accepted")
	}
	if _, err := Run(context.Background(), Config{Topology: top, Model: model, Snapshots: 10, Tl: 1.5}); err == nil {
		t.Fatal("bad tl accepted")
	}
}

func TestDeterminismAcrossParallelism(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aModel(t)
	run := func(par int, mode Mode) *Record {
		rec, err := Run(context.Background(), Config{
			Topology: top, Model: model, Snapshots: 500, Seed: 42,
			Mode: mode, Workers: par, PacketsPerPath: 50,
			RecordLinkStates: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	for _, mode := range []Mode{StateLevel, PacketLevel} {
		a, b := run(1, mode), run(8, mode)
		if !sameColumns(a.Paths, b.Paths) {
			t.Fatalf("%v: path columns differ between parallelism 1 and 8", mode)
		}
		if !sameColumns(a.Links, b.Links) {
			t.Fatalf("%v: link columns differ between parallelism 1 and 8", mode)
		}
	}
}

func TestStateLevelSeparability(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aModel(t)
	rec, err := Run(context.Background(), Config{
		Topology: top, Model: model, Snapshots: 2000, Seed: 7,
		Mode: StateLevel, RecordLinkStates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for snap := 0; snap < rec.Snapshots(); snap++ {
		links := rec.LinkSnapshot(snap)
		for _, p := range top.Paths() {
			want := top.PathLinkSet(p.ID).Intersects(links)
			got := rec.Paths.Bit(int(p.ID), snap)
			if got != want {
				t.Fatalf("snapshot %d path %s: congested=%v, links=%v", snap, p.Name, got, links)
			}
		}
	}
}

func TestStateLevelFrequenciesMatchModel(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aModel(t)
	rec, err := Run(context.Background(), Config{Topology: top, Model: model, Snapshots: 100000, Seed: 9, Mode: StateLevel})
	if err != nil {
		t.Fatal(err)
	}
	// P(path P1 good) = P(e1 good ∧ e3 good) exactly.
	for _, p := range top.Paths() {
		want := model.ProbAllGood(top.PathLinkSet(p.ID))
		good := rec.Snapshots() - rec.Paths.CongestedCount(int(p.ID))
		got := float64(good) / float64(rec.Snapshots())
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("path %s: empirical P(good) = %v, exact %v", p.Name, got, want)
		}
	}
}

func TestPacketLevelApproximatesStateLevel(t *testing.T) {
	top := topology.Figure1A()
	model := fig1aModel(t)
	const n = 4000
	recS, err := Run(context.Background(), Config{Topology: top, Model: model, Snapshots: n, Seed: 11, Mode: StateLevel})
	if err != nil {
		t.Fatal(err)
	}
	recP, err := Run(context.Background(), Config{Topology: top, Model: model, Snapshots: n, Seed: 11, Mode: PacketLevel, PacketsPerPath: 500})
	if err != nil {
		t.Fatal(err)
	}
	// Same seed ⇒ same link states; packet-level classification should agree
	// with the true path state in the overwhelming majority of snapshots.
	for pid := 0; pid < top.NumPaths(); pid++ {
		disagree := 0
		for i := 0; i < n; i++ {
			if recS.Paths.Bit(pid, i) != recP.Paths.Bit(pid, i) {
				disagree++
			}
		}
		if f := float64(disagree) / n; f > 0.1 {
			t.Fatalf("path %d: packet-level disagrees with state-level %.1f%% of snapshots", pid, 100*f)
		}
	}
}

func TestModeString(t *testing.T) {
	if StateLevel.String() != "state-level" || PacketLevel.String() != "packet-level" {
		t.Fatal("Mode.String")
	}
	if Mode(99).String() != "Mode(99)" {
		t.Fatal("unknown Mode.String")
	}
}

func TestRecordLinkStatesOptional(t *testing.T) {
	top := topology.Figure1A()
	rec, err := Run(context.Background(), Config{Topology: top, Model: fig1aModel(t), Snapshots: 10, Seed: 1, Mode: StateLevel})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Links != nil {
		t.Fatal("link states recorded without being requested")
	}
	if rec.Snapshots() != 10 || rec.NumPaths() != 3 {
		t.Fatalf("record shape: %d snapshots, %d paths", rec.Snapshots(), rec.NumPaths())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LinkSnapshot without recorded link states must panic")
		}
	}()
	rec.LinkSnapshot(0)
}

func TestNewRecordFromRows(t *testing.T) {
	rows := []*bitset.Set{
		bitset.FromIndices(0, 2),
		bitset.New(3),
		bitset.FromIndices(1),
	}
	rec := NewRecordFromRows(3, rows)
	if rec.Snapshots() != 3 || rec.NumPaths() != 3 {
		t.Fatalf("record shape: %d snapshots, %d paths", rec.Snapshots(), rec.NumPaths())
	}
	for tt, row := range rows {
		if !rec.PathSnapshot(tt).Equal(row) {
			t.Fatalf("snapshot %d: %v != %v", tt, rec.PathSnapshot(tt), row)
		}
	}
}
