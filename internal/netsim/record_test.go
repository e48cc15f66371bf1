package netsim

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/runner"
	"repro/internal/segstore"
	"repro/internal/topology"
)

// sameColumns reports whether two record columns hold identical rows, in
// order.
func sameColumns(a, b *segstore.Columns) bool {
	if a.NumSeries() != b.NumSeries() || a.Snapshots() != b.Snapshots() {
		return false
	}
	ra, rb := bitset.New(a.NumSeries()), bitset.New(b.NumSeries())
	for t := 0; t < a.Snapshots(); t++ {
		a.RowInto(t, ra)
		b.RowInto(t, rb)
		if !ra.Equal(rb) {
			return false
		}
	}
	return true
}

// oracleRows simulates a model cfg one snapshot at a time, row-major, with
// the per-snapshot streams Run derives: the reference every record Run
// builds must match, whatever its worker count. Its StateLevel
// rows come from the per-path definition of separability, not from the
// code under test.
func oracleRows(cfg Config) (paths, links []*bitset.Set) {
	for snap := 0; snap < cfg.Snapshots; snap++ {
		rng := rand.New(rand.NewSource(runner.DeriveSeed(cfg.Seed, snap)))
		link := bitset.New(cfg.Topology.NumLinks())
		cfg.Model.Sample(rng, link)
		path := bitset.New(cfg.Topology.NumPaths())
		if cfg.Mode == StateLevel {
			path = separableRow(cfg.Topology, link)
		} else {
			observePaths(cfg.Topology, link, rng, cfg.Mode, 0.01, 1000, path)
		}
		paths, links = append(paths, path), append(links, link)
	}
	return paths, links
}

// separableRow is Assumption 2 by definition: path p is congested iff it
// traverses a congested link.
func separableRow(top *topology.Topology, links *bitset.Set) *bitset.Set {
	row := bitset.New(top.NumPaths())
	for _, p := range top.Paths() {
		if top.PathLinkSet(p.ID).Intersects(links) {
			row.Add(int(p.ID))
		}
	}
	return row
}

// TestRunContextMatchesRowOracle pins Run over an i.i.d. model: at 1, 2
// and 8 workers the record's path and link rows are exactly the row-major
// oracle's, including a record long enough to span two record chunks.
func TestRunContextMatchesRowOracle(t *testing.T) {
	top := topology.Figure1A()
	for _, c := range []struct {
		mode      Mode
		snapshots int
	}{
		{StateLevel, 40000},
		{PacketLevel, 300},
	} {
		cfg := Config{
			Topology: top, Model: fig1aModel(t), Snapshots: c.snapshots, Seed: 17,
			Mode: c.mode, Tl: 0.01, PacketsPerPath: 1000, RecordLinkStates: true,
		}
		wantPaths, wantLinks := oracleRows(cfg)
		for _, workers := range []int{1, 2, 8} {
			cfg.Workers = workers
			rec, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Snapshots() != c.snapshots {
				t.Fatalf("%v workers=%d: %d snapshots, want %d", c.mode, workers, rec.Snapshots(), c.snapshots)
			}
			for snap := range wantPaths {
				if got := rec.PathSnapshot(snap); !got.Equal(wantPaths[snap]) {
					t.Fatalf("%v workers=%d snapshot %d: paths %v, oracle %v", c.mode, workers, snap, got, wantPaths[snap])
				}
				if got := rec.LinkSnapshot(snap); !got.Equal(wantLinks[snap]) {
					t.Fatalf("%v workers=%d snapshot %d: links %v, oracle %v", c.mode, workers, snap, got, wantLinks[snap])
				}
			}
		}
	}
}
