package netsim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// TestRunDynamicStreamMatchesRecord pins the streaming generator's
// contract: the OnSnapshot sequence of a record-less Stream is
// bit-identical to the record Run produces under the same configuration —
// for a process and an i.i.d. model, in both modes, serial and fanned out
// alike.
func TestRunDynamicStreamMatchesRecord(t *testing.T) {
	top, proc := dynFixture(t)
	model := fig1aModel(t)
	for _, c := range []struct {
		model   bool
		mode    Mode
		workers int
	}{
		{false, StateLevel, 1}, {false, StateLevel, 4}, {false, PacketLevel, 1}, {false, PacketLevel, 4},
		{true, StateLevel, 1}, {true, StateLevel, 4}, {true, PacketLevel, 1}, {true, PacketLevel, 4},
	} {
		mode, workers := c.mode, c.workers
		cfg := Config{Topology: top, Process: proc, Snapshots: 1300, Seed: 11, Mode: mode, Workers: workers}
		if c.model {
			cfg.Process, cfg.Model = nil, model
		}
		rec, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []*bitset.Set
		next := 0
		cfg.OnSnapshot = func(ts int, congested *bitset.Set) {
			if ts != next {
				t.Fatalf("model=%v %v workers=%d: snapshot %d arrived, want %d (out of order)", c.model, mode, workers, ts, next)
			}
			next++
			streamed = append(streamed, congested.Clone())
		}
		if err := Stream(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if len(streamed) != rec.Snapshots() {
			t.Fatalf("model=%v %v workers=%d: streamed %d snapshots, record has %d", c.model, mode, workers, len(streamed), rec.Snapshots())
		}
		row := bitset.New(top.NumPaths())
		for ts, got := range streamed {
			rec.Paths.RowInto(ts, row)
			if !got.Equal(row) {
				t.Fatalf("model=%v %v workers=%d: snapshot %d streamed %v, record %v", c.model, mode, workers, ts, got, row)
			}
		}
	}
}

// TestRunDynamicStreamErrors pins the streaming-mode preconditions.
func TestRunDynamicStreamErrors(t *testing.T) {
	top, proc := dynFixture(t)
	cfg := Config{Topology: top, Process: proc, Snapshots: 10, Seed: 1}
	if err := Stream(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "OnSnapshot") {
		t.Fatalf("nil OnSnapshot: err = %v, want an OnSnapshot requirement", err)
	}
	cfg.OnSnapshot = func(int, *bitset.Set) {}
	cfg.RecordLinkStates = true
	if err := Stream(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "link states") {
		t.Fatalf("RecordLinkStates: err = %v, want a records-nothing error", err)
	}
	cfg.RecordLinkStates = false
	if err := Stream(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}
