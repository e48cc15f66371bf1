package netsim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// TestRunDynamicStreamMatchesRecord pins the streaming generator's
// contract: the OnSnapshot sequence of a record-less RunDynamicStream is
// bit-identical to the record RunDynamic produces under the same
// configuration — in both modes, serial and (PacketLevel) chunked-parallel
// alike.
func TestRunDynamicStreamMatchesRecord(t *testing.T) {
	top, proc := dynFixture(t)
	for _, c := range []struct {
		mode    Mode
		workers int
	}{{StateLevel, 1}, {StateLevel, 4}, {PacketLevel, 1}, {PacketLevel, 4}} {
		mode, workers := c.mode, c.workers
		cfg := DynamicConfig{Topology: top, Process: proc, Snapshots: 1300, Seed: 11, Mode: mode, Workers: workers}
		rec, err := RunDynamic(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []*bitset.Set
		next := 0
		cfg.OnSnapshot = func(ts int, congested *bitset.Set) {
			if ts != next {
				t.Fatalf("%v workers=%d: snapshot %d arrived, want %d (out of order)", mode, workers, ts, next)
			}
			next++
			streamed = append(streamed, congested.Clone())
		}
		if err := RunDynamicStream(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if len(streamed) != rec.Snapshots() {
			t.Fatalf("%v workers=%d: streamed %d snapshots, record has %d", mode, workers, len(streamed), rec.Snapshots())
		}
		row := bitset.New(top.NumPaths())
		for ts, got := range streamed {
			rec.Paths.RowInto(ts, row)
			if !got.Equal(row) {
				t.Fatalf("%v workers=%d: snapshot %d streamed %v, record %v", mode, workers, ts, got, row)
			}
		}
	}
}

// TestRunDynamicStreamErrors pins the streaming-mode preconditions.
func TestRunDynamicStreamErrors(t *testing.T) {
	top, proc := dynFixture(t)
	cfg := DynamicConfig{Topology: top, Process: proc, Snapshots: 10, Seed: 1}
	if err := RunDynamicStream(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "OnSnapshot") {
		t.Fatalf("nil OnSnapshot: err = %v, want an OnSnapshot requirement", err)
	}
	cfg.OnSnapshot = func(int, *bitset.Set) {}
	cfg.RecordLinkStates = true
	if err := RunDynamicStream(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "link states") {
		t.Fatalf("RecordLinkStates: err = %v, want a records-nothing error", err)
	}
	cfg.RecordLinkStates = false
	if err := RunDynamicStream(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}
