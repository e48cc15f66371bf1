package netsim

import (
	"context"
	"testing"

	"repro/internal/bitset"
)

// TestRunDynamicParallelMatchesSerial pins the chunked parallel RunDynamic
// path bit-identical to the sequential loop across worker counts {1, 2, 7,
// 8}, including recorded link states and the OnSnapshot tap sequence —
// same sets, same order, same indices. Only PacketLevel takes the chunked
// path, and it exercises the per-snapshot derived-noise streams the fan-out
// depends on; StateLevel always runs the sequential loop, so its arm pins
// only that Workers has no effect there. Snapshot counts straddle the chunk
// size so partial final chunks are covered.
func TestRunDynamicParallelMatchesSerial(t *testing.T) {
	top, proc := dynFixture(t)
	for _, mode := range []Mode{StateLevel, PacketLevel} {
		for _, snapshots := range []int{1, dynChunkSnapshots - 1, dynChunkSnapshots, dynChunkSnapshots*2 + 37} {
			base := DynamicConfig{
				Topology: top, Process: proc, Snapshots: snapshots, Seed: 17,
				Mode: mode, RecordLinkStates: true, Workers: 1,
			}
			var wantTap []*bitset.Set
			base.OnSnapshot = func(ts int, congested *bitset.Set) {
				if ts != len(wantTap) {
					t.Fatalf("serial tap index %d, want %d", ts, len(wantTap))
				}
				wantTap = append(wantTap, congested.Clone())
			}
			want, err := RunDynamic(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 7, 8} {
				cfg := base
				cfg.Workers = workers
				var gotTap []*bitset.Set
				cfg.OnSnapshot = func(ts int, congested *bitset.Set) {
					if ts != len(gotTap) {
						t.Fatalf("workers=%d tap index %d, want %d", workers, ts, len(gotTap))
					}
					gotTap = append(gotTap, congested.Clone())
				}
				got, err := RunDynamic(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !sameColumns(got.Paths, want.Paths) {
					t.Fatalf("mode=%v snapshots=%d workers=%d: path record differs from serial", mode, snapshots, workers)
				}
				if !sameColumns(got.Links, want.Links) {
					t.Fatalf("mode=%v snapshots=%d workers=%d: link record differs from serial", mode, snapshots, workers)
				}
				if len(gotTap) != len(wantTap) {
					t.Fatalf("mode=%v snapshots=%d workers=%d: tapped %d snapshots, serial %d", mode, snapshots, workers, len(gotTap), len(wantTap))
				}
				for ts := range wantTap {
					if !gotTap[ts].Equal(wantTap[ts]) {
						t.Fatalf("mode=%v snapshots=%d workers=%d snapshot %d: tap %v != serial %v",
							mode, snapshots, workers, ts, gotTap[ts], wantTap[ts])
					}
				}
			}
		}
	}
}

// TestRunDynamicParallelCancellation pins that the chunked PacketLevel path
// still honours context cancellation.
func TestRunDynamicParallelCancellation(t *testing.T) {
	top, proc := dynFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunDynamic(ctx, DynamicConfig{Topology: top, Process: proc, Snapshots: 10, Mode: PacketLevel, Workers: 4})
	if err == nil {
		t.Fatal("cancelled context accepted by parallel path")
	}
}
