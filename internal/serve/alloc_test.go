package serve

import (
	"math"
	"testing"

	tomography "repro"
)

// TestBinaryIngestSteadyStateAllocs is the allocation budget of the binary
// ingest hot path: once the word-batch buffer and the tenant's window are
// warm, decoding a TOMOW1 body into the reused batch and appending it
// through Window.ObserveBatchWords must be garbage-free — O(1) allocations
// per batch means zero in the steady state, regardless of the batch's
// snapshot count. This is the serving-layer counterpart of the
// TestWindowedInferenceSteadyStateAllocs gate CI enforces. The 64-row arm
// posts batches into a 256-row window; the 2048-row arm has the ingest
// workload's batch shape, whose appends run the block-transposing column
// write across several 64-row blocks and four seals of the 4096-row
// window's 512-row chunks per batch.
func TestBinaryIngestSteadyStateAllocs(t *testing.T) {
	for _, arm := range []struct {
		name                     string
		batch, window, snapshots int
	}{
		{"batch64", 64, 256, 512},
		{"batch2048", 2048, 4096, 8192},
	} {
		t.Run(arm.name, func(t *testing.T) {
			checkBinaryIngestAllocs(t, arm.batch, arm.window, arm.snapshots)
		})
	}
}

func checkBinaryIngestAllocs(t *testing.T, batch, window, snapshots int) {
	scn, err := tomography.BuildScenario("quickstart", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := simulateScenario(scn, snapshots, 1)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := encodeStreamBinary(rec, batch)
	if err != nil {
		t.Fatal(err)
	}
	numPaths := scn.Topology.NumPaths()

	// A detector that never alarms, so the measurement sees only the
	// decode + append path and not change-point bookkeeping.
	win, err := tomography.NewWindow(scn.Topology, tomography.WindowConfig{
		Size:      window,
		Estimator: "correlation",
		Detector:  &tomography.ChangeDetector{Warmup: math.MaxInt32, Drift: 1, Threshold: 1e18, Smoothing: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()

	wb := getWordBatch()
	defer putWordBatch(wb)
	next := 0
	step := func() {
		body := bodies[next%len(bodies)]
		next++
		if err := decodeReportsBinaryInto(wb, body, numPaths, DefaultMaxBatch); err != nil {
			t.Fatal(err)
		}
		win.ObserveBatchWords(wb.words, wb.wordsPerRow, wb.rows)
	}
	// Warm-up: two full cycles through the stream fill the window past its
	// capacity and charge every congestion pattern the stream contains
	// into the live histogram, so the measured steady state sees no
	// first-time pattern insertions.
	for i := 0; i < 2*len(bodies); i++ {
		step()
	}
	if got := testing.AllocsPerRun(50, step); got > 0 {
		t.Fatalf("steady-state binary decode+append allocates %.2f objects/batch, want 0", got)
	}
}
