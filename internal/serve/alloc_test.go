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
// TestWindowedInferenceSteadyStateAllocs gate CI enforces.
func TestBinaryIngestSteadyStateAllocs(t *testing.T) {
	scn, err := tomography.BuildScenario("quickstart", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := simulateScenario(scn, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := encodeStreamBinary(rec, 64)
	if err != nil {
		t.Fatal(err)
	}
	numPaths := scn.Topology.NumPaths()

	// A detector that never alarms, so the measurement sees only the
	// decode + append path and not change-point bookkeeping.
	win, err := tomography.NewWindow(scn.Topology, tomography.WindowConfig{
		Size:      256,
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
