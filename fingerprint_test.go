package tomography_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tomography "repro"
)

var updateFingerprints = flag.Bool("update-fingerprints", false, "rewrite testdata/fingerprints.txt with current estimates")

// Fingerprint manifest settings: short simulations at seed 1, and a window
// whose checkpoints (every fingerprintWindow snapshots) are exactly the
// last three of the replay.
const (
	fingerprintSnapshots = 3000
	fingerprintWindow    = 1000
	fingerprintSeed      = 1
)

// fingerprintHash condenses rendered estimate fingerprints into a short
// digest for one manifest line.
func fingerprintHash(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fingerprintRecord simulates a registry scenario the way cmd/tomo does:
// the dynamic simulator for a scenario with a time-indexed process, the
// i.i.d. one otherwise.
func fingerprintRecord(t *testing.T, scn *tomography.Scenario) *tomography.Record {
	t.Helper()
	var rec *tomography.Record
	var err error
	if scn.Process != nil {
		rec, err = tomography.SimulateDynamic(tomography.DynamicSimConfig{
			Topology: scn.Topology, Process: scn.Process, Snapshots: fingerprintSnapshots, Seed: fingerprintSeed,
		})
	} else {
		rec, err = tomography.Simulate(tomography.SimConfig{
			Topology: scn.Topology, Model: scn.Model, Snapshots: fingerprintSnapshots, Seed: fingerprintSeed,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// fingerprintLines renders one manifest line per registry scenario ×
// estimator × mode. "batch" estimates over NewEmpirical on the
// whole record; "window" replays the record through a sliding window and
// hashes its last three checkpoints together. An estimator that refuses a
// scenario pins its error text instead of a hash.
func fingerprintLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range tomography.ScenarioNames() {
		scn, err := tomography.BuildScenario(name, fingerprintSeed)
		if err != nil {
			t.Fatal(err)
		}
		rec := fingerprintRecord(t, scn)
		plan, err := tomography.Compile(scn.Topology, tomography.PlanOptions{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		src, err := tomography.NewEmpirical(rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, est := range tomography.EstimatorNames() {
			line := fmt.Sprintf("%s %s batch ", name, est)
			if res, err := tomography.Estimate(est, plan, src, tomography.EstimateOptions{}); err != nil {
				line += "error: " + err.Error()
			} else {
				line += fingerprintHash(fingerprint(res))
			}
			lines = append(lines, line)

			line = fmt.Sprintf("%s %s window ", name, est)
			points, err := tomography.WindowedEstimate(scn.Topology, rec,
				tomography.WindowConfig{Size: fingerprintWindow, Estimator: est, Plan: plan}, fingerprintWindow)
			if err != nil {
				line += "error: " + err.Error()
			} else {
				var parts []string
				for _, p := range points[len(points)-3:] {
					parts = append(parts, fmt.Sprintf("t=%d", p.T), fingerprint(p.Result))
				}
				line += fingerprintHash(parts...)
			}
			lines = append(lines, line)
		}
	}
	return lines
}

// TestFingerprints pins the bits of every estimate the facade can
// produce: each registry scenario under each estimator, batch
// and windowed, against testdata/fingerprints.txt. Any change to an
// estimate's bits — a reordered float sum, a different count — fails here.
// Regenerating the manifest (-update-fingerprints) is a deliberate change
// of the pinned estimates and must be called out as such.
func TestFingerprints(t *testing.T) {
	got := strings.Join(fingerprintLines(t), "\n") + "\n"
	path := filepath.Join("testdata", "fingerprints.txt")
	if *updateFingerprints {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestFingerprints -update-fingerprints to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
