package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	tomography "repro"
	"repro/internal/bitset"
	"repro/internal/serve"
)

// Seed-fixed golden-file regression tests in the same harness style as
// cmd/tomo: the daemon's startup/config output and the /v1/estimate JSON
// document are pinned byte for byte. Regenerate with:
//
//	go test ./cmd/tomod -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got against testdata/<name>.golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
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
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (re-run with -update if the change is intended):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestGoldenSelftest pins the daemon's startup/config block and the
// deterministic selftest counts: -no-timing suppresses every
// hardware-dependent line, so the remaining output is a pure function of
// the flags.
func TestGoldenSelftest(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{
		"-selftest", "-no-timing",
		"-shards", "2", "-queue", "128",
		"-scenario", "quickstart", "-tenants", "2", "-window", "120",
		"-snapshots", "480", "-batch", "40", "-estimate-every", "2", "-seed", "7",
	}, &out, &errBuf)
	if err != nil {
		t.Fatalf("selftest run: %v (stderr: %s)", err, errBuf.String())
	}
	checkGolden(t, "selftest-quickstart", out.String())
}

// TestGoldenEstimateJSON pins the /v1/estimate response shape and its
// seed-fixed contents: a quickstart tenant warmed with a deterministic
// simulated stream must answer byte-identical JSON.
func TestGoldenEstimateJSON(t *testing.T) {
	d := serve.New(serve.Config{Shards: 1, QueueDepth: 64})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	defer d.Shutdown(context.Background())

	if _, err := d.Register(serve.TenantConfig{
		Name: "golden", Scenario: "quickstart", Seed: 3, Window: 100, Estimator: "correlation",
	}); err != nil {
		t.Fatal(err)
	}
	scn, err := tomography.BuildScenario("quickstart", 3)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: scn.Topology, Model: scn.Model, Snapshots: 150, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]*bitset.Set, rec.Snapshots())
	for i := range sets {
		sets[i] = rec.PathSnapshot(i)
	}
	body, err := serve.EncodeReports(sets)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/ingest?tenant=golden", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/estimate?tenant=golden")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "estimate-quickstart", buf.String())
}

// syncBuffer is a goroutine-safe writer the SIGTERM test polls while run()
// owns it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSIGTERMGracefulShutdown drives the real serve mode end to end: start
// on an ephemeral port, ingest enough snapshots to warm the tenant over
// live HTTP, deliver SIGTERM to the process, and require run() to drain,
// flush the tenant's final estimate, and return nil (the binary's exit-0
// path) within the deadline.
func TestSIGTERMGracefulShutdown(t *testing.T) {
	var out syncBuffer
	var errBuf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-shards", "1",
			"-scenario", "quickstart", "-tenants", "1", "-window", "50", "-seed", "9",
		}, &out, &errBuf)
	}()

	// Wait for the listen line and extract the ephemeral address.
	addrRe := regexp.MustCompile(`tomod: listening on (\S+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never reported its listen address; output:\n%s", out.String())
	}

	// Warm the tenant: 60 snapshots in one batch (window is 50).
	reports := make([]string, 60)
	for i := range reports {
		reports[i] = fmt.Sprintf("[%d]", i%3)
	}
	body := fmt.Sprintf(`{"reports":[%s]}`, strings.Join(reports, ","))
	resp, err := http.Post("http://"+addr+"/v1/ingest?tenant=t0", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil (exit 0)", err)
		}
	case <-time.After(drainTimeout + 5*time.Second):
		t.Fatalf("run did not return within the drain deadline; output:\n%s", out.String())
	}
	output := out.String()
	for _, want := range []string{
		"tomod: signal received, draining",
		"final estimate t0: correlation over 50/50 snapshots, 4 links",
		"final estimates flushed: 1/1",
		"tomod: shutdown complete",
	} {
		if !strings.Contains(output, want) {
			t.Errorf("output missing %q:\n%s", want, output)
		}
	}
}

// selftestReport is the part of a selftest's stdout the tests check: the
// deterministic counts and the hardware-dependent rates.
type selftestReport struct {
	ingested, estimates                      int
	snapsPerSec, p50Ms, p99Ms                float64
	jsonSnaps, jsonMB, binarySnaps, binaryMB float64
}

// parseSelftest reads the report lines a selftest run printed, failing the
// test on any line that is missing.
func parseSelftest(t *testing.T, out string) selftestReport {
	t.Helper()
	var r selftestReport
	lines := []struct {
		pattern string
		args    []any
	}{
		{`selftest: ingested %d snapshots, served %d estimates`, []any{&r.ingested, &r.estimates}},
		{`selftest: throughput %f snapshots/sec, estimate latency p50 %f ms / p99 %f ms`, []any{&r.snapsPerSec, &r.p50Ms, &r.p99Ms}},
		{`selftest: wire comparison: json %f snapshots/sec (%f MB/s), binary %f snapshots/sec (%f MB/s)`,
			[]any{&r.jsonSnaps, &r.jsonMB, &r.binarySnaps, &r.binaryMB}},
	}
	for _, l := range lines {
		prefix := l.pattern[:strings.Index(l.pattern, "%")]
		i := strings.Index(out, prefix)
		if i < 0 {
			t.Fatalf("selftest output has no %q line:\n%s", prefix, out)
		}
		line := out[i:]
		if n := strings.IndexByte(line, '\n'); n >= 0 {
			line = line[:n]
		}
		if _, err := fmt.Sscanf(line, l.pattern, l.args...); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
	}
	return r
}

// TestSelftestWritesBench pins the selftest report a run prints: the
// deterministic count fields, non-zero throughput, consistent latency
// percentiles and a populated wire comparison.
func TestSelftestWritesBench(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{
		"-selftest", "-shards", "2",
		"-scenario", "quickstart", "-tenants", "2", "-window", "64",
		"-snapshots", "256", "-batch", "32", "-estimate-every", "2", "-seed", "1",
	}, &out, &errBuf)
	if err != nil {
		t.Fatalf("selftest: %v (stderr: %s)", err, errBuf.String())
	}
	report := parseSelftest(t, out.String())
	if report.ingested != 512 {
		t.Errorf("ingested %d snapshots, want 512", report.ingested)
	}
	if report.estimates != 8 {
		t.Errorf("estimates = %d, want 8 (4 per tenant: window warm after batch 2, then every 2 of 8 batches)", report.estimates)
	}
	if report.snapsPerSec <= 0 {
		t.Errorf("throughput not populated: %+v", report)
	}
	if report.p50Ms <= 0 || report.p99Ms < report.p50Ms {
		t.Errorf("latency percentiles inconsistent: p50 %v, p99 %v", report.p50Ms, report.p99Ms)
	}
	if strings.Contains(out.String(), "  wire:") {
		t.Errorf("config block names a wire, want the json default:\n%s", out.String())
	}
	if report.jsonSnaps <= 0 || report.jsonMB <= 0 || report.binarySnaps <= 0 || report.binaryMB <= 0 {
		t.Errorf("wire-comparison fields not populated: json %v snap/s %v MB/s, binary %v snap/s %v MB/s",
			report.jsonSnaps, report.jsonMB, report.binarySnaps, report.binaryMB)
	}
}

// TestSelftestBinaryWire re-runs the selftest with -wire binary: the
// measured phases POST TOMOW1 bodies instead of JSON, and the deterministic
// counts must come out identical — the wire format changes the transport,
// never what the daemon ingests.
func TestSelftestBinaryWire(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{
		"-selftest", "-shards", "2", "-wire", "binary",
		"-scenario", "quickstart", "-tenants", "2", "-window", "64",
		"-snapshots", "256", "-batch", "32", "-estimate-every", "2", "-seed", "1",
	}, &out, &errBuf)
	if err != nil {
		t.Fatalf("selftest: %v (stderr: %s)", err, errBuf.String())
	}
	if !strings.Contains(out.String(), "  wire:        binary\n") {
		t.Errorf("config block missing the wire line:\n%s", out.String())
	}
	report := parseSelftest(t, out.String())
	if report.ingested != 512 {
		t.Errorf("ingested %d snapshots, want 512", report.ingested)
	}
	if report.estimates != 8 {
		t.Errorf("estimates = %d, want 8 (same counts as the JSON wire)", report.estimates)
	}
}

// TestHelpIsNotAnError pins -h behavior: usage goes to the injected stderr
// and run returns nil, so the binary exits 0.
func TestHelpIsNotAnError(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-h"}, &out, &errBuf); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	if !strings.Contains(errBuf.String(), "-selftest") {
		t.Fatalf("usage text missing from stderr:\n%s", errBuf.String())
	}
}

// TestInvalidFlags pins the error paths of the flag surface.
func TestInvalidFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-tenants", "0"}, &out, &errBuf); err == nil ||
		!strings.Contains(err.Error(), "tenants = 0, want > 0") {
		t.Fatalf("tenants=0 error = %v", err)
	}
	if err := run([]string{"-selftest", "-scenario", "nope"}, &out, &errBuf); err == nil ||
		!strings.Contains(err.Error(), `unknown scenario "nope"`) {
		t.Fatalf("unknown scenario error = %v", err)
	}
	if err := run([]string{"-wire", "nope"}, &out, &errBuf); err == nil ||
		!strings.Contains(err.Error(), `wire = "nope", want json or binary`) {
		t.Fatalf("wire=nope error = %v", err)
	}
}
