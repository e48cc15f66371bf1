package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	tomography "repro"
	"repro/internal/bitset"
)

// TestDaemonMatchesOfflineReplay is the serving layer's headline
// correctness guarantee: for EVERY estimator, the estimates the
// daemon serves over HTTP are bit-identical to an offline WindowedEstimate
// replay of the same probe stream. Four tenants (one per estimator) ingest
// and estimate concurrently, so under -race this also proves the shard
// partitioning isolates tenant state.
//
// The equivalence chain being pinned: HTTP ingest → wire decode → shard
// queue → Window.ObserveBatchWords → published view → WindowView.EstimateIn
// on an estimate-pool workspace must land on exactly the floats of a
// single-goroutine offline replay — at every checkpoint, and again in the
// shutdown flush.
func TestDaemonMatchesOfflineReplay(t *testing.T) {
	runOfflineDifferential(t, Config{Shards: 2, QueueDepth: 64})
}

// TestDaemonMatchesOfflineReplayReplicas re-runs the differential replay
// with a 4-worker estimate pool: estimates served off-worker from published
// read-replica views must stay bit-identical to the offline replay for
// every estimator — the read-your-accepted-writes bound makes each HTTP
// estimate wait for a view covering everything that client had ingested.
func TestDaemonMatchesOfflineReplayReplicas(t *testing.T) {
	runOfflineDifferential(t, Config{Shards: 2, QueueDepth: 64, EstimateWorkers: 4})
}

// TestDaemonMatchesOfflineReplayBinary re-runs the differential replay with
// the probe stream carried on the TOMOW1 binary wire format: negotiation,
// the binary decoder, and the batched word-append path must land on exactly
// the floats of the offline replay — the binary wire is a transport change,
// never a numeric one.
func TestDaemonMatchesOfflineReplayBinary(t *testing.T) {
	runOfflineDifferentialWire(t, Config{Shards: 2, QueueDepth: 64}, "binary")
}

// TestDaemonMatchesOfflineReplaySharedPlan re-runs the differential replay
// with every estimator's tenant registered on the same registry scenario
// and seed: they must hold one shared topology and plan, and still serve
// estimates bit-identical to the offline replay while estimating through
// that plan concurrently from two shards and a 2-worker estimate pool.
func TestDaemonMatchesOfflineReplaySharedPlan(t *testing.T) {
	d := runOfflineDifferentialMode(t, Config{Shards: 2, QueueDepth: 64, EstimateWorkers: 2}, "binary", true)
	var plan *tomography.Plan
	for name, tn := range d.tenants {
		switch {
		case plan == nil:
			plan = tn.win.Plan()
		case tn.win.Plan() != plan:
			t.Errorf("tenant %s holds its own plan; scenario tenants on one seed should share one", name)
		}
	}
	if len(d.plans.m) != 1 {
		t.Errorf("daemon built %d scenario plans, want 1", len(d.plans.m))
	}
}

func runOfflineDifferential(t *testing.T, cfg Config) {
	runOfflineDifferentialWire(t, cfg, "json")
}

func runOfflineDifferentialWire(t *testing.T, cfg Config, wire string) {
	runOfflineDifferentialMode(t, cfg, wire, false)
}

// runOfflineDifferentialMode runs one tenant per estimator against its
// offline replay and returns the shut-down daemon. Each tenant registers
// an inline topology built from its own scenario seed, or, with
// sharedScenario, the registry scenario under one seed for all of them.
func runOfflineDifferentialMode(t *testing.T, cfg Config, wire string, sharedScenario bool) *Daemon {
	const (
		window = 120
		stride = 40
		snaps  = 360
		seed   = 11
	)
	estimators := tomography.EstimatorNames()
	if len(estimators) < 4 {
		t.Fatalf("EstimatorNames lists %v, want at least 4 for the concurrency guarantee", estimators)
	}

	d := New(cfg)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// last[i] is estimator i's final offline checkpoint, which the
	// shutdown flush must reproduce.
	last := make([]*tomography.EstimateResult, len(estimators))
	var wg sync.WaitGroup
	for i, est := range estimators {
		wg.Add(1)
		go func(i int, est string) {
			defer wg.Done()
			tenant := fmt.Sprintf("diff-%s", est)
			scnSeed := seed + int64(i)
			if sharedScenario {
				scnSeed = seed
			}
			scn, err := tomography.BuildScenario("quickstart", scnSeed)
			if err != nil {
				t.Errorf("%s: building scenario: %v", tenant, err)
				return
			}
			rec, err := tomography.Simulate(tomography.SimConfig{
				Topology: scn.Topology, Model: scn.Model, Snapshots: snaps, Seed: seed + 100 + int64(i),
			})
			if err != nil {
				t.Errorf("%s: simulating: %v", tenant, err)
				return
			}

			// Offline ground truth: the replay API over the same stream.
			points, err := tomography.WindowedEstimate(scn.Topology, rec,
				tomography.WindowConfig{Size: window, Estimator: est}, stride)
			if err != nil {
				t.Errorf("%s: offline replay: %v", tenant, err)
				return
			}
			last[i] = points[len(points)-1].Result

			// Register the tenant with its inline topology document, or
			// by scenario name.
			reg := TenantConfig{Name: tenant, Window: window, Estimator: est}
			if sharedScenario {
				reg.Scenario, reg.Seed = "quickstart", scnSeed
			} else {
				var topoJSON bytes.Buffer
				if err := scn.Topology.Encode(&topoJSON); err != nil {
					t.Errorf("%s: encoding topology: %v", tenant, err)
					return
				}
				reg.Topology = topoJSON.Bytes()
			}
			regBody, _ := json.Marshal(reg)
			if status, body := post(t, srv.URL+"/v1/tenants", regBody); status != http.StatusCreated {
				t.Errorf("%s: register: status %d: %s", tenant, status, body)
				return
			}

			// Replay the stream through HTTP in stride-sized batches,
			// requesting an estimate at every offline checkpoint.
			next := 0
			row := bitset.New(scn.Topology.NumPaths())
			for at := 0; at < snaps; at += stride {
				sets := make([]*bitset.Set, 0, stride)
				for s := at; s < at+stride && s < snaps; s++ {
					rec.Paths.RowInto(s, row)
					sets = append(sets, row.Clone())
				}
				var batch []byte
				contentType := ContentTypeJSON
				if wire == "binary" {
					batch, err = EncodeReportsBinary(sets, scn.Topology.NumPaths())
					contentType = ContentTypeBinary
				} else {
					batch, err = EncodeReports(sets)
				}
				if err != nil {
					t.Errorf("%s: encoding batch: %v", tenant, err)
					return
				}
				if status, body := postCT(t, srv.URL+"/v1/ingest?tenant="+tenant, contentType, batch); status != http.StatusAccepted {
					t.Errorf("%s: ingest at %d: status %d: %s", tenant, at, status, body)
					return
				}
				if at+stride < window {
					continue // window not yet warm at this checkpoint
				}
				var got EstimateResponse
				if status, body := get(t, srv.URL+"/v1/estimate?tenant="+tenant, &got); status != http.StatusOK {
					t.Errorf("%s: estimate at %d: status %d: %s", tenant, at, status, body)
					return
				}
				if next >= len(points) {
					t.Errorf("%s: daemon produced more estimates than the offline replay (%d)", tenant, len(points))
					return
				}
				want := points[next]
				next++
				if got.SnapshotsSeen != want.T+1 {
					t.Errorf("%s: estimate covers %d snapshots, offline checkpoint is T=%d", tenant, got.SnapshotsSeen, want.T)
					return
				}
				if got.Estimator != est {
					t.Errorf("%s: estimator %q in response", tenant, got.Estimator)
				}
				if !bitIdentical(got.CongestionProb, want.Result.CongestionProb) {
					t.Errorf("%s: checkpoint T=%d: daemon estimate differs from offline replay\n daemon:  %v\n offline: %v",
						tenant, want.T, got.CongestionProb, want.Result.CongestionProb)
					return
				}
			}
			if next != len(points) {
				t.Errorf("%s: matched %d checkpoints, offline replay has %d", tenant, next, len(points))
			}
		}(i, est)
	}
	wg.Wait()

	// The shutdown flush estimates from each tenant's last published view,
	// which has observed the whole stream: it must land on the offline
	// replay's final checkpoint.
	finals, err := d.Shutdown(context.Background())
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(finals) != len(estimators) {
		t.Fatalf("shutdown flushed %d estimates, want %d", len(finals), len(estimators))
	}
	byTenant := make(map[string]FinalEstimate, len(finals))
	for _, f := range finals {
		byTenant[f.Tenant] = f
	}
	for i, est := range estimators {
		tenant := fmt.Sprintf("diff-%s", est)
		f, ok := byTenant[tenant]
		switch {
		case !ok:
			t.Errorf("%s: no final estimate flushed", tenant)
		case f.Err != nil:
			t.Errorf("%s: final estimate: %v", tenant, f.Err)
		case last[i] == nil:
			// The offline replay failed and was reported above.
		case f.Response.SnapshotsSeen != snaps:
			t.Errorf("%s: final estimate covers %d snapshots, want %d", tenant, f.Response.SnapshotsSeen, snaps)
		case !bitIdentical(f.Response.CongestionProb, last[i].CongestionProb):
			t.Errorf("%s: final estimate differs from the last offline checkpoint\n final:   %v\n offline: %v",
				tenant, f.Response.CongestionProb, last[i].CongestionProb)
		}
	}
	return d
}

// bitIdentical compares float slices by their IEEE-754 bits — the "no
// tolerance" equality every equivalence test in this repo uses.
func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// post issues a JSON POST and returns the status and body.
func post(t *testing.T, url string, body []byte) (int, string) {
	return postCT(t, url, "application/json", body)
}

// postCT issues a POST under an explicit Content-Type — the wire-format
// negotiation header — and returns the status and body.
func postCT(t *testing.T, url, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// get issues a GET, decoding the body into out when non-nil; it returns
// the status and raw body.
func get(t *testing.T, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, b, err)
		}
	}
	return resp.StatusCode, string(b)
}
