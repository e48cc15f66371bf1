package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	tomography "repro"
	"repro/internal/bitset"
)

// FirehoseConfig parameterizes the synthetic probe-firehose load client:
// it registers Tenants tenants over the daemon's HTTP API (each built from
// Scenario with seed Seed+i), pre-simulates each tenant's probe stream
// from the scenario registry, then replays the streams as fast as the
// daemon accepts them, requesting estimates at a fixed cadence and
// honouring 429 backpressure with retries.
type FirehoseConfig struct {
	// BaseURL is the daemon's address, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Scenario is the registry scenario each tenant is built from.
	Scenario string
	// Seed is the root seed; tenant i uses Seed+i for its scenario and
	// Seed+1000+i for its simulated probe stream.
	Seed int64
	// Tenants is the number of tenants to register and drive (> 0).
	Tenants int
	// Snapshots is the probe-stream length per tenant (> 0).
	Snapshots int
	// Batch is the number of snapshots per ingest POST (0 ⇒ 64).
	Batch int
	// Window is each tenant's sliding-window size (0 ⇒ 256).
	Window int
	// Estimator is the estimator each tenant runs
	// ("" ⇒ correlation).
	Estimator string
	// EstimateEvery requests an estimate after every EstimateEvery accepted
	// batches, once the window is warm (0 ⇒ 4).
	EstimateEvery int
	// Wire selects the probe wire format the first two phases POST:
	// "json" (the default, "" ⇒ "json") or "binary" (the TOMOW1 columnar
	// format). The wire-equivalence phase always replays both.
	Wire string
	// Client overrides the HTTP client (nil ⇒ http.DefaultClient).
	Client *http.Client
}

// FirehoseReport summarizes one firehose run. SnapshotsIngested and
// Estimates count the first phase and are deterministic functions of the
// configuration.
type FirehoseReport struct {
	Scenario           string
	Estimator          string
	Tenants            int
	SnapshotsPerTenant int
	Window             int
	Batch              int
	SnapshotsIngested  int64
	Estimates          int64
}

// RunFirehose drives a daemon with synthetic probe traffic in three
// phases and fails on the first request that does not succeed:
//
//  1. every tenant's stream is ingested concurrently, with an estimate
//     after every EstimateEvery accepted batches once the window is warm;
//  2. the streams are replayed once more at full rate while a dedicated
//     client loops over /v1/estimate, so estimates must keep succeeding
//     while ingest is saturated;
//  3. each tenant's stream is replayed once per wire format, JSON then
//     binary, each followed by an estimate: both wires must accept the
//     same snapshot counts and give bit-identical congestion
//     probabilities, since both leave the window holding the same last
//     Window snapshots.
func RunFirehose(ctx context.Context, cfg FirehoseConfig) (*FirehoseReport, error) {
	if cfg.Tenants <= 0 {
		return nil, fmt.Errorf("serve: firehose: tenants = %d, want > 0", cfg.Tenants)
	}
	if cfg.Snapshots <= 0 {
		return nil, fmt.Errorf("serve: firehose: snapshots = %d, want > 0", cfg.Snapshots)
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.Estimator == "" {
		cfg.Estimator = "correlation"
	}
	if cfg.EstimateEvery <= 0 {
		cfg.EstimateEvery = 4
	}
	if cfg.Wire == "" {
		cfg.Wire = "json"
	}
	if cfg.Wire != "json" && cfg.Wire != "binary" {
		return nil, fmt.Errorf("serve: firehose: wire = %q, want json or binary", cfg.Wire)
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Window > cfg.Snapshots {
		return nil, fmt.Errorf("serve: firehose: window %d exceeds stream length %d (no estimate would ever be warm)",
			cfg.Window, cfg.Snapshots)
	}

	// Pre-simulate every tenant's probe stream and encode it in both wire
	// formats, so the replay loops are pure serving traffic, not
	// simulation or encoding.
	jsonStreams := make([][][]byte, cfg.Tenants) // per tenant, per batch: encoded wire body
	binaryStreams := make([][][]byte, cfg.Tenants)
	for i := 0; i < cfg.Tenants; i++ {
		scn, err := tomography.BuildScenario(cfg.Scenario, cfg.Seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("serve: firehose: %w", err)
		}
		rec, err := simulateScenario(scn, cfg.Snapshots, cfg.Seed+1000+int64(i))
		if err != nil {
			return nil, fmt.Errorf("serve: firehose: %w", err)
		}
		if jsonStreams[i], err = encodeStream(rec, cfg.Batch); err != nil {
			return nil, fmt.Errorf("serve: firehose: %w", err)
		}
		if binaryStreams[i], err = encodeStreamBinary(rec, cfg.Batch); err != nil {
			return nil, fmt.Errorf("serve: firehose: %w", err)
		}
	}
	streams, mainCT := jsonStreams, ContentTypeJSON
	if cfg.Wire == "binary" {
		streams, mainCT = binaryStreams, ContentTypeBinary
	}

	// Register the tenants over the wire — the same path an operator uses.
	for i := 0; i < cfg.Tenants; i++ {
		body, _ := json.Marshal(TenantConfig{
			Name:      firehoseTenantName(i),
			Scenario:  cfg.Scenario,
			Seed:      cfg.Seed + int64(i),
			Window:    cfg.Window,
			Estimator: cfg.Estimator,
		})
		if err := postJSON(ctx, cfg.Client, cfg.BaseURL+"/v1/tenants", body, http.StatusCreated); err != nil {
			return nil, fmt.Errorf("serve: firehose: registering tenant %d: %w", i, err)
		}
	}

	var (
		mu        sync.Mutex
		ingested  int64
		estimates int64
		firstErr  error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := firehoseTenantName(i)
			snaps := 0
			for b, body := range streams[i] {
				n, err := postBatch(ctx, cfg.Client, cfg.BaseURL, name, body, mainCT)
				mu.Lock()
				ingested += int64(n)
				mu.Unlock()
				if err != nil {
					fail(err)
					return
				}
				snaps += n
				if (b+1)%cfg.EstimateEvery == 0 && snaps >= cfg.Window {
					if _, err := getEstimate(ctx, cfg.Client, cfg.BaseURL, name); err != nil {
						fail(err)
						return
					}
					mu.Lock()
					estimates++
					mu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("serve: firehose: %w", firstErr)
	}

	// Second phase: estimates under ingest load. The tenant streams are
	// replayed once more at full rate to keep every shard queue busy (the
	// windows slide, so re-ingesting is harmless) while a dedicated client
	// loops over /v1/estimate round-robin across the now-warm tenants.
	// Estimates are served from published read-replica views by the
	// estimate pool, so every one must succeed however deep the ingest
	// backlog.
	stop := make(chan struct{})
	var loadWG sync.WaitGroup
	for i := 0; i < cfg.Tenants; i++ {
		loadWG.Add(1)
		go func(i int) {
			defer loadWG.Done()
			if _, err := replayStream(ctx, &cfg, firehoseTenantName(i), streams[i], mainCT); err != nil {
				fail(err)
			}
		}(i)
	}
	go func() {
		loadWG.Wait()
		close(stop)
	}()
load:
	for i := 0; ; i++ {
		if _, err := getEstimate(ctx, cfg.Client, cfg.BaseURL, firehoseTenantName(i%cfg.Tenants)); err != nil {
			fail(fmt.Errorf("estimate under ingest load: %w", err))
			break
		}
		select {
		case <-stop:
			break load
		default:
		}
	}
	loadWG.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("serve: firehose: %w", firstErr)
	}

	// Third phase: wire equivalence. Each tenant's stream is replayed in
	// JSON and then in binary, each replay followed by an estimate.
	for i := 0; i < cfg.Tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := checkWires(ctx, &cfg, firehoseTenantName(i), jsonStreams[i], binaryStreams[i]); err != nil {
				fail(fmt.Errorf("wire equivalence: %w", err))
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("serve: firehose: %w", firstErr)
	}

	return &FirehoseReport{
		Scenario:           cfg.Scenario,
		Estimator:          cfg.Estimator,
		Tenants:            cfg.Tenants,
		SnapshotsPerTenant: cfg.Snapshots,
		Window:             cfg.Window,
		Batch:              cfg.Batch,
		SnapshotsIngested:  ingested,
		Estimates:          estimates,
	}, nil
}

// replayStream POSTs one tenant's pre-encoded stream in order (429s retried
// inside postBatch) and returns the accepted snapshot count.
func replayStream(ctx context.Context, cfg *FirehoseConfig, tenant string, stream [][]byte, contentType string) (int, error) {
	accepted := 0
	for _, body := range stream {
		n, err := postBatch(ctx, cfg.Client, cfg.BaseURL, tenant, body, contentType)
		if err != nil {
			return accepted, err
		}
		accepted += n
	}
	return accepted, nil
}

// checkWires replays the same stream once per wire format, each replay
// followed by an estimate, and requires equal accepted counts and
// bit-identical congestion probabilities.
func checkWires(ctx context.Context, cfg *FirehoseConfig, tenant string, jsonStream, binaryStream [][]byte) error {
	jsonN, err := replayStream(ctx, cfg, tenant, jsonStream, ContentTypeJSON)
	if err != nil {
		return fmt.Errorf("json: %w", err)
	}
	jsonEst, err := getEstimate(ctx, cfg.Client, cfg.BaseURL, tenant)
	if err != nil {
		return fmt.Errorf("json: %w", err)
	}
	binN, err := replayStream(ctx, cfg, tenant, binaryStream, ContentTypeBinary)
	if err != nil {
		return fmt.Errorf("binary: %w", err)
	}
	binEst, err := getEstimate(ctx, cfg.Client, cfg.BaseURL, tenant)
	if err != nil {
		return fmt.Errorf("binary: %w", err)
	}
	if jsonN != binN {
		return fmt.Errorf("tenant %s: json accepted %d snapshots, binary %d", tenant, jsonN, binN)
	}
	if len(jsonEst.CongestionProb) != len(binEst.CongestionProb) {
		return fmt.Errorf("tenant %s: json estimate has %d links, binary %d",
			tenant, len(jsonEst.CongestionProb), len(binEst.CongestionProb))
	}
	for k, p := range jsonEst.CongestionProb {
		if math.Float64bits(p) != math.Float64bits(binEst.CongestionProb[k]) {
			return fmt.Errorf("tenant %s: link %d: json estimate %v, binary %v", tenant, k, p, binEst.CongestionProb[k])
		}
	}
	return nil
}

func firehoseTenantName(i int) string { return fmt.Sprintf("t%d", i) }

// simulateScenario produces a tenant's probe stream: the dynamic engine
// for time-indexed scenarios, the i.i.d. simulator otherwise.
func simulateScenario(scn *tomography.Scenario, snapshots int, seed int64) (*tomography.Record, error) {
	if scn.Process != nil {
		return tomography.SimulateDynamic(tomography.DynamicSimConfig{
			Topology: scn.Topology, Process: scn.Process, Snapshots: snapshots, Seed: seed,
		})
	}
	return tomography.Simulate(tomography.SimConfig{
		Topology: scn.Topology, Model: scn.Model, Snapshots: snapshots, Seed: seed,
	})
}

// encodeStream slices a record into wire-encoded ingest bodies of batch
// snapshots each.
func encodeStream(rec *tomography.Record, batch int) ([][]byte, error) {
	n := rec.Snapshots()
	var bodies [][]byte
	row := bitset.New(1)
	for at := 0; at < n; at += batch {
		end := at + batch
		if end > n {
			end = n
		}
		sets := make([]*bitset.Set, 0, end-at)
		for t := at; t < end; t++ {
			rec.Paths.RowInto(t, row)
			sets = append(sets, row.Clone())
		}
		body, err := EncodeReports(sets)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// encodeStreamBinary is encodeStream for the TOMOW1 binary wire format.
func encodeStreamBinary(rec *tomography.Record, batch int) ([][]byte, error) {
	n := rec.Snapshots()
	numPaths := rec.Paths.NumSeries()
	var bodies [][]byte
	row := bitset.New(numPaths)
	for at := 0; at < n; at += batch {
		end := at + batch
		if end > n {
			end = n
		}
		sets := make([]*bitset.Set, 0, end-at)
		for t := at; t < end; t++ {
			rec.Paths.RowInto(t, row)
			sets = append(sets, row.Clone())
		}
		body, err := EncodeReportsBinary(sets, numPaths)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// postBatch POSTs one ingest body under the given Content-Type (the wire
// format negotiation header), retrying on 429 with a short pause. It
// returns the accepted snapshot count.
func postBatch(ctx context.Context, client *http.Client, base, tenant string, body []byte, contentType string) (int, error) {
	url := fmt.Sprintf("%s/v1/ingest?tenant=%s", base, tenant)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		respBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var out struct {
				Accepted int `json:"accepted"`
			}
			if err := json.Unmarshal(respBody, &out); err != nil {
				return 0, fmt.Errorf("decoding ingest response: %w", err)
			}
			return out.Accepted, nil
		case http.StatusTooManyRequests:
			select {
			case <-time.After(2 * time.Millisecond):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		default:
			return 0, fmt.Errorf("ingest: unexpected status %d: %s", resp.StatusCode, respBody)
		}
	}
}

// getEstimate requests one estimate and decodes the response.
func getEstimate(ctx context.Context, client *http.Client, base, tenant string) (*EstimateResponse, error) {
	url := fmt.Sprintf("%s/v1/estimate?tenant=%s", base, tenant)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("estimate: unexpected status %d: %s", resp.StatusCode, body)
	}
	var est EstimateResponse
	if err := json.Unmarshal(body, &est); err != nil {
		return nil, fmt.Errorf("decoding estimate response: %w", err)
	}
	return &est, nil
}

// postJSON POSTs a JSON body and checks the expected status.
func postJSON(ctx context.Context, client *http.Client, url string, body []byte, want int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("unexpected status %d: %s", resp.StatusCode, respBody)
	}
	return nil
}
