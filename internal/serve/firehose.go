package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
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
	// Estimator is the registry estimator each tenant runs
	// ("" ⇒ correlation).
	Estimator string
	// EstimateEvery requests an estimate after every EstimateEvery accepted
	// batches, once the window is warm (0 ⇒ 4).
	EstimateEvery int
	// Wire selects the probe wire format the measured phases POST:
	// "json" (the default, "" ⇒ "json") or "binary" (the TOMOW1 columnar
	// format). The wire-comparison phase always measures both.
	Wire string
	// Client overrides the HTTP client (nil ⇒ http.DefaultClient).
	Client *http.Client
}

// wireCompareBatch is the snapshots-per-POST the wire-comparison phase
// replays with (when the configured Batch is smaller): large enough that
// per-request HTTP overhead stops masking the decode-cost difference the
// phase exists to measure.
const wireCompareBatch = 512

// FirehoseReport summarizes one firehose run. The count fields are
// deterministic functions of the configuration; the timing fields measure
// this run's hardware.
type FirehoseReport struct {
	Scenario           string
	Estimator          string
	Tenants            int
	SnapshotsPerTenant int
	Window             int
	Batch              int
	SnapshotsIngested  int64
	Estimates          int64
	Rejected429        int64
	ElapsedSec         float64
	SnapshotsPerSec    float64
	EstimateP50Ms      float64
	EstimateP99Ms      float64
	// The under-load block measures estimate throughput while every tenant
	// stream is being replayed at full rate — the read-replica serving
	// path's headline number: estimates served from published views while
	// the ingest queues stay saturated.
	EstimatesUnderLoad       int64
	EstimatesUnderLoadPerSec float64
	EstimateUnderLoadP50Ms   float64
	EstimateUnderLoadP99Ms   float64
	// The wire block compares the two probe wire formats head to head on
	// the same pre-simulated snapshot streams: each format's pure-ingest
	// replay throughput in snapshots and request-body megabytes per second
	// (batched at wireCompareBatch snapshots per POST so decode cost, not
	// per-request HTTP overhead, dominates). WireFormat is the format the
	// measured phases above used.
	WireFormat            string
	JSONSnapshotsPerSec   float64
	JSONIngestMBPerSec    float64
	BinarySnapshotsPerSec float64
	BinaryIngestMBPerSec  float64
}

// RunFirehose drives a daemon with synthetic probe traffic and returns the
// sustained throughput and estimate-latency percentiles. Each tenant runs
// on its own goroutine, so a multi-tenant run also exercises concurrent
// ingest across shards.
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
	mainCT := ContentTypeJSON
	if cfg.Wire == "binary" {
		mainCT = ContentTypeBinary
	}
	cmpBatch := cfg.Batch
	if cmpBatch < wireCompareBatch {
		cmpBatch = wireCompareBatch
	}
	if cmpBatch > DefaultMaxBatch {
		cmpBatch = DefaultMaxBatch
	}

	// Pre-simulate every tenant's probe stream so the measured loops are
	// pure serving traffic, not simulation or encoding: the main phases'
	// stream in the configured wire format, plus one stream per format
	// (batched at cmpBatch) for the wire-comparison phase.
	streams := make([][][]byte, cfg.Tenants) // per tenant, per batch: encoded wire body
	cmpJSON := make([][][]byte, cfg.Tenants)
	cmpBinary := make([][][]byte, cfg.Tenants)
	for i := 0; i < cfg.Tenants; i++ {
		scn, err := tomography.BuildScenario(cfg.Scenario, cfg.Seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("serve: firehose: %w", err)
		}
		rec, err := simulateScenario(scn, cfg.Snapshots, cfg.Seed+1000+int64(i))
		if err != nil {
			return nil, fmt.Errorf("serve: firehose: %w", err)
		}
		if cfg.Wire == "binary" {
			streams[i], err = encodeStreamBinary(rec, cfg.Batch)
		} else {
			streams[i], err = encodeStream(rec, cfg.Batch)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: firehose: %w", err)
		}
		if cmpJSON[i], err = encodeStream(rec, cmpBatch); err != nil {
			return nil, fmt.Errorf("serve: firehose: %w", err)
		}
		if cmpBinary[i], err = encodeStreamBinary(rec, cmpBatch); err != nil {
			return nil, fmt.Errorf("serve: firehose: %w", err)
		}
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
		latencies []time.Duration
		ingested  int64
		estimates int64
		rejected  int64
		firstErr  error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := firehoseTenantName(i)
			snaps := 0
			for b, body := range streams[i] {
				n, rej, err := postBatch(ctx, cfg.Client, cfg.BaseURL, name, body, mainCT)
				mu.Lock()
				rejected += rej
				ingested += int64(n)
				mu.Unlock()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				snaps += n
				if (b+1)%cfg.EstimateEvery == 0 && snaps >= cfg.Window {
					d, err := timeEstimate(ctx, cfg.Client, cfg.BaseURL, name)
					mu.Lock()
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
					} else {
						latencies = append(latencies, d)
						estimates++
					}
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, fmt.Errorf("serve: firehose: %w", firstErr)
	}

	// Second measured phase: estimate throughput under ingest load. The
	// tenant streams are replayed once more at full rate to keep every
	// shard queue busy (the windows slide, so re-ingesting is
	// harmless) while a dedicated client loops over /v1/estimate
	// round-robin across the now-warm tenants. Estimates are served from
	// published read-replica views by the estimate pool, so their latency
	// should not track the ingest backlog. Phase-2 traffic is accounted
	// separately and does not perturb the phase-1 throughput numbers.
	loadStart := time.Now()
	stop := make(chan struct{})
	var loadWG sync.WaitGroup
	for i := 0; i < cfg.Tenants; i++ {
		loadWG.Add(1)
		go func(i int) {
			defer loadWG.Done()
			name := firehoseTenantName(i)
			for _, body := range streams[i] {
				if _, _, err := postBatch(ctx, cfg.Client, cfg.BaseURL, name, body, mainCT); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(i)
	}
	go func() {
		loadWG.Wait()
		close(stop)
	}()
	var (
		loadedLat []time.Duration
		loadedEst int64
	)
estimateLoop:
	for i := 0; ; i++ {
		select {
		case <-stop:
			break estimateLoop
		default:
		}
		d, err := timeEstimate(ctx, cfg.Client, cfg.BaseURL, firehoseTenantName(i%cfg.Tenants))
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			break
		}
		loadedLat = append(loadedLat, d)
		loadedEst++
	}
	loadWG.Wait()
	loadElapsed := time.Since(loadStart)
	if firstErr != nil {
		return nil, fmt.Errorf("serve: firehose: %w", firstErr)
	}

	// Third measured phase: the wire-format comparison. Each format's
	// pre-encoded stream is replayed once at full ingest rate with no
	// estimate traffic — same simulated snapshots, same warm daemon, so
	// the only variable is the wire decode path.
	jsonSnaps, jsonBytes, jsonElapsed, err := replayStreams(ctx, &cfg, cmpJSON, ContentTypeJSON)
	if err != nil {
		return nil, fmt.Errorf("serve: firehose: wire comparison (json): %w", err)
	}
	binSnaps, binBytes, binElapsed, err := replayStreams(ctx, &cfg, cmpBinary, ContentTypeBinary)
	if err != nil {
		return nil, fmt.Errorf("serve: firehose: wire comparison (binary): %w", err)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	sort.Slice(loadedLat, func(i, j int) bool { return loadedLat[i] < loadedLat[j] })
	report := &FirehoseReport{
		Scenario:           cfg.Scenario,
		Estimator:          cfg.Estimator,
		Tenants:            cfg.Tenants,
		SnapshotsPerTenant: cfg.Snapshots,
		Window:             cfg.Window,
		Batch:              cfg.Batch,
		SnapshotsIngested:  ingested,
		Estimates:          estimates,
		Rejected429:        rejected,
		ElapsedSec:         elapsed.Seconds(),
		SnapshotsPerSec:    float64(ingested) / elapsed.Seconds(),
		EstimateP50Ms:      percentileMs(latencies, 0.50),
		EstimateP99Ms:      percentileMs(latencies, 0.99),

		EstimatesUnderLoad:       loadedEst,
		EstimatesUnderLoadPerSec: float64(loadedEst) / loadElapsed.Seconds(),
		EstimateUnderLoadP50Ms:   percentileMs(loadedLat, 0.50),
		EstimateUnderLoadP99Ms:   percentileMs(loadedLat, 0.99),

		WireFormat:            cfg.Wire,
		JSONSnapshotsPerSec:   float64(jsonSnaps) / jsonElapsed.Seconds(),
		JSONIngestMBPerSec:    float64(jsonBytes) / 1e6 / jsonElapsed.Seconds(),
		BinarySnapshotsPerSec: float64(binSnaps) / binElapsed.Seconds(),
		BinaryIngestMBPerSec:  float64(binBytes) / 1e6 / binElapsed.Seconds(),
	}
	return report, nil
}

// replayStreams replays every tenant's pre-encoded stream concurrently
// (one goroutine per tenant, 429s retried inside postBatch) and returns
// the accepted snapshot count, the request-body bytes posted, and the
// wall-clock elapsed — the wire-comparison measurement primitive.
func replayStreams(ctx context.Context, cfg *FirehoseConfig, streams [][][]byte, contentType string) (snaps, bodyBytes int64, elapsed time.Duration, err error) {
	var (
		mu       sync.Mutex
		firstErr error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := firehoseTenantName(i)
			for _, body := range streams[i] {
				n, _, perr := postBatch(ctx, cfg.Client, cfg.BaseURL, name, body, contentType)
				mu.Lock()
				snaps += int64(n)
				bodyBytes += int64(len(body))
				if perr != nil && firstErr == nil {
					firstErr = perr
				}
				mu.Unlock()
				if perr != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return snaps, bodyBytes, time.Since(start), firstErr
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
// returns the accepted snapshot count and how many 429s it absorbed.
func postBatch(ctx context.Context, client *http.Client, base, tenant string, body []byte, contentType string) (accepted int, rejected int64, err error) {
	url := fmt.Sprintf("%s/v1/ingest?tenant=%s", base, tenant)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return 0, rejected, err
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := client.Do(req)
		if err != nil {
			return 0, rejected, err
		}
		respBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var out struct {
				Accepted int `json:"accepted"`
			}
			if err := json.Unmarshal(respBody, &out); err != nil {
				return 0, rejected, fmt.Errorf("decoding ingest response: %w", err)
			}
			return out.Accepted, rejected, nil
		case http.StatusTooManyRequests:
			rejected++
			select {
			case <-time.After(2 * time.Millisecond):
			case <-ctx.Done():
				return 0, rejected, ctx.Err()
			}
		default:
			return 0, rejected, fmt.Errorf("ingest: unexpected status %d: %s", resp.StatusCode, respBody)
		}
	}
}

// timeEstimate requests one estimate and returns its client-observed
// latency.
func timeEstimate(ctx context.Context, client *http.Client, base, tenant string) (time.Duration, error) {
	url := fmt.Sprintf("%s/v1/estimate?tenant=%s", base, tenant)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("estimate: unexpected status %d: %s", resp.StatusCode, body)
	}
	return d, nil
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

// percentileMs returns the p-th percentile of sorted durations, in
// milliseconds (0 for an empty slice).
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Nanoseconds()) / 1e6
}
