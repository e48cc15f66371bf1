package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	tomography "repro"
)

// Config parameterizes a Daemon. The zero value is a usable default.
type Config struct {
	// Shards is the number of serving partitions, each a single worker
	// goroutine with its own bounded queue (0 ⇒ GOMAXPROCS, capped at 16).
	Shards int
	// QueueDepth bounds each shard's job queue; a full queue rejects
	// ingests with 429 + Retry-After (0 ⇒ 256).
	QueueDepth int
	// MaxBatch caps snapshots per ingest POST (0 ⇒ DefaultMaxBatch).
	MaxBatch int
	// MaxBody caps ingest/registration body bytes (0 ⇒ DefaultMaxBody).
	MaxBody int64
	// RetryAfter is the Retry-After hint on 429 responses, in seconds
	// (0 ⇒ 1).
	RetryAfter int
	// EstimateWorkers sizes the estimate-side read-replica pool: estimates
	// run against immutable copy-on-write window views on these workers,
	// never occupying a shard's ingest queue, so a slow MLE estimate cannot
	// stall probe ingestion (0 ⇒ 1). Each worker owns one evaluate
	// workspace; estimates are bit-identical for every setting.
	EstimateWorkers int
	// SpillDir, when non-empty, backs every tenant's window with the
	// out-of-core segment store: sealed column segments land under
	// SpillDir/<escaped tenant name> and counts run on the mapped files,
	// so per-tenant RSS stays bounded by the segment size instead of the
	// window size. Estimates are bit-identical to the in-RAM windows. Each
	// tenant's subdirectory is reset at registration.
	SpillDir string
	// SpillSegmentRows overrides the rows per sealed segment when SpillDir
	// is set (0 ⇒ the segstore default; must be a multiple of 64).
	SpillSegmentRows int
}

// Daemon is the multi-tenant serving core: tenant registry, shard workers,
// and the HTTP API. Construct with New, mount Handler on a server, and
// stop with Shutdown — which drains every queue, flushes one final
// estimate per warm tenant, and leaves no goroutines behind.
type Daemon struct {
	cfg     Config
	metrics metrics

	// mu guards the tenant registry, the draining flag, and — critically —
	// every send on a shard queue: senders hold it for reading, Shutdown
	// flips draining and closes the queues while holding it for writing, so
	// a send on a closed queue cannot happen.
	mu        sync.RWMutex
	tenants   map[string]*Tenant
	nextShard int
	draining  bool

	// plans shares topologies and plans among scenario tenants.
	plans scenarioPlans

	shards []*shard
	wg     sync.WaitGroup

	// estQueue feeds the estimate-side replica pool; estWG tracks its
	// workers. Senders follow the same RWMutex protocol as the shard
	// queues, and Shutdown closes estQueue only after the shard workers
	// have drained — so every queued estimate's target view is published
	// before the pool is asked to finish.
	estQueue chan estJob
	estWG    sync.WaitGroup
}

// New starts a daemon's shard workers and returns it ready to serve.
func New(cfg Config) *Daemon {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
		if cfg.Shards > 16 {
			cfg.Shards = 16
		}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 1
	}
	if cfg.EstimateWorkers <= 0 {
		cfg.EstimateWorkers = 1
	}
	d := &Daemon{cfg: cfg, tenants: map[string]*Tenant{}}
	d.shards = make([]*shard, cfg.Shards)
	for i := range d.shards {
		d.shards[i] = &shard{queue: make(chan job, cfg.QueueDepth)}
		d.wg.Add(1)
		go d.worker(d.shards[i])
	}
	d.estQueue = make(chan estJob, cfg.QueueDepth)
	for i := 0; i < cfg.EstimateWorkers; i++ {
		d.estWG.Add(1)
		go d.estimateWorker()
	}
	return d
}

// Config returns the daemon's resolved configuration.
func (d *Daemon) Config() Config { return d.cfg }

// errShuttingDown is the uniform rejection once Shutdown has begun; the
// HTTP layer maps it to 503.
var errShuttingDown = errors.New("serve: daemon shutting down")

// Register adds a tenant: the topology is built (from a named scenario or
// an inline document), compiled into a plan, and given an empty sliding
// window on a round-robin-assigned shard. An initial (empty) read-replica
// view is published so the estimate pool always has a view to answer from,
// and pattern-based estimators get their histogram primed while the window
// is still empty (free) so every published view carries it. Duplicate
// names are rejected.
func (d *Daemon) Register(cfg TenantConfig) (*Tenant, error) {
	t, err := newTenant(cfg, &d.plans, d.cfg.SpillDir, d.cfg.SpillSegmentRows)
	if err != nil {
		return nil, err
	}
	if t.estimator == "theorem" {
		t.win.Source().PrimePatterns()
	}
	d.publishView(t)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		t.view.Load().view.Close()
		t.win.Close()
		return nil, errShuttingDown
	}
	if _, dup := d.tenants[cfg.Name]; dup {
		t.view.Load().view.Close()
		t.win.Close()
		return nil, errDuplicateTenant{msg: fmt.Sprintf("serve: tenant %q already registered", cfg.Name)}
	}
	t.shard = d.nextShard
	d.nextShard = (d.nextShard + 1) % len(d.shards)
	d.tenants[cfg.Name] = t
	return t, nil
}

// errUnknownTenant and errDuplicateTenant carry their HTTP status (404 and
// 409) as a type, so the handler layer never pattern-matches on message
// text.
type errUnknownTenant struct{ msg string }

func (e errUnknownTenant) Error() string { return e.msg }

type errDuplicateTenant struct{ msg string }

func (e errDuplicateTenant) Error() string { return e.msg }

// lookup resolves a tenant name under the read lock; the error lists the
// registered names so a typo is diagnosable from the response alone.
func (d *Daemon) lookupLocked(name string) (*Tenant, error) {
	if t, ok := d.tenants[name]; ok {
		return t, nil
	}
	return nil, errUnknownTenant{msg: fmt.Sprintf(
		"serve: unknown tenant %q (registered: %v)", name, d.tenantNamesLocked())}
}

func (d *Daemon) tenantNamesLocked() []string {
	names := make([]string, 0, len(d.tenants))
	for n := range d.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Tenants returns the admin view of every tenant, sorted by name.
func (d *Daemon) Tenants() []TenantInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]TenantInfo, 0, len(d.tenants))
	for _, name := range d.tenantNamesLocked() {
		out = append(out, d.tenants[name].info())
	}
	return out
}

// Ingest validates one probe batch for the named tenant and enqueues it on
// the tenant's shard. It never blocks: a full queue returns ErrBackpressure
// immediately, and the caller (the HTTP layer, or a direct embedder)
// decides how to retry.
var ErrBackpressure = errors.New("serve: shard queue full")

func (d *Daemon) Ingest(name string, body []byte) (accepted int, err error) {
	return d.IngestWire(name, body, ContentTypeJSON)
}

// IngestWire is Ingest with wire-format negotiation: contentType selects
// the decoder (ContentTypeBinary ⇒ the TOMOW1 binary columnar format,
// anything else ⇒ JSON, so JSON stays the default). Both decoders validate
// into the same pooled word-batch buffers, and the shard worker appends
// those words column-wise, so decoding and appending a batch allocate
// nothing once warm. Nothing refers to body after the call returns.
// Through the HTTP handler, which reads the body into a pooled buffer
// too, a warm post allocates a constant whatever its snapshot count
// (TestIngestHandlerAllocsFlat).
func (d *Daemon) IngestWire(name string, body []byte, contentType string) (accepted int, err error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.draining {
		return 0, errShuttingDown
	}
	t, err := d.lookupLocked(name)
	if err != nil {
		return 0, err
	}
	binaryWire := isBinaryContentType(contentType)
	wb := getWordBatch()
	if binaryWire {
		err = decodeReportsBinaryInto(wb, body, t.numPaths, d.cfg.MaxBatch)
	} else {
		err = decodeReportsJSONInto(wb, body, t.numPaths, d.cfg.MaxBatch)
	}
	if err != nil {
		putWordBatch(wb)
		d.metrics.ingestInvalid.Add(1)
		return 0, err
	}
	// The worker returns wb to the pool after applying it; read the row
	// count before the send hands ownership over.
	rows := wb.rows
	select {
	case d.shards[t.shard].queue <- job{tenant: t, batch: wb}:
		// Count the batch as accepted before the 202 returns: an estimate
		// the client sends afterwards reads this counter as its target and
		// is served only from a view that has observed the batch.
		t.accepted.Add(int64(rows))
		d.metrics.ingestBatches.Add(1)
		if binaryWire {
			d.metrics.ingestBatchesBinary.Add(1)
			d.metrics.ingestBytesBinary.Add(int64(len(body)))
		} else {
			d.metrics.ingestBatchesJSON.Add(1)
			d.metrics.ingestBytesJSON.Add(int64(len(body)))
		}
		return rows, nil
	default:
		putWordBatch(wb)
		d.metrics.ingestRejected.Add(1)
		return 0, ErrBackpressure
	}
}

// EstimateResponse is the /v1/estimate JSON document.
type EstimateResponse struct {
	Tenant         string    `json:"tenant"`
	Estimator      string    `json:"estimator"`
	WindowSize     int       `json:"window_size"`
	WindowLen      int       `json:"window_len"`
	SnapshotsSeen  int       `json:"snapshots_seen"`
	CongestionProb []float64 `json:"congestion_prob"`
	ChangePoints   int       `json:"change_points"`
}

// Estimate runs the tenant's estimator on the read-replica pool, against
// the first published window view that has observed every ingest batch
// accepted before this call (read-your-accepted-writes). The estimate
// itself never occupies the ingest queue: a saturated shard 429s probes
// while estimates keep being served from the latest view. ctx bounds queue
// admission, the view wait, and the reply.
func (d *Daemon) Estimate(ctx context.Context, name string) (*EstimateResponse, error) {
	d.mu.RLock()
	if d.draining {
		d.mu.RUnlock()
		return nil, errShuttingDown
	}
	t, err := d.lookupLocked(name)
	if err != nil {
		d.mu.RUnlock()
		return nil, err
	}
	j := estJob{
		tenant:   t,
		target:   t.accepted.Load(),
		enqueued: time.Now(),
		ctx:      ctx,
		done:     make(chan estimateReply, 1),
	}
	select {
	case d.estQueue <- j:
		d.mu.RUnlock()
	case <-ctx.Done():
		d.mu.RUnlock()
		return nil, fmt.Errorf("serve: estimate %q: %w", name, ctx.Err())
	}
	select {
	case reply := <-j.done:
		return reply.res, reply.err
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: estimate %q: %w", name, ctx.Err())
	}
}

// FinalEstimate is one tenant's shutdown-flush estimate.
type FinalEstimate struct {
	Tenant   string
	Response *EstimateResponse
	// Err records why no estimate was flushed (e.g. a still-warming window).
	Err error
}

// Shutdown drains the daemon: new ingests, estimates and registrations are
// rejected immediately, the shard workers finish every queued batch (each
// publishing a view), the estimate pool serves every queued estimate and
// exits — always possible, because every queued estimate's target view is
// published by the drained shard workers — and one final estimate is
// flushed from the last published view of every tenant whose window is
// warm. It returns the final estimates sorted by tenant name. ctx bounds
// the drain; on expiry the workers keep draining in the background but no
// flush is attempted.
func (d *Daemon) Shutdown(ctx context.Context) ([]FinalEstimate, error) {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return nil, fmt.Errorf("serve: daemon already shut down")
	}
	d.draining = true
	for _, s := range d.shards {
		close(s.queue)
	}
	d.mu.Unlock()

	done := make(chan struct{})
	go func() {
		// Shard workers first: once they exit, every accepted batch is
		// applied and its view published, so the estimate pool can finish
		// every queued job before its queue closes under it.
		d.wg.Wait()
		close(d.estQueue)
		d.estWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: shutdown drain: %w", ctx.Err())
	}

	// All workers have exited, so this goroutine is now the sole owner of
	// every tenant window and view. Each tenant's last published view has
	// observed every applied batch: flush one final estimate per warm
	// tenant from it, then release the view and the window.
	ws := tomography.NewWorkspace()
	d.mu.RLock()
	names := d.tenantNamesLocked()
	var out []FinalEstimate
	for _, name := range names {
		t := d.tenants[name]
		box := t.view.Load()
		res, err := d.estimateBox(ws, t, box)
		out = append(out, FinalEstimate{Tenant: name, Response: res, Err: err})
		// Close the final view (no readers remain) and the window,
		// releasing their chunks and segment mappings. The box stays
		// stored, so its gauges keep answering Tenants.
		box.retired.Store(true)
		if box.claim() {
			box.view.Close()
		}
		t.win.Close()
	}
	d.mu.RUnlock()
	return out, nil
}

// --- HTTP layer. ---

// Handler returns the daemon's HTTP API:
//
//	POST /v1/tenants   register a tenant (TenantConfig JSON)
//	GET  /v1/tenants   list tenants
//	POST /v1/ingest    ?tenant=NAME, probe-report batch JSON body
//	GET  /v1/estimate  ?tenant=NAME
//	GET  /v1/health    liveness + tenant/shard counts
//	GET  /metrics      Prometheus text exposition
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tenants", d.handleTenants)
	mux.HandleFunc("/v1/ingest", d.handleIngest)
	mux.HandleFunc("/v1/estimate", d.handleEstimate)
	mux.HandleFunc("/v1/health", d.handleHealth)
	mux.HandleFunc("/metrics", d.handleMetrics)
	return mux
}

// writeJSON emits a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeError maps a daemon error to its HTTP status and envelope.
func (d *Daemon) writeError(w http.ResponseWriter, err error) {
	var warming errWindowWarming
	var unknown errUnknownTenant
	var duplicate errDuplicateTenant
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, errShuttingDown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrBackpressure):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", d.cfg.RetryAfter))
		status = http.StatusTooManyRequests
	case errors.As(err, &warming):
		status = http.StatusTooEarly
	case errors.As(err, &unknown):
		status = http.StatusNotFound
	case errors.As(err, &duplicate):
		status = http.StatusConflict
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (d *Daemon) handleTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, d.Tenants())
	case http.MethodPost:
		body, err := d.readBody(w, r)
		if err != nil {
			d.writeError(w, fmt.Errorf("serve: register: reading body: %w", err))
			return
		}
		// Unmarshal copies what it keeps, Topology's json.RawMessage
		// included, and its errors hold no body bytes: the buffer can go
		// back to the pool before the tenant is built.
		var cfg TenantConfig
		err = json.Unmarshal(body.Bytes(), &cfg)
		bodyPool.Put(body)
		if err != nil {
			d.writeError(w, fmt.Errorf("serve: register: decode: %w", err))
			return
		}
		t, err := d.Register(cfg)
		if err != nil {
			d.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, t.info())
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (d *Daemon) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := d.readBody(w, r)
	if err != nil {
		d.writeError(w, fmt.Errorf("serve: decode probe batch: reading body: %w", err))
		return
	}
	// Nothing refers to the body once IngestWire returns: both decoders
	// copy it into the pooled word batch before the queue send, their
	// errors are formatted strings, and the metrics keep only its length.
	// A decoder that aliased the body would break this, and
	// TestIngestDoesNotAliasBody would catch it.
	defer bodyPool.Put(body)
	tenant := r.URL.Query().Get("tenant")
	accepted, err := d.IngestWire(tenant, body.Bytes(), r.Header.Get("Content-Type"))
	if err != nil {
		d.writeError(w, err)
		return
	}
	// A shard that has not yet taken an earlier batch is behind. When the
	// host has no idle CPU, its worker's thread is typically queued in the
	// kernel behind the thread serving HTTP, and without a yield it waits
	// there until the kernel rebalances, about a scheduler tick, while
	// more batches pile up behind it for the next estimate to wait on.
	if d.shardBehind(tenant) {
		yieldCPU()
	}
	writeAccepted(w, body.Bytes()[:0], accepted)
}

// shardBehind reports whether the named tenant's shard queue still holds
// a batch its worker has not taken.
func (d *Daemon) shardBehind(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tenants[name]
	return ok && len(d.shards[t.shard].queue) > 0
}

// writeAccepted emits the 202 reply to an accepted ingest. It is
// byte-identical to writeJSON of struct{ Accepted int `json:"accepted"` },
// without encoding/json's reflection and indenting on every post. The
// reply is built in scratch, the spent body buffer: a local array would
// escape to the heap through the Write call.
func writeAccepted(w http.ResponseWriter, scratch []byte, accepted int) {
	b := append(scratch, "{\n  \"accepted\": "...)
	b = strconv.AppendInt(b, int64(accepted), 10)
	b = append(b, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	w.Write(b)
}

// bodyPool recycles request-body buffers across POSTs, so a post costs
// its bytes once on the wire and not a fresh copy on the heap. A buffer
// holds at most about twice MaxBody (a chunked body grows it by doubling).
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads a request body, capped at MaxBody, into a buffer from
// bodyPool; the caller puts it back once nothing refers to its bytes. A
// Content-Length within the cap sizes the buffer in one step; a larger or
// missing one (a chunked body) takes the buffer's plain growth, so a lying
// header cannot make it allocate past the cap.
func (d *Daemon) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= d.cfg.MaxBody {
		// ReadFrom wants MinRead free bytes before every read, the one
		// that meets EOF included.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, d.cfg.MaxBody)); err != nil {
		bodyPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

func (d *Daemon) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	res, err := d.Estimate(r.Context(), r.URL.Query().Get("tenant"))
	if err != nil {
		d.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// HealthResponse is the /v1/health JSON document.
type HealthResponse struct {
	Status   string `json:"status"`
	Tenants  int    `json:"tenants"`
	Shards   int    `json:"shards"`
	Draining bool   `json:"draining"`
}

func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	d.mu.RLock()
	resp := HealthResponse{
		Status:   "ok",
		Tenants:  len(d.tenants),
		Shards:   len(d.shards),
		Draining: d.draining,
	}
	d.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d.mu.RLock()
	stats := make([]tenantStats, 0, len(d.tenants))
	for _, name := range d.tenantNamesLocked() {
		t := d.tenants[name]
		box := t.view.Load()
		st := tenantStats{
			name:      t.name,
			seen:      int64(box.seen),
			occupancy: int64(box.len),
			changes:   int64(box.changePoints),
			viewAge:   time.Since(box.published),
		}
		if lag := t.accepted.Load() - int64(box.seen); lag > 0 {
			st.viewLag = lag
		}
		stats = append(stats, st)
	}
	queueLens := make([]int, len(d.shards))
	for i, s := range d.shards {
		queueLens[i] = len(s.queue)
	}
	estQueueLen := len(d.estQueue)
	d.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	d.metrics.writeTo(w, stats, queueLens, estQueueLen)
}
