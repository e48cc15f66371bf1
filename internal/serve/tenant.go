package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	tomography "repro"
	"repro/internal/topology"
)

// TenantConfig is the registration payload of the admin API (POST
// /v1/tenants): a tenant is one topology with one sliding-window inference
// session. Exactly one of Scenario or Topology selects where the topology
// comes from — a named scenario from the registry (built from Seed), or an
// inline topology document in the cmd/topogen JSON format.
type TenantConfig struct {
	// Name is the tenant's unique key.
	Name string `json:"name"`
	// Scenario names a registry scenario to take the topology from.
	Scenario string `json:"scenario,omitempty"`
	// Seed builds the named scenario reproducibly.
	Seed int64 `json:"seed,omitempty"`
	// Topology is an inline topology JSON document (cmd/topogen format).
	Topology json.RawMessage `json:"topology,omitempty"`
	// Window is the sliding-window length in snapshots (> 0).
	Window int `json:"window"`
	// Estimator is the estimator to run per estimate
	// ("" ⇒ correlation).
	Estimator string `json:"estimator,omitempty"`
}

// Tenant is one registered inference session: a topology, its compiled
// plan, and a chunked sliding window over columnar snapshot storage.
// The window is written only by the tenant's shard worker — every ingest
// batch for this tenant flows through that shard's queue, so window
// appends never take a lock and batches apply in a total order. Estimates
// and the admin/metrics handlers never touch the window: they read the
// latest published view box (view) and the atomic counters below.
type Tenant struct {
	name      string
	scenario  string // registry scenario the topology came from ("" for inline)
	estimator string
	window    int // configured window size (warm ⇔ occupancy == window)
	numPaths  int
	numLinks  int
	shard     int
	win       *tomography.Window

	estimates atomic.Int64 // estimates served
	// accepted counts snapshots accepted for ingest (incremented by Ingest
	// before the 202 returns). An estimate enqueued afterwards waits for a
	// view that has observed at least this many snapshots — the
	// read-your-accepted-writes bound that keeps replica estimates
	// bit-identical to an offline replay of the accepted stream.
	accepted atomic.Int64
	// view is the tenant's latest published read-replica view; the shard
	// worker swaps in a fresh one after every applied batch, the estimate
	// pool and the admin/metrics handlers read it. Never nil once the
	// tenant is registered.
	view atomic.Pointer[viewBox]
}

// Name returns the tenant's registry key.
func (t *Tenant) Name() string { return t.name }

// Seen returns the total number of snapshots the tenant's latest published
// view has observed.
func (t *Tenant) Seen() int64 { return int64(t.view.Load().seen) }

// ChangePoints returns the number of CUSUM change-point alerts fired as of
// the latest published view.
func (t *Tenant) ChangePoints() int64 { return int64(t.view.Load().changePoints) }

// scenarioPlans shares one topology and one lazily compiled plan among the
// tenants registered on the same registry scenario and seed, so the
// scenario is built and each plan structure compiled once rather than per
// tenant. The plan memoizes every structure under a sync.Once, so tenants
// on different shards may estimate through it concurrently. The daemon
// never removes a tenant, so the map holds one entry per scenario and seed
// that a registration has named.
type scenarioPlans struct {
	mu sync.Mutex
	m  map[scenarioKey]*tomography.Plan
}

type scenarioKey struct {
	name string
	seed int64
}

// get returns the shared plan of a scenario and seed, building the
// scenario on first use.
func (sp *scenarioPlans) get(name string, seed int64) (*tomography.Plan, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	key := scenarioKey{name, seed}
	if p, ok := sp.m[key]; ok {
		return p, nil
	}
	scn, err := tomography.BuildScenario(name, seed)
	if err != nil {
		return nil, err
	}
	p, err := tomography.Compile(scn.Topology, tomography.PlanOptions{Lazy: true})
	if err != nil {
		return nil, err
	}
	if sp.m == nil {
		sp.m = make(map[scenarioKey]*tomography.Plan)
	}
	sp.m[key] = p
	return p, nil
}

// newTenant validates a TenantConfig and builds the tenant (window empty).
// A scenario tenant takes its topology and plan from plans; an inline
// topology gets a plan of its own, compiled lazily. The shard index is
// assigned by the daemon, which also passes its configured spill directory
// down to the window; a non-empty spillDir gives the tenant an out-of-core
// window whose segments live under its own escaped-name subdirectory.
func newTenant(cfg TenantConfig, plans *scenarioPlans, spillDir string, spillSegRows int) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("serve: register: tenant name is empty")
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("serve: register tenant %q: window = %d, want > 0", cfg.Name, cfg.Window)
	}
	hasScenario := cfg.Scenario != ""
	hasTopology := len(cfg.Topology) > 0
	if hasScenario == hasTopology {
		return nil, fmt.Errorf("serve: register tenant %q: specify exactly one of scenario or topology", cfg.Name)
	}
	var top *tomography.Topology
	var plan *tomography.Plan
	if hasScenario {
		var err error
		plan, err = plans.get(cfg.Scenario, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("serve: register tenant %q: %w", cfg.Name, err)
		}
		top = plan.Topology()
	} else {
		var err error
		top, err = decodeTopology(cfg.Topology)
		if err != nil {
			return nil, fmt.Errorf("serve: register tenant %q: %w", cfg.Name, err)
		}
	}
	estimator := cfg.Estimator
	if estimator == "" {
		estimator = "correlation"
	}
	wcfg := tomography.WindowConfig{Size: cfg.Window, Estimator: estimator, Plan: plan}
	if spillDir != "" {
		// url.PathEscape keeps arbitrary tenant names from escaping the
		// spill root, except that it passes dots through — escape them too
		// so "." and ".." stay inside. Still collision-free: a literal
		// "%2E" in a name has its % escaped to %25 first.
		sub := strings.ReplaceAll(url.PathEscape(cfg.Name), ".", "%2E")
		wcfg.Spill = &tomography.SpillConfig{
			Dir:         filepath.Join(spillDir, sub),
			SegmentRows: spillSegRows,
			Reset:       true,
		}
	}
	win, err := tomography.NewWindow(top, wcfg)
	if err != nil {
		return nil, fmt.Errorf("serve: register tenant %q: %w", cfg.Name, err)
	}
	return &Tenant{
		name:      cfg.Name,
		scenario:  cfg.Scenario,
		estimator: estimator,
		window:    cfg.Window,
		numPaths:  top.NumPaths(),
		numLinks:  top.NumLinks(),
		win:       win,
	}, nil
}

// decodeTopology parses an inline topology document through the validating
// decoder (same path as cmd/tomo's stdin topology).
func decodeTopology(raw json.RawMessage) (*tomography.Topology, error) {
	return topology.Decode(bytes.NewReader(raw))
}

// TenantInfo is the admin API's view of one tenant (GET /v1/tenants).
type TenantInfo struct {
	Name         string `json:"name"`
	Scenario     string `json:"scenario,omitempty"`
	Estimator    string `json:"estimator"`
	Window       int    `json:"window"`
	NumPaths     int    `json:"num_paths"`
	NumLinks     int    `json:"num_links"`
	Shard        int    `json:"shard"`
	Seen         int64  `json:"snapshots_seen"`
	Occupancy    int64  `json:"window_occupancy"`
	ChangePoints int64  `json:"change_points"`
	Estimates    int64  `json:"estimates"`
}

// info snapshots the tenant's admin view.
func (t *Tenant) info() TenantInfo {
	box := t.view.Load()
	return TenantInfo{
		Name:         t.name,
		Scenario:     t.scenario,
		Estimator:    t.estimator,
		Window:       t.window,
		NumPaths:     t.numPaths,
		NumLinks:     t.numLinks,
		Shard:        t.shard,
		Seen:         int64(box.seen),
		Occupancy:    int64(box.len),
		ChangePoints: int64(box.changePoints),
		Estimates:    t.estimates.Load(),
	}
}
