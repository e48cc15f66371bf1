package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// daemon is an in-process serve.Daemon behind a loopback HTTP server.
type daemon struct {
	d      *serve.Daemon
	srv    *http.Server
	base   string
	served chan error
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := serve.New(cfg)
	h := &daemon{d: d, srv: &http.Server{Handler: d.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

// stop closes the HTTP server, waits for its goroutine, and drains the
// daemon.
func (h *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if _, derr := h.d.Shutdown(ctx); err == nil {
		err = derr
	}
	return err
}

// scrape reads the daemon's /metrics exposition in-process (no socket) and
// returns every sample keyed by its full name with labels.
func (h *daemon) scrape() (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix adds every sample whose name starts with prefix; maxPrefix
// takes their maximum.
func sumPrefix(m map[string]float64, prefix string) (s float64) {
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

func maxPrefix(m map[string]float64, prefix string) (x float64) {
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && v > x {
			x = v
		}
	}
	return x
}

// client is one HTTP client role. Its transport holds at most one
// connection, so each role's requests share one loopback connection.
type client struct {
	base string
	tr   *http.Transport
	c    *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, c: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

func (c *client) register(cfg serve.TenantConfig) error {
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	status, data, err := c.do(http.MethodPost, "/v1/tenants", "application/json", body)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("register %s: status %d: %s", cfg.Name, status, data)
	}
	return nil
}

// post sends one ingest batch and returns the accepted snapshot count.
func (c *client) post(tenant string, body []byte, contentType string) (int, error) {
	status, data, err := c.do(http.MethodPost, "/v1/ingest?tenant="+tenant, contentType, body)
	if err != nil {
		return 0, err
	}
	if err := statusErr(status, data); err != nil {
		return 0, err
	}
	var r struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return 0, fmt.Errorf("ingest reply: %w", err)
	}
	return r.Accepted, nil
}

// estimate fetches one estimate.
func (c *client) estimate(tenant string) (*serve.EstimateResponse, error) {
	status, data, err := c.do(http.MethodGet, "/v1/estimate?tenant="+tenant, "", nil)
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, data); err != nil {
		return nil, err
	}
	var r serve.EstimateResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("estimate reply: %w", err)
	}
	return &r, nil
}

// statusErr is the benchmark's rule for HTTP outcomes: anything but a 2xx
// reply — a 429 backpressure refusal included — is a failed operation.
func statusErr(status int, body []byte) error {
	if status >= 200 && status < 300 {
		return nil
	}
	return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
}

// tally counts operations attempted and failed, keeping the first few
// failure messages for the run's report.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

// note records one operation's outcome and reports whether it succeeded.
func (t *tally) note(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// coverage tracks, for one tenant, when each accepted write batch was due
// and how many snapshots the tenant had accepted after it. A checkpoint is
// the time from the due time of the oldest batch an estimate is the first
// to cover to that estimate's return.
type coverage struct {
	mu      sync.Mutex
	due     []time.Time
	cum     []int64
	covered int64
	next    int
}

func (c *coverage) wrote(due time.Time, cumAfter int64) {
	c.mu.Lock()
	c.due = append(c.due, due)
	c.cum = append(c.cum, cumAfter)
	c.mu.Unlock()
}

// read records an estimate covering seen snapshots that returned at done;
// ok is false when it covers no batch an earlier estimate did not.
func (c *coverage) read(seen int64, done time.Time) (d time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	first := -1
	for c.next < len(c.cum) && c.cum[c.next] <= seen {
		if first < 0 && c.cum[c.next] > c.covered {
			first = c.next
		}
		c.next++
	}
	if seen > c.covered {
		c.covered = seen
	}
	if first < 0 {
		return 0, false
	}
	return done.Sub(c.due[first]), true
}

// timing is one open-loop operation: when it was due, sent and done.
type timing struct{ due, sent, done time.Time }

func (t timing) latency() time.Duration  { return t.done.Sub(t.due) }
func (t timing) lateness() time.Duration { return t.sent.Sub(t.due) }

// spinBefore is how long before a due time the generator stops sleeping
// and spins, so timer slack does not show up as request latency.
const spinBefore = 300 * time.Microsecond

// openLoop issues operation i at start + i·period, or as soon as operation
// i−1 has returned when that is later, until the next due time would be at
// or after end. Every operation is timed from its due time, so a stalled
// request also charges the wait it imposes on the requests behind it.
// prepare runs before the wait, op between sent and done.
func openLoop(start time.Time, period time.Duration, end time.Time, prepare func(i int), op func(i int, due time.Time)) []timing {
	var out []timing
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			return out
		}
		if prepare != nil {
			prepare(i)
		}
		if wait := time.Until(due); wait > spinBefore {
			time.Sleep(wait - spinBefore)
		}
		for time.Now().Before(due) {
		}
		t := timing{due: due, sent: time.Now()}
		op(i, due)
		t.done = time.Now()
		out = append(out, t)
	}
}
