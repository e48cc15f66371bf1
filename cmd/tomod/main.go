// Command tomod is the long-running tomography inference daemon: it serves
// the sliding-window estimators over HTTP for many tenants at once. Each
// tenant is one measurement topology with its own compiled inference plan
// and sliding window; probe-report batches are POSTed per tenant,
// flow through bounded per-shard queues (full queues answer 429 +
// Retry-After), and estimates, health and Prometheus metrics are served
// while the stream keeps flowing. SIGTERM drains the queues, flushes one
// final estimate per warm tenant, and exits 0.
//
// Usage:
//
//	tomod -scenario diurnal -tenants 4 -window 256 -addr 127.0.0.1:8080
//	tomod -selftest -scenario diurnal -tenants 4 -snapshots 20000
//
// The -selftest form starts the daemon on an ephemeral port, drives it
// with the synthetic probe firehose, and prints the ingested and served
// counts and the final estimates. It exits non-zero if any step fails: a
// request that does not succeed, an estimate that fails while ingest is
// saturated, or JSON and binary probe wires that disagree.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	tomography "repro"
	"repro/internal/profiling"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tomod:", err)
		os.Exit(1)
	}
}

// drainTimeout bounds graceful shutdown: in-flight HTTP requests, queued
// ingest batches and the final per-tenant estimate flush must all complete
// within it.
const drainTimeout = 30 * time.Second

// run is the testable daemon body: flags in, report out. Usage and
// flag-parse errors go to stderr; -h is not an error.
func run(args []string, stdout, stderr io.Writer) error {
	estimators := strings.Join(tomography.EstimatorNames(), " | ")
	fs := flag.NewFlagSet("tomod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address for the HTTP API")
		shards    = fs.Int("shards", 0, "serving shards, each one worker goroutine with a bounded queue (0 = GOMAXPROCS, capped at 16)")
		queue     = fs.Int("queue", 256, "per-shard ingest queue depth; a full queue answers 429 + Retry-After")
		scenName  = fs.String("scenario", "quickstart", "registry scenario pre-registered tenants are built from; see tomo -list-scenarios")
		tenants   = fs.Int("tenants", 1, "number of tenants to pre-register (t0..tN-1)")
		window    = fs.Int("window", 256, "sliding-window size per tenant, in snapshots")
		estimator = fs.String("estimator", "correlation", "registry estimator each tenant runs per estimate: "+estimators)
		seed      = fs.Int64("seed", 1, "root seed; tenant i uses seed+i")
		selftest  = fs.Bool("selftest", false, "start on an ephemeral port, drive the probe firehose against it, check every phase, report the counts, and exit")
		snapshots = fs.Int("snapshots", 2000, "selftest: probe-stream length per tenant")
		batch     = fs.Int("batch", 64, "selftest: snapshots per ingest POST")
		estEvery  = fs.Int("estimate-every", 4, "selftest: request an estimate after this many accepted batches")
		estWork   = fs.Int("estimate-workers", 0, "run estimates on this many read-replica workers against published window views (0/1 = one worker); estimates are bit-identical for every setting")
		spillDir  = fs.String("spill-dir", "", "back every tenant window with the out-of-core segment store under this directory (per-tenant subdirectories, reset at registration); estimates are bit-identical to the in-RAM windows")
		wire      = fs.String("wire", "json", "selftest: probe wire format the firehose POSTs: json | binary (TOMOW1 columnar)")
		pubEvery  = fs.Int("publish-every", 0, "publish a read-replica view every this many applied batches instead of after each one (0/1 = every batch); estimates stay bit-identical")
		pubMaxAge = fs.Duration("publish-max-age", 0, "with -publish-every: also publish once a tenant's view is this old (0 = no age bound)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *tenants <= 0 {
		return fmt.Errorf("tenants = %d, want > 0", *tenants)
	}
	if *wire != "json" && *wire != "binary" {
		return fmt.Errorf("wire = %q, want json or binary", *wire)
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(stderr, "tomod:", perr)
		}
	}()

	d := serve.New(serve.Config{
		Shards: *shards, QueueDepth: *queue,
		EstimateWorkers: *estWork, SpillDir: *spillDir,
		PublishEveryBatches: *pubEvery, PublishMaxAge: *pubMaxAge,
	})
	cfg := d.Config()
	fmt.Fprintf(stdout, "tomod: sharded multi-tenant inference daemon\n")
	fmt.Fprintf(stdout, "  shards:      %d\n", cfg.Shards)
	fmt.Fprintf(stdout, "  queue depth: %d\n", cfg.QueueDepth)
	fmt.Fprintf(stdout, "  scenario:    %s\n", *scenName)
	fmt.Fprintf(stdout, "  tenants:     %d\n", *tenants)
	fmt.Fprintf(stdout, "  window:      %d\n", *window)
	fmt.Fprintf(stdout, "  estimator:   %s\n", *estimator)
	fmt.Fprintf(stdout, "  seed:        %d\n", *seed)
	if cfg.EstimateWorkers > 1 {
		// Printed only when enabled so default-config goldens are unchanged.
		fmt.Fprintf(stdout, "  estimate workers: %d\n", cfg.EstimateWorkers)
	}
	if cfg.SpillDir != "" {
		fmt.Fprintf(stdout, "  spill dir:   %s\n", cfg.SpillDir)
	}
	if cfg.PublishEveryBatches > 1 {
		// Printed only when enabled so default-config goldens are unchanged.
		fmt.Fprintf(stdout, "  publish every: %d batches\n", cfg.PublishEveryBatches)
	}
	if cfg.PublishMaxAge > 0 {
		// Printed only when enabled so default-config goldens are unchanged.
		fmt.Fprintf(stdout, "  publish max age: %s\n", cfg.PublishMaxAge)
	}
	if *wire != "json" {
		// Printed only when enabled so default-config goldens are unchanged.
		fmt.Fprintf(stdout, "  wire:        %s\n", *wire)
	}

	if *selftest {
		return runSelftest(d, stdout, selftestConfig{
			scenario: *scenName, tenants: *tenants, window: *window,
			estimator: *estimator, seed: *seed, snapshots: *snapshots,
			batch: *batch, estimateEvery: *estEvery, wire: *wire,
		})
	}
	return runServe(d, stdout, serveConfig{
		addr: *addr, scenario: *scenName, tenants: *tenants, window: *window,
		estimator: *estimator, seed: *seed,
	})
}

type serveConfig struct {
	addr      string
	scenario  string
	tenants   int
	window    int
	estimator string
	seed      int64
}

// runServe pre-registers the tenants, serves the HTTP API until SIGTERM or
// SIGINT, then drains: the HTTP server stops accepting, queued ingest
// batches are applied, and one final estimate per warm tenant is flushed
// before the process exits 0.
func runServe(d *serve.Daemon, stdout io.Writer, cfg serveConfig) error {
	if err := registerTenants(d, stdout, cfg.scenario, cfg.tenants, cfg.window, cfg.estimator, cfg.seed); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "tomod: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(stdout, "tomod: signal received, draining\n")

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	finals, err := d.Shutdown(drainCtx)
	if err != nil {
		return err
	}
	printFinals(stdout, finals)
	fmt.Fprintf(stdout, "tomod: shutdown complete\n")
	return nil
}

// registerTenants pre-registers t0..tN-1 from the named scenario.
func registerTenants(d *serve.Daemon, stdout io.Writer, scenario string, n, window int, estimator string, seed int64) error {
	for i := 0; i < n; i++ {
		t, err := d.Register(serve.TenantConfig{
			Name:      fmt.Sprintf("t%d", i),
			Scenario:  scenario,
			Seed:      seed + int64(i),
			Window:    window,
			Estimator: estimator,
		})
		if err != nil {
			return err
		}
		info := d.Tenants()[i]
		fmt.Fprintf(stdout, "tenant %s: scenario %s seed %d (%d paths, %d links), window %d, estimator %s, shard %d\n",
			t.Name(), scenario, seed+int64(i), info.NumPaths, info.NumLinks, window, estimator, info.Shard)
	}
	return nil
}

// printFinals reports the shutdown estimate flush, one line per tenant.
func printFinals(stdout io.Writer, finals []serve.FinalEstimate) {
	flushed := 0
	for _, f := range finals {
		if f.Err != nil {
			fmt.Fprintf(stdout, "final estimate %s: skipped (%v)\n", f.Tenant, f.Err)
			continue
		}
		flushed++
		fmt.Fprintf(stdout, "final estimate %s: %s over %d/%d snapshots, %d links, %d change points\n",
			f.Tenant, f.Response.Estimator, f.Response.WindowLen, f.Response.WindowSize,
			len(f.Response.CongestionProb), f.Response.ChangePoints)
	}
	fmt.Fprintf(stdout, "final estimates flushed: %d/%d\n", flushed, len(finals))
}

type selftestConfig struct {
	scenario      string
	tenants       int
	window        int
	estimator     string
	seed          int64
	snapshots     int
	batch         int
	estimateEvery int
	wire          string
}

// runSelftest starts the daemon on an ephemeral port, replays the
// scenario's synthetic probe firehose against it over real HTTP, drains,
// and reports the ingested and served counts and the final estimates —
// all deterministic in the flags.
func runSelftest(d *serve.Daemon, stdout io.Writer, cfg selftestConfig) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.Handler()}
	go srv.Serve(ln)

	report, err := serve.RunFirehose(context.Background(), serve.FirehoseConfig{
		BaseURL:       "http://" + ln.Addr().String(),
		Scenario:      cfg.scenario,
		Seed:          cfg.seed,
		Tenants:       cfg.tenants,
		Snapshots:     cfg.snapshots,
		Batch:         cfg.batch,
		Window:        cfg.window,
		Estimator:     cfg.estimator,
		EstimateEvery: cfg.estimateEvery,
		Wire:          cfg.wire,
	})
	if err != nil {
		return err
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	finals, err := d.Shutdown(drainCtx)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "selftest: scenario %s, %d tenants x %d snapshots (batch %d, estimate every %d batches)\n",
		report.Scenario, report.Tenants, report.SnapshotsPerTenant, report.Batch, cfg.estimateEvery)
	fmt.Fprintf(stdout, "selftest: ingested %d snapshots, served %d estimates\n",
		report.SnapshotsIngested, report.Estimates)
	printFinals(stdout, finals)
	return nil
}
