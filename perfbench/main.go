// Command perfbench is the repository's benchmark. It runs one workload
// against the library facade and the in-process serving daemon, checks the
// outputs bit-for-bit against the offline replay, and prints its metrics
// as the last line of standard output:
//
//	perfbench --workload replay|ingest|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics (metrics.go); with
// --trace 1 it replays the workload's inputs through each layer's public
// calls inside recorded spans and prints the per-layer metrics. Earlier
// lines carry the machine block, host steal, and the traced run's layer
// shares. run.sh builds it from the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/benchmeta"
)

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	workdir  string // scratch for this run, removed at exit
	outdir   string // build directory; span dumps stay here

	ops     tally
	wrong   []string // output-check failures
	metrics map[string]float64
	notes   map[string]any
	// lateness holds the load generator's lateness per operation in the
	// last untraced phase: send time minus due time in an open loop, the
	// gap since the previous operation returned in a closed one.
	lateness latencies
}

// fail records an output-check failure; it also counts as a failed
// operation.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.wrong = append(r.wrong, msg)
	r.ops.note(fmt.Errorf("%s", msg))
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// setDefault sets a metric only if no earlier phase of the run did.
func (r *run) setDefault(name string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.metrics[name] = v
	}
}

func (r *run) note(key string, v any) { r.notes[key] = v }

// enough reports whether a timed phase that started at start and should
// last d has measured enough: after d, and once want samples exist for the
// percentile rule (a slower program still reports, it just runs longer),
// but never past 3·d.
func enough(start time.Time, d time.Duration, samples, want int) bool {
	el := time.Since(start)
	return el >= 3*d || (el >= d && samples >= want)
}

type workload struct {
	why   string
	run   func(*run) error
	trace func(*run) error
}

// workloads lists every runnable workload. BENCHMARK.json declares replay
// and ingest only: serve's tail latencies follow the hypervisor's steal
// (two runs in ten at 12–17 % steal lifted its p90s 50–100 %), wider than
// the largest bound a declared metric may have, so it is run by hand.
var workloads = map[string]workload{
	"replay": {why: replayWhy, run: runReplay, trace: traceReplay},
	"ingest": {why: ingestWhy, run: runIngest, trace: traceIngest},
	"serve":  {why: serveWhy, run: runServe, trace: traceServe},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: replay, ingest or serve")
	seed := flag.Int64("seed", 1, "input seed: equal seeds give equal inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per timed phase")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	workdir := flag.String("workdir", ".bench_build", "directory for spill segments and span dumps")
	flag.Parse()
	if err := benchmain(*name, *seed, *seconds, *traced, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmain(name string, seed int64, seconds, traced int, workdir string) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want replay, ingest or serve)", name)
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1")
	}
	r := &run{
		workload: name, seed: seed, seconds: time.Duration(seconds) * time.Second,
		workdir: filepath.Join(workdir, fmt.Sprintf("run-%s-%d", name, os.Getpid())), outdir: workdir,
		metrics: map[string]float64{}, notes: map[string]any{},
	}
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.workdir)
	probe0 := hostProbe()
	cpu0 := readCPUTimes()
	fn, defs := w.run, endToEnd
	if traced == 1 {
		fn, defs = w.trace, perLayer
	}
	if err := fn(r); err != nil {
		return err
	}
	steal := stealPct(cpu0, readCPUTimes())
	if traced == 1 {
		r.set("host.steal_pct", steal)
	}

	info := map[string]any{
		"workload": name, "why": w.why, "seed": seed, "seconds": seconds, "trace": traced,
		"machine": benchmeta.Collect(), "host_steal_pct": steal, "notes": r.notes,
		"host_probe_ms": []float64{probe0, hostProbe()},
	}
	if len(r.ops.errs) > 0 {
		info["failures"] = r.ops.errs
	}
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	out := resultLine{Correct: len(r.wrong) == 0 && r.ops.failed == 0, Attempted: r.ops.attempted, Failed: r.ops.failed, Metrics: map[string]metricOut{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%s run measured no %s", name, strings.Join(missing, ", "))
	}
	if out.Attempted < 1 {
		return fmt.Errorf("%s run attempted no operation", name)
	}
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
