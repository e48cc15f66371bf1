// Command tomo runs the full tomography pipeline: it obtains a measurement
// scenario — either synthesized over a JSON topology (from cmd/topogen) or a
// named scenario from the registry (-scenario; see -list-scenarios) —
// simulates end-to-end measurements (time-evolving for dynamic scenarios),
// compiles the topology into an inference plan, runs the selected
// estimator(s) among tomography.EstimatorNames, and prints per-link true vs
// inferred congestion probabilities as text or JSON.
//
// Usage:
//
//	topogen -family brite -ases 60 -paths 300 | tomo -frac 0.1 -snapshots 2000
//	tomo -topology pl.json -estimator correlation,independence -summary
//	tomo -scenario flash-crowd -snapshots 4000 -summary
//	tomo -scenario quickstart -json
//	tomo -list-scenarios
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	tomography "repro"
	"repro/internal/profiling"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tomo:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: flags in, report out. Usage and flag-parse
// errors go to stderr; -h is not an error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	estimators := strings.Join(tomography.EstimatorNames(), " | ")
	fs := flag.NewFlagSet("tomo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topoPath  = fs.String("topology", "-", "topology JSON file ('-' = stdin)")
		scenName  = fs.String("scenario", "", "named scenario from the registry (overrides -topology/-frac/-loose); see -list-scenarios")
		listScen  = fs.Bool("list-scenarios", false, "list the named scenarios and exit")
		frac      = fs.Float64("frac", 0.10, "fraction of links congested in the synthetic scenario")
		loose     = fs.Bool("loose", false, "loose correlation (≤2 congested links per correlation set)")
		snapshots = fs.Int("snapshots", 2000, "number of measurement snapshots")
		seed      = fs.Int64("seed", 1, "seed for scenario and simulation")
		estimator = fs.String("estimator", "", "registered estimator(s), comma-separated: "+estimators+" (also: both = correlation,independence)")
		packet    = fs.Bool("packet-level", false, "simulate probe packets and loss rates")
		storeDir  = fs.String("store-dir", "", "spill measurement columns to checksummed segment files under this directory (out-of-core; existing contents are replaced). Estimates are bit-identical to the in-RAM run")
		summary   = fs.Bool("summary", false, "print error summary instead of the per-link table")
		topN      = fs.Int("top", 0, "print only the N links with the highest inferred congestion probability")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON instead of text")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(stderr, "tomo:", perr)
		}
	}()

	if *listScen {
		listScenarios(stdout)
		return nil
	}

	names, err := resolveEstimators(*estimator)
	if err != nil {
		return err
	}

	scn, err := buildScenario(*scenName, *topoPath, *frac, *loose, *seed, stdin)
	if err != nil {
		return err
	}
	top := scn.Topology

	mode := tomography.StateLevel
	if *packet {
		mode = tomography.PacketLevel
	}
	src, err := simulateSource(scn, *snapshots, *seed, mode, *storeDir)
	if err != nil {
		return err
	}
	defer src.Close()

	// One compiled plan serves every selected estimator.
	plan, err := tomography.Compile(top, tomography.PlanOptions{Lazy: true})
	if err != nil {
		return err
	}

	var runs []estimatorRun
	for _, name := range names {
		opts := tomography.EstimateOptions{}
		if name == "independence" {
			// The Nguyen–Thiran baseline uses all its observations in a
			// least-squares fit (the historical tomo behavior).
			opts.Algorithm.UseAllEquations = true
		}
		res, err := tomography.Estimate(name, plan, src, opts)
		if err != nil {
			return err
		}
		runs = append(runs, estimatorRun{res.Estimator, res.CongestionProb})
	}

	if *jsonOut {
		return emitJSON(stdout, scn, *snapshots, runs)
	}

	if *summary {
		for _, r := range runs {
			errs := tomography.AbsErrors(scn.Truth, r.probs, scn.PotentiallyCongested)
			fmt.Fprintf(stdout, "%-13s mean=%.4f p90=%.4f frac<=0.1=%.1f%% (over %d potentially congested links)\n",
				r.name, tomography.Mean(errs), tomography.Percentile(errs, 90),
				100*tomography.FracBelow(errs, 0.1), len(errs))
		}
		return nil
	}

	// Per-link table, optionally limited to the top-N inferred.
	type row struct {
		link tomography.LinkID
		vals []float64
	}
	rows := make([]row, top.NumLinks())
	for k := range rows {
		rows[k].link = tomography.LinkID(k)
		for _, r := range runs {
			rows[k].vals = append(rows[k].vals, r.probs[k])
		}
	}
	if *topN > 0 {
		sort.Slice(rows, func(i, j int) bool { return rows[i].vals[0] > rows[j].vals[0] })
		if len(rows) > *topN {
			rows = rows[:*topN]
		}
	}
	fmt.Fprintf(stdout, "%-8s %-18s %-10s", "link", "name", "truth")
	for _, r := range runs {
		fmt.Fprintf(stdout, " %-13s", r.name)
	}
	fmt.Fprintln(stdout)
	for _, rw := range rows {
		l := top.Link(rw.link)
		fmt.Fprintf(stdout, "%-8d %-18s %-10.4f", rw.link, l.Name, scn.Truth[rw.link])
		for _, v := range rw.vals {
			fmt.Fprintf(stdout, " %-13.4f", v)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// simulateSource simulates the scenario's measurements and returns the
// estimation source. With storeDir empty everything lives in RAM (a record
// plus a batch Empirical over it); with storeDir set the observations go to
// an out-of-core spill window sized to hold every snapshot — dynamic
// scenarios stream straight from the simulator with no record in RAM, static
// ones replay their record through it. Both sources hold identical retained
// rows, so the estimates (and the printed report) are bit-identical.
func simulateSource(scn *tomography.Scenario, snapshots int, seed int64, mode tomography.SimMode, storeDir string) (*tomography.Empirical, error) {
	if storeDir == "" {
		var rec *tomography.Record
		var err error
		if scn.Process != nil {
			rec, err = tomography.SimulateDynamic(tomography.DynamicSimConfig{
				Topology: scn.Topology, Process: scn.Process, Snapshots: snapshots, Seed: seed + 99, Mode: mode,
			})
		} else {
			rec, err = tomography.Simulate(tomography.SimConfig{
				Topology: scn.Topology, Model: scn.Model, Snapshots: snapshots, Seed: seed + 99, Mode: mode,
			})
		}
		if err != nil {
			return nil, err
		}
		return tomography.NewEmpirical(rec)
	}
	emp, err := tomography.NewSlidingWindowSpill(scn.Topology.NumPaths(), snapshots,
		tomography.SpillConfig{Dir: storeDir, Reset: true})
	if err != nil {
		return nil, err
	}
	if scn.Process != nil {
		err = tomography.SimulateDynamicStream(tomography.DynamicSimConfig{
			Topology: scn.Topology, Process: scn.Process, Snapshots: snapshots, Seed: seed + 99, Mode: mode,
			OnSnapshot: func(_ int, congested *tomography.PathSet) { emp.Append(congested) },
		})
	} else {
		var rec *tomography.Record
		rec, err = tomography.Simulate(tomography.SimConfig{
			Topology: scn.Topology, Model: scn.Model, Snapshots: snapshots, Seed: seed + 99, Mode: mode,
		})
		if err == nil {
			for ts := 0; ts < rec.Snapshots(); ts++ {
				emp.Append(rec.PathSnapshot(ts))
			}
		}
	}
	if err != nil {
		emp.Close()
		return nil, err
	}
	return emp, nil
}

// buildScenario resolves the scenario source: the named registry when
// -scenario is set, otherwise a synthetic scenario over a JSON topology.
func buildScenario(name, topoPath string, frac float64, loose bool, seed int64, stdin io.Reader) (*tomography.Scenario, error) {
	if name != "" {
		return tomography.BuildScenario(name, seed)
	}
	top, err := loadTopology(topoPath, stdin)
	if err != nil {
		return nil, err
	}
	level := tomography.HighCorrelation
	if loose {
		level = tomography.LooseCorrelation
	}
	return tomography.NewScenario(tomography.ScenarioConfig{
		Topology: top, FracCongested: frac, Level: level, Seed: seed,
	})
}

// listScenarios prints the registry as an aligned table.
func listScenarios(w io.Writer) {
	fmt.Fprintf(w, "%-18s %-8s %s\n", "scenario", "kind", "description")
	for _, s := range tomography.Scenarios() {
		kind := "static"
		if s.Dynamic {
			kind = "dynamic"
		}
		fmt.Fprintf(w, "%-18s %-8s %s\n", s.Name, kind, s.Description)
	}
}

// jsonReport is the -json output schema.
type jsonReport struct {
	Scenario   string          `json:"scenario"`
	Dynamic    bool            `json:"dynamic"`
	Snapshots  int             `json:"snapshots"`
	Links      int             `json:"links"`
	Paths      int             `json:"paths"`
	Truth      []float64       `json:"truth"`
	Estimators []jsonEstimator `json:"estimators"`
}

type jsonEstimator struct {
	Name           string    `json:"name"`
	CongestionProb []float64 `json:"congestion_prob"`
	MeanAbsError   float64   `json:"mean_abs_error"`
	P90AbsError    float64   `json:"p90_abs_error"`
	FracBelow01    float64   `json:"frac_abs_error_below_0.1"`
}

// estimatorRun is one estimator's output within a tomo invocation.
type estimatorRun struct {
	name  string
	probs []float64
}

// emitJSON writes the machine-readable report.
func emitJSON(w io.Writer, scn *tomography.Scenario, snapshots int, runs []estimatorRun) error {
	rep := jsonReport{
		Scenario:  scn.Name,
		Dynamic:   scn.Process != nil,
		Snapshots: snapshots,
		Links:     scn.Topology.NumLinks(),
		Paths:     scn.Topology.NumPaths(),
		Truth:     scn.Truth,
	}
	for _, r := range runs {
		errs := tomography.AbsErrors(scn.Truth, r.probs, scn.PotentiallyCongested)
		rep.Estimators = append(rep.Estimators, jsonEstimator{
			Name:           r.name,
			CongestionProb: r.probs,
			MeanAbsError:   tomography.Mean(errs),
			P90AbsError:    tomography.Percentile(errs, 90),
			FracBelow01:    tomography.FracBelow(errs, 0.1),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// resolveEstimators turns the -estimator selection into a list of estimator
// names, validating each against tomography.EstimatorNames.
func resolveEstimators(sel string) ([]string, error) {
	if sel == "" {
		sel = "correlation"
	}
	if sel == "both" {
		sel = "correlation,independence"
	}
	var names []string
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !slices.Contains(tomography.EstimatorNames(), name) {
			return nil, fmt.Errorf("unknown estimator %q (registered: %s)",
				name, strings.Join(tomography.EstimatorNames(), ", "))
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no estimator selected (registered: %s)", strings.Join(tomography.EstimatorNames(), ", "))
	}
	return names, nil
}

func loadTopology(path string, stdin io.Reader) (*tomography.Topology, error) {
	if path == "-" {
		return topology.Decode(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topology.Decode(f)
}
