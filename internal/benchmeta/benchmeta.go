// Package benchmeta collects the machine/runtime metadata every BENCH_*.json
// artifact embeds, so performance numbers recorded across PRs and CI runs
// are interpretable: a kernel speedup means nothing without the core count
// and instruction-set level it was measured at.
package benchmeta

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/segstore"
)

// Machine describes the hardware and runtime configuration of one benchmark
// run.
type Machine struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOAMD64 is the amd64 microarchitecture level the binary was compiled
	// for (v1..v4); it decides whether the popcount kernels lower to bare
	// POPCNT. Empty on other architectures.
	GOAMD64    string `json:"goamd64,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// CPUModel is the "model name" from /proc/cpuinfo; empty where
	// unavailable.
	CPUModel string `json:"cpu_model,omitempty"`
	// PageSize is the OS memory page size in bytes — the mapping granularity
	// of the out-of-core segment store's read path.
	PageSize int `json:"page_size"`
	// Mmap reports whether the segment store's mmap read path is available
	// on this platform (false ⇒ sealed segments are read into the heap).
	Mmap bool `json:"mmap"`
}

// Collect gathers the current process's machine metadata. It never fails:
// fields that cannot be determined are left at their zero value.
func Collect() Machine {
	m := Machine{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		PageSize:   os.Getpagesize(),
		Mmap:       segstore.MmapAvailable(),
	}
	if runtime.GOARCH == "amd64" {
		m.GOAMD64 = goamd64()
	}
	return m
}

// goamd64 resolves the binary's compiled GOAMD64 level: the build info
// records the effective setting (including toolchain defaults); the
// environment is the fallback for stripped binaries.
func goamd64() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	if v := os.Getenv("GOAMD64"); v != "" {
		return v
	}
	return "v1"
}

// cpuModel reads the first "model name" entry from /proc/cpuinfo (Linux;
// empty elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// WriteJSON merges one benchmark's metrics into the artifact at path under
// the benchmark's name, keeping the other benchmarks' entries, and stamps
// the machine metadata every artifact carries so perf numbers across PRs
// are interpretable. The BENCH_JSON_SUFFIX environment variable inserts a
// suffix before ".json" — the CI mechanism that keeps the GOAMD64=v2 and
// =v3 legs in separate artifacts.
func WriteJSON(path, bench string, metrics map[string]float64) error {
	if s := os.Getenv("BENCH_JSON_SUFFIX"); s != "" {
		path = strings.TrimSuffix(path, ".json") + s + ".json"
	}
	all := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		var old map[string]json.RawMessage
		_ = json.Unmarshal(data, &old)
		for k, v := range old {
			all[k] = v
		}
	}
	all[bench] = metrics
	all["machine"] = Collect()
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
