package lp

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchmeta"
	"repro/internal/linalg"
)

// replaySystem is one captured L1 completion input.
type replaySystem struct {
	a *linalg.Matrix
	y []float64
}

// replaySystems loads testdata/replay_systems.txt: real inputs of
// MinimizeL1ResidualNonPositive from the windowed correlation estimator,
// A of 135 × 159 (a 135 × 564 simplex tableau).
func replaySystems(tb testing.TB) []replaySystem {
	tb.Helper()
	f, err := os.Open("testdata/replay_systems.txt")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var out []replaySystem
	row := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if fields[0] == "system" {
			m, err1 := strconv.Atoi(fields[1])
			n, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				tb.Fatalf("bad header %q", sc.Text())
			}
			out = append(out, replaySystem{a: linalg.NewMatrix(m, n), y: make([]float64, m)})
			row = 0
			continue
		}
		s := &out[len(out)-1]
		y, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			tb.Fatal(err)
		}
		s.y[row] = y
		for _, fj := range fields[1:] {
			j, err := strconv.Atoi(fj)
			if err != nil {
				tb.Fatal(err)
			}
			s.a.Set(row, j, 1)
		}
		row++
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	if len(out) == 0 {
		tb.Fatal("no systems in testdata/replay_systems.txt")
	}
	return out
}

// TestL1SolveSteadyStateAllocs is the allocation gate of the solver: once a
// workspace has solved the replay-shaped programs, solving them again must
// allocate nothing — tableau, index, pricing lists and solution buffers are
// all reused.
func TestL1SolveSteadyStateAllocs(t *testing.T) {
	systems := replaySystems(t)
	ws := new(Workspace)
	for _, s := range systems {
		if _, err := ws.MinimizeL1ResidualNonPositive(s.a, s.y); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	k := 0
	allocs := testing.AllocsPerRun(20, func() {
		s := systems[k%len(systems)]
		k++
		_, err = ws.MinimizeL1ResidualNonPositive(s.a, s.y)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm MinimizeL1ResidualNonPositive: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkL1Solve times one warm L1 completion of each captured replay
// system: the "indexed" arm is MinimizeL1ResidualNonPositive itself, the
// "dense" arm the oracle solver of oracle_test.go on the same program,
// measured in the same run. The numbers go to BENCH_lp.json at the module
// root.
func BenchmarkL1Solve(b *testing.B) {
	metrics := map[string]float64{}
	for k, s := range replaySystems(b) {
		sys := fmt.Sprintf("system%d", k)
		ws := new(Workspace)
		p := l1NonPositiveProblem(s.a, s.y)
		arms := []struct {
			name  string
			solve func() error
		}{
			{"indexed", func() error {
				_, err := ws.MinimizeL1ResidualNonPositive(s.a, s.y)
				return err
			}},
			{"dense", func() error {
				_, _, err := denseSolve(p)
				return err
			}},
		}
		for _, arm := range arms {
			key := sys + "/" + arm.name
			b.Run(key, func(b *testing.B) {
				if err := arm.solve(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := arm.solve(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				metrics[key+"-ns/op"] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			})
		}
		if x, d := metrics[sys+"/indexed-ns/op"], metrics[sys+"/dense-ns/op"]; x > 0 && d > 0 {
			metrics[sys+"/dense-vs-indexed"] = d / x
			b.Logf("%s (%dx%d): indexed %.3f ms, dense %.3f ms (%.2f×)", sys, s.a.Rows, s.a.Cols, x/1e6, d/1e6, d/x)
		}
	}
	// go test runs a package's benchmarks in the package directory.
	if err := benchmeta.WriteJSON(filepath.Join("..", "..", "BENCH_lp.json"), "BenchmarkL1Solve", metrics); err != nil {
		b.Fatal(err)
	}
}
