package lp

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

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
// workspace has solved a replay-shaped program, solving it again must
// allocate nothing — tableau, pricing lists and solution buffers are all
// reused.
func TestL1SolveSteadyStateAllocs(t *testing.T) {
	s := replaySystems(t)[0]
	ws := new(Workspace)
	if _, err := ws.MinimizeL1ResidualNonPositive(s.a, s.y); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		_, err = ws.MinimizeL1ResidualNonPositive(s.a, s.y)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm MinimizeL1ResidualNonPositive: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkL1Solve times one warm L1 completion of a captured replay system.
func BenchmarkL1Solve(b *testing.B) {
	s := replaySystems(b)[0]
	ws := new(Workspace)
	if _, err := ws.MinimizeL1ResidualNonPositive(s.a, s.y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.MinimizeL1ResidualNonPositive(s.a, s.y); err != nil {
			b.Fatal(err)
		}
	}
}
