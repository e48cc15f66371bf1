package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.child", Start: 15, End: 25, Parent: 1},
		// b and c overlap each other on [50, 60); c also sticks out of
		// the parent, and only its part inside the parent counts.
		{Name: "b", Start: 45, End: 60, Parent: 0},
		{Name: "c", Start: 50, End: 130, Parent: 0},
		{Name: "other", Start: 200, End: 260, Parent: -1},
	}
	got := selfTimes(spans)
	// op: 100 − |[10,40) ∪ [45,100)| = 100 − 30 − 55.
	want := []int64{15, 20, 10, 15, 80, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	byName, wall, ops := breakdown(spans, got, "op")
	if wall != 100 || ops != 1 || byName["a.child"] != 10 || byName["other"] != 0 {
		t.Errorf("breakdown = %v wall %d ops %d", byName, wall, ops)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder(true)
	op := rec.op("op")
	rec.call("child", func() { rec.call("grandchild", func() {}) })
	rec.end(op)
	rec.op("op2")
	if got := rec.spans; got[1].Parent != 0 || got[2].Parent != 1 || got[0].Req != got[2].Req || got[3].Req == got[0].Req {
		t.Errorf("spans = %+v", got)
	}
	off := newRecorder(false)
	off.end(off.op("op"))
	if len(off.spans) != 0 {
		t.Errorf("a disabled recorder kept %d spans", len(off.spans))
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 0, false},
		{20, 0.5, 10, true},
		{99, 0.9, 0, false},
		{100, 0.9, 90, true},
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{0, 0.5, 0, false},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("percentile(n=%d, p=%g) = %v, %v; want %v, ok=%v", tc.n, tc.p, got, err, tc.want, tc.ok)
		}
	}
}

func TestOpenLoopTimesFromDueTimeThroughAStall(t *testing.T) {
	const period = 5 * time.Millisecond
	const stall = 4 * period
	start := time.Now().Add(period)
	ts := openLoop(start, period, start.Add(8*period), nil, func(i int, due time.Time) {
		if i == 2 {
			time.Sleep(stall)
		}
	})
	if len(ts) != 8 {
		t.Fatalf("%d operations, want 8", len(ts))
	}
	for i, tm := range ts {
		if !tm.due.Equal(start.Add(time.Duration(i) * period)) {
			t.Fatalf("op %d due %v, want start+%d·period", i, tm.due, i)
		}
		if tm.sent.Before(tm.due) {
			t.Errorf("op %d sent before it was due", i)
		}
	}
	if ts[2].latency() < stall {
		t.Errorf("stalled op latency %v, want ≥ %v", ts[2].latency(), stall)
	}
	// The stall ends at due(2)+stall = due(6): ops 3..5 were due during it,
	// so each is sent late and its latency counts that wait.
	for i := 3; i <= 5; i++ {
		wantLate := time.Duration(6-i) * period
		if ts[i].lateness() < wantLate || ts[i].latency() < wantLate {
			t.Errorf("op %d lateness %v latency %v, want both ≥ %v", i, ts[i].lateness(), ts[i].latency(), wantLate)
		}
	}
}

func TestRefusedRequestCountsAsFailed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("tenant") == "busy" {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"serve: shard queue full"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"accepted":64}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	var ops tally
	if n, err := c.post("ok", []byte("{}"), "application/json"); !ops.note(err) || n != 64 {
		t.Fatalf("202 reply: accepted %d, err %v", n, err)
	}
	if _, err := c.post("busy", []byte("{}"), "application/json"); ops.note(err) {
		t.Fatal("a 429 reply counted as a success")
	}
	if ops.attempted != 2 || ops.failed != 1 {
		t.Errorf("attempted %d failed %d, want 2 and 1", ops.attempted, ops.failed)
	}
}

func TestCoverageCheckpointIsOldestNewlyCoveredWrite(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	c := &coverage{covered: 100}
	c.wrote(at(0), 164)
	c.wrote(at(10), 228)
	c.wrote(at(20), 292)
	if d, ok := c.read(228, at(30)); !ok || d != 30*time.Millisecond {
		t.Errorf("first read = %v, %v; want 30ms from the first write", d, ok)
	}
	if _, ok := c.read(228, at(40)); ok {
		t.Error("a read covering nothing new reported a checkpoint")
	}
	if d, ok := c.read(292, at(45)); !ok || d != 25*time.Millisecond {
		t.Errorf("second read = %v, %v; want 25ms from the third write", d, ok)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables and the
// benchmark's declaration in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) < 2 {
		t.Errorf("BENCHMARK.json declares %d workloads, want at least 2", len(decl.Workloads))
	}
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not run", w.Name)
		}
	}
	for _, tc := range []struct {
		name string
		decl []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(tc.decl) != len(tc.defs) {
			t.Errorf("%s: %d declared, %d measured", tc.name, len(tc.decl), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			if got := tc.decl[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s[%d] = %+v, benchmark measures %s %s %s", tc.name, i, got, d.name, d.unit, d.better)
			}
		}
	}
}
