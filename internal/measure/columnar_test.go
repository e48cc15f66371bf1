package measure

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// rowMajorRef is the pre-columnar reference implementation: estimates
// computed by scanning row-major snapshots. The property tests pin the
// columnar Empirical bit-identical to it.
type rowMajorRef struct {
	numPaths int
	rows     []*bitset.Set
}

func (r *rowMajorRef) probPathsGood(paths *bitset.Set) float64 {
	hits := 0
	for _, s := range r.rows {
		if !s.Intersects(paths) {
			hits++
		}
	}
	return float64(hits) / float64(len(r.rows))
}

func (r *rowMajorRef) probExactCongested(paths *bitset.Set) float64 {
	hits := 0
	for _, s := range r.rows {
		if s.Equal(paths) {
			hits++
		}
	}
	return float64(hits) / float64(len(r.rows))
}

func (r *rowMajorRef) pathCongestionFrequency() []float64 {
	out := make([]float64, r.numPaths)
	for _, s := range r.rows {
		s.ForEach(func(i int) bool {
			out[i]++
			return true
		})
	}
	for i := range out {
		out[i] /= float64(len(r.rows))
	}
	return out
}

// snapshotRows materializes snapshots [0, n) through at, oldest first.
func snapshotRows(n int, at func(t int) *bitset.Set) []*bitset.Set {
	rows := make([]*bitset.Set, n)
	for t := range rows {
		rows[t] = at(t)
	}
	return rows
}

// randomRecord draws a random row-major record and wraps it both ways.
func randomRecord(rng *rand.Rand, numPaths, n int) (*rowMajorRef, *Empirical) {
	rows := make([]*bitset.Set, n)
	for t := range rows {
		s := bitset.New(numPaths)
		for i := 0; i < numPaths; i++ {
			if rng.Intn(4) == 0 {
				s.Add(i)
			}
		}
		rows[t] = s
	}
	emp, err := NewEmpirical(netsim.NewRecordFromRows(numPaths, rows))
	if err != nil {
		panic(err)
	}
	return &rowMajorRef{numPaths: numPaths, rows: rows}, emp
}

// TestColumnarMatchesRowMajorReference is the refactor's pinning property:
// on random records, every columnar estimate equals the row-major scan
// exactly (same integer counts, same division — bit-identical floats).
func TestColumnarMatchesRowMajorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		numPaths := 1 + rng.Intn(90)
		n := 1 + rng.Intn(400)
		ref, emp := randomRecord(rng, numPaths, n)

		if emp.NumPaths() != numPaths || emp.Snapshots() != n {
			t.Fatalf("trial %d: shape %d×%d, want %d×%d",
				trial, emp.NumPaths(), emp.Snapshots(), numPaths, n)
		}
		for q := 0; q < 60; q++ {
			query := bitset.New(numPaths)
			for i := 0; i < numPaths; i++ {
				if rng.Intn(numPaths/3+1) == 0 {
					query.Add(i)
				}
			}
			got, want := emp.ProbPathsGood(query), ref.probPathsGood(query)
			if got != want {
				t.Fatalf("trial %d: ProbPathsGood(%v) = %v, want %v (row-major)", trial, query, got, want)
			}
			// Second query must hit the caches and stay identical.
			if again := emp.ProbPathsGood(query); again != want {
				t.Fatalf("trial %d: cached ProbPathsGood(%v) = %v, want %v", trial, query, again, want)
			}
			gotP, wantP := emp.ProbExactCongestedPaths(query), ref.probExactCongested(query)
			if gotP != wantP {
				t.Fatalf("trial %d: ProbExactCongestedPaths(%v) = %v, want %v", trial, query, gotP, wantP)
			}
		}
		gotF, wantF := emp.PathCongestionFrequency(), ref.pathCongestionFrequency()
		for i := range wantF {
			if gotF[i] != wantF[i] {
				t.Fatalf("trial %d: PathCongestionFrequency[%d] = %v, want %v", trial, i, gotF[i], wantF[i])
			}
		}
		// The Source pair answers must agree with the generic route.
		for q := 0; q < 30; q++ {
			i := topology.PathID(rng.Intn(numPaths))
			j := topology.PathID(rng.Intn(numPaths))
			if got, want := emp.ProbPathGood(i), ref.probPathsGood(bitset.FromIndices(int(i))); got != want {
				t.Fatalf("trial %d: ProbPathGood(%d) = %v, want %v", trial, i, got, want)
			}
			if got, want := emp.ProbPairGood(i, j), ref.probPathsGood(bitset.FromIndices(int(i), int(j))); got != want {
				t.Fatalf("trial %d: ProbPairGood(%d,%d) = %v, want %v", trial, i, j, got, want)
			}
		}
	}
}

// TestColumnarMatchesRowMajorUnderParallelSimulation runs the real simulator
// with a parallel worker pool (racing block writers under -race) and pins
// the columnar estimates to a row-major scan of the same record.
func TestColumnarMatchesRowMajorUnderParallelSimulation(t *testing.T) {
	top := topology.Figure1A()
	rec, err := netsim.Run(netsim.Config{
		Topology: top, Model: fig1aTable(t), Snapshots: 3000, Seed: 12,
		Mode: netsim.StateLevel, Parallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	emp, err := NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	ref := &rowMajorRef{numPaths: top.NumPaths(), rows: snapshotRows(rec.Snapshots(), rec.PathSnapshot)}
	for mask := 0; mask < 8; mask++ {
		q := bitset.New(3)
		for b := 0; b < 3; b++ {
			if mask&(1<<b) != 0 {
				q.Add(b)
			}
		}
		if got, want := emp.ProbPathsGood(q), ref.probPathsGood(q); got != want {
			t.Fatalf("ProbPathsGood(%v) = %v, want %v", q, got, want)
		}
		if got, want := emp.ProbExactCongestedPaths(q), ref.probExactCongested(q); got != want {
			t.Fatalf("ProbExactCongestedPaths(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestNewEmpiricalEmptyRecord is the regression test for the NaN bug: an
// empty record used to produce 0/0 estimates; now construction fails.
func TestNewEmpiricalEmptyRecord(t *testing.T) {
	if _, err := NewEmpirical(nil); err == nil {
		t.Fatal("nil record accepted")
	}
	if _, err := NewEmpirical(&netsim.Record{}); err == nil {
		t.Fatal("record without a store accepted")
	}
	empty := netsim.NewRecordFromRows(3, nil)
	if _, err := NewEmpirical(empty); err == nil {
		t.Fatal("empty record accepted; estimates would be NaN")
	}
}

// TestStreamingEmptyQueriesAreNotNaN guards the streaming estimator the
// same way: before the first Append, probabilities are 0 (empty set: 1),
// never NaN.
func TestStreamingEmptyQueriesAreNotNaN(t *testing.T) {
	e := NewStreaming(4)
	if got := e.ProbPathsGood(bitset.New(0)); got != 1 {
		t.Fatalf("P(∅ good) on empty stream = %v, want 1", got)
	}
	for _, got := range []float64{
		e.ProbPathsGood(bitset.FromIndices(0)),
		e.ProbPathsGood(bitset.FromIndices(0, 2)),
		e.ProbPathsGood(bitset.FromIndices(0, 1, 2)),
		e.ProbPathGood(1),
		e.ProbPairGood(1, 3),
		e.ProbExactCongestedPaths(bitset.FromIndices(0)),
	} {
		if math.IsNaN(got) || got != 0 {
			t.Fatalf("empty-stream estimate = %v, want 0", got)
		}
	}
	for _, f := range e.PathCongestionFrequency() {
		if f != 0 {
			t.Fatalf("empty-stream frequency = %v, want 0", f)
		}
	}
}

// TestStreamingMatchesBatch pins streaming ingestion to batch construction:
// appending the record's snapshots one at a time — with interleaved queries
// that exercise cache invalidation and the incremental pattern histogram —
// ends in estimates identical to a one-shot batch over the same data.
func TestStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	numPaths, n := 23, 500
	ref, batch := randomRecord(rng, numPaths, n)

	stream := NewStreaming(numPaths)
	for tt, row := range ref.rows {
		stream.Append(row)
		if tt%97 == 0 {
			// Mid-stream queries must reflect exactly the prefix seen so far.
			q := bitset.FromIndices(tt % numPaths)
			prefix := &rowMajorRef{numPaths: numPaths, rows: ref.rows[:tt+1]}
			if got, want := stream.ProbPathsGood(q), prefix.probPathsGood(q); got != want {
				t.Fatalf("after %d appends: ProbPathsGood = %v, want %v", tt+1, got, want)
			}
			if got, want := stream.ProbExactCongestedPaths(q), prefix.probExactCongested(q); got != want {
				t.Fatalf("after %d appends: ProbExactCongestedPaths = %v, want %v", tt+1, got, want)
			}
		}
	}

	if stream.Snapshots() != batch.Snapshots() {
		t.Fatalf("stream has %d snapshots, batch %d", stream.Snapshots(), batch.Snapshots())
	}
	for q := 0; q < 80; q++ {
		query := bitset.New(numPaths)
		for i := 0; i < numPaths; i++ {
			if rng.Intn(6) == 0 {
				query.Add(i)
			}
		}
		if got, want := stream.ProbPathsGood(query), batch.ProbPathsGood(query); got != want {
			t.Fatalf("ProbPathsGood(%v): stream %v, batch %v", query, got, want)
		}
		if got, want := stream.ProbExactCongestedPaths(query), batch.ProbExactCongestedPaths(query); got != want {
			t.Fatalf("ProbExactCongestedPaths(%v): stream %v, batch %v", query, got, want)
		}
	}
}

// TestAppendRejectsRecordBackedEstimator: a record-backed Empirical aliases
// the record's path store; appending there would desync the record's link
// store, so it must panic instead.
func TestAppendRejectsRecordBackedEstimator(t *testing.T) {
	_, emp := randomRecord(rand.New(rand.NewSource(7)), 4, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("Append on a record-backed estimator must panic")
		}
	}()
	emp.Append(bitset.FromIndices(1))
}
