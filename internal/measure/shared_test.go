package measure

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// sharedRecord builds a record long enough to span three record chunks,
// with random query sets over it.
func sharedRecord(rng *rand.Rand, paths, n int) (*netsim.Record, [][]*bitset.Set, []Pair) {
	rows := make([]*bitset.Set, n)
	for t := range rows {
		rows[t] = bitset.New(paths)
		for i := 0; i < paths; i++ {
			if rng.Intn(6) == 0 {
				rows[t].Add(i)
			}
		}
	}
	// Four rounds of distinct three- and four-path sets, so every round's
	// ProbPathsGood misses the memo and counts through CountAllGood.
	rounds := make([][]*bitset.Set, 4)
	for r := range rounds {
		for q := 0; q < 12; q++ {
			s := bitset.New(paths)
			for s.Len() < 3+q%2 {
				s.Add(rng.Intn(paths))
			}
			rounds[r] = append(rounds[r], s)
		}
	}
	var pairs []Pair
	for i := 0; i < paths; i++ {
		pairs = append(pairs, Pair{A: i, B: (i*7 + 3) % paths})
	}
	return netsim.NewRecordFromRows(paths, rows), rounds, pairs
}

// roundBits runs one round of queries — PrimePairs, then the primed pairs,
// the round's sets and the per-path frequencies — and returns the answers'
// bits.
func roundBits(e *Empirical, sets []*bitset.Set, pairs []Pair) []uint64 {
	e.PrimePairs(pairs)
	var out []uint64
	for _, p := range pairs {
		out = append(out, math.Float64bits(e.ProbPairGood(topology.PathID(p.A), topology.PathID(p.B))))
	}
	for _, s := range sets {
		out = append(out, math.Float64bits(e.ProbPathsGood(s)))
	}
	for _, f := range e.PathCongestionFrequency() {
		out = append(out, math.Float64bits(f))
	}
	return out
}

// TestSharedRecordConcurrentEstimators pins that estimators sharing one
// record count independently: two estimators over the same record, queried
// concurrently through every count kernel (CountAllGood behind
// ProbPathsGood, the batched sweep behind PrimePairs), answer bit for bit
// what a lone estimator answers. Run under -race it also checks that they
// share no scratch.
func TestSharedRecordConcurrentEstimators(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rec, rounds, pairs := sharedRecord(rng, 40, 70000)
	lone, err := NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]uint64, len(rounds))
	for r, sets := range rounds {
		want[r] = roundBits(lone, sets, pairs)
	}

	var wg sync.WaitGroup
	mismatch := make(chan int, 2*len(rounds))
	for g := 0; g < 2; g++ {
		e, err := NewEmpirical(rec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r, sets := range rounds {
				if !reflect.DeepEqual(roundBits(e, sets, pairs), want[r]) {
					mismatch <- r
				}
			}
		}()
	}
	wg.Wait()
	close(mismatch)
	for r := range mismatch {
		t.Errorf("round %d: a concurrent estimator disagrees with the lone one", r)
	}
}

// TestCloseLeavesSharedRecord pins that closing an estimator over a record
// releases nothing of the record: another estimator over it, and one made
// after the close, still answer bit for bit as before.
func TestCloseLeavesSharedRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rec, rounds, pairs := sharedRecord(rng, 30, 70000)
	a, err := NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := roundBits(a, rounds[0], pairs)
	a.Close()
	a.Close() // idempotent
	if got := roundBits(b, rounds[0], pairs); !reflect.DeepEqual(got, want) {
		t.Fatal("an estimator over the record changed after another one closed")
	}
	c, err := NewEmpirical(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := roundBits(c, rounds[0], pairs); !reflect.DeepEqual(got, want) {
		t.Fatal("an estimator made after the close disagrees")
	}
	b.Close()
	row := bitset.New(rec.NumPaths())
	for ti := 0; ti < rec.Snapshots(); ti += 997 {
		rec.Paths.RowInto(ti, row)
		if !row.Equal(rec.PathSnapshot(ti)) {
			t.Fatalf("record row %d unreadable after its estimators closed", ti)
		}
	}
}
