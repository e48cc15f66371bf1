package measure

import (
	"repro/internal/bitset"
	"repro/internal/snapstore"
)

// columnBackend is the read-only counting seam an Empirical estimator
// queries: path-major bit columns and their count kernels. Windows and
// streaming estimators count on their segstore.TieredStore, snapshot views
// on a segstore.TieredView, and record-backed estimators on the record's
// fixed snapstore.Store through recordColumns. The estimator's
// probabilities are pure functions of the integer counts returned here, so
// any two backends holding the same rows produce bit-identical estimates.
type columnBackend interface {
	NumSeries() int
	Snapshots() int
	// Capacity is the sliding-window size, 0 for an unbounded source.
	Capacity() int
	RowInto(t int, dst *bitset.Set)
	CongestedCount(i int) int
	// CountAllGood counts the snapshots in which none of the given series
	// was congested; any scratch it needs is its own.
	CountAllGood(series []int) int
	CountPairGood(i, j int) int
	CountPairsGood(pairs []Pair, out []int)
	Close()
}

// recordColumns adapts a record's fixed snapstore.Store to the backend
// seam, owning the OR-reduction scratch and the count workspace the store's
// kernels take as arguments.
type recordColumns struct {
	store   *snapstore.Store
	scratch []uint64
	ws      snapstore.CountWorkspace
}

func (rc *recordColumns) NumSeries() int                 { return rc.store.NumSeries() }
func (rc *recordColumns) Snapshots() int                 { return rc.store.Snapshots() }
func (rc *recordColumns) Capacity() int                  { return 0 }
func (rc *recordColumns) RowInto(t int, dst *bitset.Set) { rc.store.RowInto(t, dst) }
func (rc *recordColumns) CongestedCount(i int) int       { return rc.store.CongestedCount(i) }
func (rc *recordColumns) Close()                         {}

func (rc *recordColumns) CountAllGood(series []int) int {
	if w := rc.store.Words(); cap(rc.scratch) < w {
		rc.scratch = make([]uint64, w)
	}
	return rc.store.CountAllGood(series, rc.scratch)
}

// CountPairGood is the two-column fused OR+POPCNT — the per-pair miss path
// behind the pair cache.
func (rc *recordColumns) CountPairGood(i, j int) int {
	return rc.store.Snapshots() - bitset.OrPopCountWords(rc.store.Column(i), rc.store.Column(j))
}

func (rc *recordColumns) CountPairsGood(pairs []Pair, out []int) {
	rc.store.CountPairsGoodWS(&rc.ws, pairs, out)
}
