package measure

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"sync"

	"repro/internal/bitset"
	"repro/internal/congestion"
	"repro/internal/netsim"
	"repro/internal/segstore"
	"repro/internal/topology"
)

// Source provides the single-path and path-pair good-frequencies of Eqs.
// 9–10: the only measurements the Section-4 algorithm, the independence
// baseline and the composite-likelihood estimator read.
type Source interface {
	// NumPaths returns the number of paths in the underlying experiment.
	NumPaths() int
	// ProbPathGood returns P(path i good).
	ProbPathGood(i topology.PathID) float64
	// ProbPairGood returns P(paths i and j both good).
	ProbPairGood(i, j topology.PathID) float64
	// PrimePairs tells the source every pair an estimate is about to query,
	// so that it can resolve them in one pass over its storage. Values are
	// identical to per-pair ProbPairGood lookups.
	PrimePairs(pairs []Pair)
}

// Pair identifies one unordered pair of paths for the batched count kernels.
type Pair = segstore.Pair

// PatternSource provides exact congested-pattern probabilities, the
// measurement of the Appendix-A theorem algorithm (Eq. 18).
type PatternSource interface {
	// NumPaths returns the number of paths in the underlying experiment.
	NumPaths() int
	// ProbExactCongestedPaths returns P(the set of congested paths equals
	// exactly the given set).
	ProbExactCongestedPaths(paths *bitset.Set) float64
}

// cache-size caps: when a memo map outgrows its cap it is reset wholesale.
// The workloads that hit the caches (equation building, repeated estimation
// rounds on a stream) re-query a bounded set of keys, so resets are rare and
// a full LRU chain is not worth its overhead.
const (
	maxMemoEntries = 1 << 17
	maxPairEntries = 1 << 19
)

// Empirical estimates probabilities as frequencies over columnar snapshot
// observations. Queries run on path-major bit columns: P(path set all
// good) is an OR of the set's columns plus a popcount, O(snapshots/64 ·
// |paths|) with sequential memory access.
//
// Repeated queries are memoized: single-path and pair probabilities (the
// bulk of the equation selection's lookups) in dedicated caches, arbitrary path sets
// in a bounded memo keyed by the set's content key. All methods are safe for
// concurrent use, except Append which must not run concurrently with
// queries or other Appends.
type Empirical struct {
	// cols holds the columns every query counts on. The estimator is a
	// pure function of the integer counts cols returns, so any two
	// estimators over the same rows are bit-identical, whatever holds the
	// rows: a record, a window or a view.
	cols *segstore.Columns
	// store is the chunked window store of an estimator that accepts
	// appends (NewStreaming, NewSlidingWindow, NewSlidingWindowSpill);
	// cols is then the store's own columns. It is nil for record-backed
	// estimators, whose cols is a clone of the record's immutable path
	// columns (its own count scratch over the record's shared chunks,
	// never released by Close), and for views.
	store *segstore.TieredStore
	// view is set on an immutable snapshot view built by SnapshotView: a
	// frozen copy of another estimator's window that answers every query
	// bit-identically but rejects all mutation; cols is then the view's
	// columns. Views are what the serving layer's estimate replicas read
	// while the source keeps appending.
	view *segstore.TieredView

	mu     sync.Mutex
	single []float64          // per-path P(good); NaN = not yet computed
	pairs  map[int64]float64  // i*NumPaths+j (i<j) → P(both good)
	memo   map[string]float64 // path-set key → P(all good), for |set| > 2
	// patterns is the congested-pattern histogram (pattern key → snapshot
	// count). nil until a PatternSource query materializes it; maintained
	// incrementally by Append (and Evict, for sliding windows) afterwards.
	// Counts are boxed so the steady-state increment/decrement of a known
	// pattern is a pure map read — no per-Append key-string allocation.
	patterns map[string]*int
	// deadPatterns counts histogram entries currently at zero (see
	// maxDeadPatterns).
	deadPatterns int
	// evictScratch receives the evicted row of a sliding-window Append so
	// the pattern histogram can forget it incrementally.
	evictScratch *bitset.Set
	// rowBuf is Append's packed word row, ⌈paths/64⌉ words.
	rowBuf []uint64
	// keyBuf is the reusable pattern-key encoding buffer (histogram lookups
	// use the zero-copy m[string(buf)] form).
	keyBuf []byte
	// pairBuf/pairCounts are the batched-pair-kernel scratch of PrimePairs.
	pairBuf    []Pair
	pairCounts []int
	// idxBuf is the reusable index buffer of ProbPathsGood's general case.
	idxBuf []int
}

// NewEmpirical wraps a simulation record. It returns an error for a nil or
// empty record: zero snapshots admit no frequency estimates (every query
// would be 0/0). Any number of estimators may share one record; each
// counts on its own clone of the record's columns.
func NewEmpirical(rec *netsim.Record) (*Empirical, error) {
	if rec == nil || rec.Paths == nil {
		return nil, fmt.Errorf("measure: nil record")
	}
	if rec.Snapshots() == 0 {
		return nil, fmt.Errorf("measure: record has no snapshots; estimates would be 0/0")
	}
	return newEmpirical(rec.Paths.Clone()), nil
}

// NewSlidingWindowSpill is NewSlidingWindow with the window's sealed
// chunks spilled to disk (segstore.TieredStore with opts.Dir): appended
// snapshots accumulate in a RAM buffer that is sealed to mmap-backed disk
// segments, and count queries sweep the mapped segments plus the buffer.
// Estimates are bit-identical to NewSlidingWindow over the same rows; what
// changes is that window no longer has to fit in RAM. Append-side disk
// failures panic with a "segstore:" message; see segstore.TieredStore.
func NewSlidingWindowSpill(numPaths, window int, opts segstore.Options) (*Empirical, error) {
	if window <= 0 {
		return nil, fmt.Errorf("measure: sliding window size = %d, want > 0", window)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("measure: spill window needs a directory (Options.Dir)")
	}
	return newWindowed(numPaths, window, opts)
}

// NewStreaming returns an empty streaming estimator over numPaths paths.
// Feed it snapshots with Append and query at any point; until the first
// Append every probability is reported as 0 (and the empty-set probability
// as 1), never NaN.
func NewStreaming(numPaths int) *Empirical {
	e, err := newWindowed(max(numPaths, 0), 0, segstore.Options{})
	if err != nil {
		panic(err)
	}
	return e
}

// NewSlidingWindow returns an empty streaming estimator whose estimates
// cover only the most recent window snapshots: Append past the window
// capacity evicts the oldest snapshot from every count and from the pattern
// histogram. At any moment the estimator is bit-identical to a one-shot
// batch estimator over the retained rows — the windowed==batch equivalence
// the online inference layer (tomography.Window) builds on.
func NewSlidingWindow(numPaths, window int) (*Empirical, error) {
	if window <= 0 {
		return nil, fmt.Errorf("measure: sliding window size = %d, want > 0", window)
	}
	return newWindowed(numPaths, window, segstore.Options{})
}

// newWindowed builds an estimator that owns a chunked window store
// retaining at most window snapshots (0: all of them).
func newWindowed(numPaths, window int, opts segstore.Options) (*Empirical, error) {
	ts, err := segstore.NewTiered(numPaths, window, opts)
	if err != nil {
		return nil, err
	}
	e := newEmpirical(&ts.Columns)
	e.store = ts
	e.evictScratch = bitset.New(numPaths)
	e.rowBuf = make([]uint64, (numPaths+63)/64)
	return e, nil
}

func newEmpirical(cols *segstore.Columns) *Empirical {
	return &Empirical{
		cols:  cols,
		pairs: make(map[int64]float64),
		memo:  make(map[string]float64),
	}
}

// SpillStore exposes the window store of a spill-backed estimator
// (read-only), or nil for a RAM-resident one.
func (e *Empirical) SpillStore() *segstore.TieredStore {
	if e.store == nil || e.store.Dir() == "" {
		return nil
	}
	return e.store
}

// mutable panics unless the estimator accepts appends.
func (e *Empirical) mutable(op string) {
	if e.view != nil {
		panic("measure: " + op + " on an immutable snapshot view (SnapshotView)")
	}
	if e.store == nil {
		panic("measure: Append requires a streaming estimator (NewStreaming); record-backed estimators are read-only views")
	}
}

// Append ingests one more snapshot (the set of congested paths) as a
// one-row AppendBatchWords: the set is packed into a zero-padded row of
// ⌈paths/64⌉ words. On a sliding-window estimator a full window first
// evicts its oldest snapshot — from the columns and from the pattern
// histogram — and the probability caches are reset. Append must not run
// concurrently with queries, and panics on a record-backed estimator
// (whose store is a read-only view of the record — appending there would
// desync the record's link store) and on a path index out of range.
func (e *Empirical) Append(congested *bitset.Set) {
	e.mutable("Append")
	w := congested.Words()
	k := copy(e.rowBuf, w)
	clear(e.rowBuf[k:])
	for wi := k; wi < len(w); wi++ {
		if w[wi] != 0 {
			i := wi*64 + mathbits.TrailingZeros64(w[wi])
			panic(fmt.Sprintf("segstore: series %d out of range (%d series)", i, e.cols.NumSeries()))
		}
	}
	e.AppendBatchWords(e.rowBuf, len(e.rowBuf), 1)
}

// AppendBatchWords ingests a batch of snapshots in one mutation, presented
// as packed word-rows: rows snapshots, each wordsPerRow uint64 words (bit i
// of word w ⇒ path w*64+i congested), laid out back to back in words — the
// layout the binary probe wire format carries and the window store
// appends directly, so wire ingest materializes no per-snapshot bitset.
// It is bit-identical to appending the rows one at a time, but pays the
// bookkeeping once: the evictions a full window's batch forces are applied
// as one DropOldest, and the probability caches are reset once. The
// pattern histogram keys a word row identically to its set
// (AppendKeyWords trims the stride padding). Panics like Append, and on a
// stride/row-count mismatch. The words may be reused by the caller after
// the call returns.
func (e *Empirical) AppendBatchWords(words []uint64, wordsPerRow, rows int) {
	e.mutable("AppendBatchWords")
	if rows == 0 {
		return
	}
	if want := (e.cols.NumSeries() + 63) / 64; wordsPerRow != want {
		panic(fmt.Sprintf("measure: AppendBatchWords stride %d words, want %d for %d paths", wordsPerRow, want, e.cols.NumSeries()))
	}
	if rows*wordsPerRow > len(words) {
		panic(fmt.Sprintf("measure: AppendBatchWords carries %d words, want %d for %d rows of %d", len(words), rows*wordsPerRow, rows, wordsPerRow))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.store.Capacity()
	if d := e.store.Snapshots() + rows - c; c > 0 && d > 0 && d <= e.store.Snapshots() {
		// The batch displaces exactly the d oldest retained snapshots:
		// forget their histogram entries row by row, then move the window
		// start once. (A batch larger than the whole window — d exceeding
		// the retained count — falls through to the per-row loop, where
		// AppendEvictWords handles the mid-batch evictions.)
		if e.patterns != nil {
			for t := 0; t < d; t++ {
				e.store.RowInto(t, e.evictScratch)
				e.forgetPattern(e.evictScratch)
			}
		}
		e.store.DropOldest(d)
	}
	// Only the pattern histogram consumes evicted rows; when it is not
	// materialized, let the store skip producing them.
	ev := e.evictScratch
	if e.patterns == nil {
		ev = nil
	}
	for r := 0; r < rows; r++ {
		row := words[r*wordsPerRow : (r+1)*wordsPerRow]
		if e.store.AppendEvictWords(row, ev) && ev != nil {
			e.forgetPattern(ev)
		}
		e.recordPatternWords(row)
	}
	e.resetCaches()
}

// Close releases the estimator's storage: a window's chunks (and, for a
// spill window, its segment mappings), or a view's chunk references. A
// record-backed estimator releases nothing: the record's chunks belong to
// the record and stay readable by every other estimator over it. The
// estimator must not be used after Close, except that a closed view may be
// recycled through SnapshotView. Idempotent.
func (e *Empirical) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.store != nil:
		e.store.Close()
	case e.view != nil:
		e.view.Close()
	}
}

// Evict drops the oldest retained snapshot of a sliding-window estimator
// without appending — the expiry path for time-based windows. It reports
// whether a snapshot was evicted (false once the window is empty) and panics
// on a non-windowed estimator. Like Append, it must not run concurrently
// with queries.
func (e *Empirical) Evict() bool {
	if e.view != nil {
		panic("measure: Evict on an immutable snapshot view (SnapshotView)")
	}
	if e.cols.Capacity() == 0 {
		panic("measure: Evict requires a sliding-window estimator (NewSlidingWindow)")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ev := e.evictScratch
	if e.patterns == nil {
		ev = nil
	}
	if !e.store.EvictOldest(ev) {
		return false
	}
	if ev != nil {
		e.forgetPattern(ev)
	}
	e.resetCaches()
	return true
}

// Window returns the sliding-window capacity, or 0 for an unbounded
// estimator.
func (e *Empirical) Window() int { return e.cols.Capacity() }

// SnapshotView freezes the estimator's current window into an immutable
// copy-on-write view: the window's sealed chunks are shared by reference —
// each view holds a per-chunk reference count, so eviction, ReleaseMapped
// and Close on the source can never free, recycle or unmap a chunk under
// the view's count sweeps — and only the filled rows of the write buffer
// are copied. Every probability the view reports is bit-identical to what
// the source would have reported at snapshot time, because both are pure
// functions of the same integer counts. The source's pattern histogram, if
// materialized, is copied so a theorem-estimator view never pays the
// O(window·paths) rebuild.
//
// recycle, when non-nil, must be a view from a previous SnapshotView on a
// same-shaped estimator; it is closed and its storage reused, so a
// steady-state publisher allocates nothing. The returned view rejects all
// mutation (Append/Evict panic), answers queries from any goroutine like
// its source, and must be Closed when the last reader is done with it —
// that is what releases the shared chunks. SnapshotView must be called by
// the goroutine that owns the source's appends, and panics on a
// record-backed estimator.
func (e *Empirical) SnapshotView(recycle *Empirical) *Empirical {
	if e.view != nil {
		panic("measure: SnapshotView of a snapshot view")
	}
	if e.store == nil {
		panic("measure: SnapshotView requires a windowed or streaming estimator")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	v := recycle
	if v != nil && v.view == nil {
		panic("measure: SnapshotView recycle target is not a view")
	}
	if v == nil {
		v = &Empirical{
			pairs: make(map[int64]float64),
			memo:  make(map[string]float64),
		}
	}
	v.view = e.store.SnapshotView(v.view)
	v.cols = &v.view.Columns
	if len(v.single) != e.cols.NumSeries() {
		v.single = nil
	}
	v.resetCaches()
	if e.patterns != nil {
		if v.patterns == nil {
			v.patterns = make(map[string]*int, len(e.patterns))
		} else {
			clear(v.patterns)
		}
		for k, p := range e.patterns {
			if *p > 0 {
				n := *p
				v.patterns[k] = &n
			}
		}
	} else {
		v.patterns = nil
	}
	v.deadPatterns = 0
	return v
}

// PrimePatterns materializes the congested-pattern histogram now (a no-op
// once materialized), so that it is maintained incrementally from this
// point on and copied into every subsequent SnapshotView. Serving paths
// that run the pattern-based (theorem) estimator on views call this at
// registration time, while the window is still empty, making the
// materialization free.
func (e *Empirical) PrimePatterns() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializePatterns(e.cols.Snapshots())
}

// recordPatternWords bumps the appended row's histogram entry. A recurring
// pattern is a map read plus a boxed increment; only a never-seen pattern
// materializes its key string. The key bytes are identical to the equal
// set's (AppendKeyWords trims trailing zero words, so stride padding does
// not matter). Caller holds e.mu.
func (e *Empirical) recordPatternWords(row []uint64) {
	if e.patterns == nil {
		return
	}
	e.keyBuf = bitset.AppendKeyWords(e.keyBuf[:0], row)
	if p, ok := e.patterns[string(e.keyBuf)]; ok {
		if *p == 0 && e.deadPatterns > 0 {
			e.deadPatterns--
		}
		*p++
		return
	}
	n := 1
	e.patterns[string(e.keyBuf)] = &n
}

// maxDeadPatterns bounds how many zero-count histogram entries may linger
// before a sweep reclaims them. Dead entries are kept (rather than deleted
// eagerly) so a recurring pattern whose count bounces off zero re-increments
// its existing boxed counter instead of re-allocating its key — the
// steady-state sliding window stays allocation-free — while the sweep keeps
// a long-running window's histogram from accumulating unbounded dead keys.
const maxDeadPatterns = 1 << 10

// forgetPattern decrements the evicted row's histogram entry. Caller holds
// e.mu.
func (e *Empirical) forgetPattern(evicted *bitset.Set) {
	if e.patterns == nil {
		return
	}
	e.keyBuf = evicted.AppendKey(e.keyBuf[:0])
	if p, ok := e.patterns[string(e.keyBuf)]; ok {
		if *p--; *p <= 0 {
			e.deadPatterns++
			if e.deadPatterns > maxDeadPatterns {
				for k, v := range e.patterns {
					if *v <= 0 {
						delete(e.patterns, k)
					}
				}
				e.deadPatterns = 0
			}
		}
	}
}

// resetCaches clears the probability memos after a mutation, keeping their
// storage: the NaN-filled single slice and the cleared maps retain capacity,
// so a steady-state window (same query set every estimate) refills them
// without allocating. Caller holds e.mu.
func (e *Empirical) resetCaches() {
	for i := range e.single {
		e.single[i] = math.NaN()
	}
	clear(e.pairs)
	clear(e.memo)
}

// NumPaths implements Source and PatternSource.
func (e *Empirical) NumPaths() int { return e.cols.NumSeries() }

// Snapshots returns the number of snapshots backing the estimates.
func (e *Empirical) Snapshots() int { return e.cols.Snapshots() }

// ProbPathsGood returns the fraction of snapshots in which no path of the
// set was congested. A memoized query allocates nothing: the
// set's key is encoded into a reusable buffer and looked up zero-copy; the
// key string is materialized only when a result is first inserted.
func (e *Empirical) ProbPathsGood(paths *bitset.Set) float64 {
	switch paths.Len() {
	case 0:
		return 1
	case 1:
		return e.ProbPathGood(topology.PathID(paths.Min()))
	case 2:
		var pair [2]int
		k := 0
		paths.ForEach(func(i int) bool { pair[k] = i; k++; return true })
		return e.ProbPairGood(topology.PathID(pair[0]), topology.PathID(pair[1]))
	}
	n := e.cols.Snapshots()
	if n == 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.keyBuf = paths.AppendKey(e.keyBuf[:0])
	if p, ok := e.memo[string(e.keyBuf)]; ok {
		return p
	}
	e.idxBuf = paths.AppendIndices(e.idxBuf[:0])
	p := float64(e.cols.CountAllGood(e.idxBuf)) / float64(n)
	if len(e.memo) >= maxMemoEntries {
		e.memo = make(map[string]float64)
	}
	e.memo[string(e.keyBuf)] = p
	return p
}

// ProbPathGood implements Source via the per-path cache.
func (e *Empirical) ProbPathGood(i topology.PathID) float64 {
	n := e.cols.Snapshots()
	if n == 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.single == nil {
		e.single = make([]float64, e.cols.NumSeries())
		for k := range e.single {
			e.single[k] = math.NaN()
		}
	}
	if p := e.single[i]; !math.IsNaN(p) {
		return p
	}
	p := float64(n-e.cols.CongestedCount(int(i))) / float64(n)
	e.single[i] = p
	return p
}

// ProbPairGood implements Source via the pair cache.
func (e *Empirical) ProbPairGood(i, j topology.PathID) float64 {
	if i == j {
		return e.ProbPathGood(i)
	}
	if j < i {
		i, j = j, i
	}
	n := e.cols.Snapshots()
	if n == 0 {
		return 0
	}
	key := int64(i)*int64(e.cols.NumSeries()) + int64(j)
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.pairs[key]; ok {
		return p
	}
	p := float64(e.cols.CountPairGood(int(i), int(j))) / float64(n)
	if len(e.pairs) >= maxPairEntries {
		e.pairs = make(map[int64]float64)
	}
	e.pairs[key] = p
	return p
}

// ProbExactCongestedPaths implements PatternSource via the pattern
// histogram, materialized lazily from the columns on first use and kept
// current by Append.
func (e *Empirical) ProbExactCongestedPaths(paths *bitset.Set) float64 {
	n := e.cols.Snapshots()
	if n == 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializePatterns(n)
	e.keyBuf = paths.AppendKey(e.keyBuf[:0])
	if p, ok := e.patterns[string(e.keyBuf)]; ok {
		return float64(*p) / float64(n)
	}
	return 0
}

// materializePatterns builds the congested-pattern histogram from the
// retained rows on first use. Caller holds e.mu.
func (e *Empirical) materializePatterns(n int) {
	if e.patterns != nil {
		return
	}
	e.patterns = make(map[string]*int)
	row := bitset.New(e.cols.NumSeries())
	for t := 0; t < n; t++ {
		e.cols.RowInto(t, row)
		e.recordPatternWords(row.Words())
	}
}

// PrimePairs implements Source: it resolves every listed pair that
// is not already cached with one batched pass over the path columns and
// installs the results in the pair cache, so the ProbPairGood calls that
// follow are map hits. Values are bit-identical
// to per-pair lookups; a steady-state caller (same pair set each estimate)
// allocates nothing beyond the cache's own warm-up.
func (e *Empirical) PrimePairs(pairs []Pair) {
	n := e.cols.Snapshots()
	if n == 0 || len(pairs) == 0 {
		return
	}
	np := int64(e.cols.NumSeries())
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pairBuf = e.pairBuf[:0]
	for _, p := range pairs {
		i, j := p.A, p.B
		if i == j {
			continue // single-path query; not a pair cache entry
		}
		if j < i {
			i, j = j, i
		}
		if _, ok := e.pairs[int64(i)*np+int64(j)]; ok {
			continue
		}
		e.pairBuf = append(e.pairBuf, Pair{A: i, B: j})
	}
	if len(e.pairBuf) == 0 {
		return
	}
	if cap(e.pairCounts) < len(e.pairBuf) {
		e.pairCounts = make([]int, len(e.pairBuf))
	}
	e.pairCounts = e.pairCounts[:len(e.pairBuf)]
	e.cols.CountPairsGood(e.pairBuf, e.pairCounts)
	if len(e.pairs) >= maxPairEntries {
		e.pairs = make(map[int64]float64)
	}
	for k, p := range e.pairBuf {
		e.pairs[int64(p.A)*np+int64(p.B)] = float64(e.pairCounts[k]) / float64(n)
	}
}

// PathCongestionFrequency returns, per path, the fraction of snapshots in
// which it was congested — the paper's E(YPi). The result is all-zero while
// a streaming estimator is still empty.
func (e *Empirical) PathCongestionFrequency() []float64 {
	out := make([]float64, e.cols.NumSeries())
	n := float64(e.cols.Snapshots())
	if n == 0 {
		return out
	}
	for i := range out {
		out[i] = float64(e.cols.CongestedCount(i)) / n
	}
	return out
}

// Exact computes the same quantities in closed form from a congestion model
// under Assumption 2 (separability). ProbPathsGood is exact for topologies
// and models of any size; ProbExactCongestedPaths enumerates correlation-set
// states and is restricted to small correlation sets (tests and toys).
type Exact struct {
	top   *topology.Topology
	model congestion.Model

	// Per correlation set: the exact subset distribution and each subset's
	// path coverage, materialized lazily for pattern queries.
	states [][]exactState
}

type exactState struct {
	links    *bitset.Set
	coverage *bitset.Set
	p        float64
}

// NewExact builds an exact source for the topology/model pair.
func NewExact(top *topology.Topology, model congestion.Model) (*Exact, error) {
	if top.NumLinks() != model.NumLinks() {
		return nil, fmt.Errorf("measure: topology has %d links, model %d", top.NumLinks(), model.NumLinks())
	}
	return &Exact{top: top, model: model}, nil
}

// NumPaths implements Source and PatternSource.
func (e *Exact) NumPaths() int { return e.top.NumPaths() }

// ProbPathsGood returns P(every path in the set is good): all paths good ⇔
// every link on them good (Assumption 2), so the answer is ProbAllGood over
// the union of their links.
func (e *Exact) ProbPathsGood(paths *bitset.Set) float64 {
	links := bitset.New(e.top.NumLinks())
	paths.ForEach(func(i int) bool {
		links.UnionWith(e.top.PathLinkSet(topology.PathID(i)))
		return true
	})
	return e.model.ProbAllGood(links)
}

// ProbPathGood implements Source through ProbPathsGood.
func (e *Exact) ProbPathGood(i topology.PathID) float64 {
	return e.ProbPathsGood(bitset.FromIndices(int(i)))
}

// ProbPairGood implements Source through ProbPathsGood.
func (e *Exact) ProbPairGood(i, j topology.PathID) float64 {
	return e.ProbPathsGood(bitset.FromIndices(int(i), int(j)))
}

// PrimePairs implements Source; closed-form queries need no batching.
func (e *Exact) PrimePairs([]Pair) {}

// materialize builds the per-set state tables (once).
func (e *Exact) materialize() error {
	if e.states != nil {
		return nil
	}
	states := make([][]exactState, e.top.NumSets())
	for p := 0; p < e.top.NumSets(); p++ {
		links := e.top.CorrelationSet(p).Indices()
		if len(links) > 15 {
			return fmt.Errorf("measure: correlation set %d has %d links; exact pattern probabilities are limited to ≤15", p, len(links))
		}
		dist := congestion.SubsetDistribution(e.model, links)
		for _, sp := range dist {
			states[p] = append(states[p], exactState{
				links:    sp.Links,
				coverage: e.top.Coverage(sp.Links),
				p:        sp.P,
			})
		}
	}
	e.states = states
	return nil
}

// ProbExactCongestedPaths implements PatternSource by depth-first
// enumeration of per-set states whose coverage stays within the target
// pattern, requiring the union to equal the pattern exactly.
func (e *Exact) ProbExactCongestedPaths(paths *bitset.Set) float64 {
	if err := e.materialize(); err != nil {
		panic(err) // construction-time contract: documented size limit
	}
	var rec func(set int, covered *bitset.Set) float64
	rec = func(set int, covered *bitset.Set) float64 {
		if set == len(e.states) {
			if covered.Equal(paths) {
				return 1
			}
			return 0
		}
		total := 0.0
		for _, st := range e.states[set] {
			if st.p == 0 {
				continue
			}
			if !st.coverage.IsSubsetOf(paths) {
				continue
			}
			next := bitset.Union(covered, st.coverage)
			total += st.p * rec(set+1, next)
		}
		return total
	}
	return rec(0, bitset.New(e.top.NumPaths()))
}
