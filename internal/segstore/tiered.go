package segstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/bitset"
)

// TieredStore is the sliding-window column store: snapshots append through
// the stage (see Columns) into a write buffer of SegmentRows
// columns-in-progress, and a full buffer is sealed into an immutable chunk
// while the buffer restarts on the next row block. Without a spill
// directory a sealed chunk is the buffer itself, kept in RAM as is; with
// one (Options.Dir) it is written to disk (span-compressed, checksummed,
// manifest-listed) and mapped back read-only. Window-relative count
// queries sweep the sealed chunks that overlap the retained window plus
// the write buffer (see Columns), and return exactly the integer counts of
// a record built from the same retained rows — the bit-identity the
// differential tests pin.
//
// The store retains at most capacity of the n appended snapshots
// (capacity 0: all of them), and window row t addresses absolute row
// n−retained+t. DropOldest only moves the window start; a sealed chunk
// that falls wholly behind it loses the store's reference. A RAM chunk's
// words are then recycled into a later write buffer once no snapshot view
// holds it either, so a warm window allocates nothing. A spilled segment
// is unmapped instead, but its file stays listed in the manifest, so
// evicted rows remain readable through OpenReader.
//
// Append-side I/O errors panic with a "segstore:"-prefixed message: an
// unwritable spill directory is infrastructure failure, equivalent to the
// RAM store's allocation failing, and none of the append call chain has an
// error path worth threading one through. Decode-side errors (corrupt
// files, bad manifests) are returned as errors by NewTiered/OpenReader.
//
// A TieredStore's mutating and counting methods are owned by one
// goroutine, like the measurement windows it backs; a count may flush
// staged rows into the write buffer. The exceptions, built for the
// read-replica serving path, are SnapshotView (called by the owner; the
// views it returns are read by other goroutines) and
// ReleaseMapped/AdviseSequential/Close, which synchronize on mu +
// per-chunk reference counts so a chunk is never unmapped, recycled or
// madvised away under a concurrent view reader.
type TieredStore struct {
	// Columns holds the store's stage and chunks, and shares its sealed
	// chunks with the store's views. The owner changes Columns.sealed only
	// under mu; its own count sweeps read it without mu.
	Columns
	dir string

	// mu guards Columns.sealed and the chunk reference counts against the
	// cross-goroutine methods (SnapshotView retaining chunks,
	// ReleaseMapped deciding a mapping is safe to madvise, Close releasing
	// the store's references).
	mu      sync.Mutex
	pool    chunkPool // RAM chunks no window or view references any more
	man     manifest
	seals   int // chunks sealed over the lifetime
	spilled int64
	closed  bool
}

// chunkPool recycles RAM chunks that no window or view references any
// more. A view may drop the last reference on its own goroutine, hence the
// lock.
type chunkPool struct {
	mu   sync.Mutex
	free []*segment
}

func (p *chunkPool) put(s *segment) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

func (p *chunkPool) get() *segment {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := len(p.free) - 1
	if k < 0 {
		return nil
	}
	s := p.free[k]
	p.free[k] = nil
	p.free = p.free[:k]
	return s
}

// chunkRows is the seal granularity of a RAM window: about an eighth of
// the window in whole 64-row words, within [64, DefaultSegmentRows], so a
// view copies at most about an eighth of the window. An unbounded store
// seals every DefaultSegmentRows rows.
func chunkRows(capacity int) int {
	if capacity <= 0 {
		return DefaultSegmentRows
	}
	r := ((capacity+7)/8 + wordBits - 1) / wordBits * wordBits
	return min(max(r, wordBits), DefaultSegmentRows)
}

// NewTiered creates a window store over series columns retaining at most
// capacity snapshots (0: unbounded). With opts.Dir empty, sealed chunks
// stay in RAM and opts.SegmentRows defaults to chunkRows(capacity); with
// it set, they are spilled into opts.Dir and opts.SegmentRows defaults to
// DefaultSegmentRows.
func NewTiered(series, capacity int, opts Options) (*TieredStore, error) {
	if series < 0 || series > maxSeries {
		return nil, fmt.Errorf("segstore: %d series outside [0, %d]", series, maxSeries)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("segstore: window capacity %d, want ≥ 0", capacity)
	}
	segRows := opts.SegmentRows
	if segRows == 0 {
		segRows = DefaultSegmentRows
		if opts.Dir == "" {
			segRows = chunkRows(capacity)
		}
	}
	if segRows < wordBits || segRows > maxSegmentRows || segRows%wordBits != 0 {
		return nil, fmt.Errorf("segstore: segment rows %d, want a multiple of %d in [%d, %d]",
			segRows, wordBits, wordBits, maxSegmentRows)
	}
	ts := &TieredStore{
		Columns: Columns{
			series: series, segRows: segRows, capacity: capacity,
			acc:   make([]uint64, segRows/wordBits),
			stage: make([]uint64, (series+wordBits-1)/wordBits*wordBits),
		},
		dir: opts.Dir,
		man: manifest{Version: formatVersion, Series: series, SegmentRows: segRows},
	}
	if opts.Dir == "" {
		ts.active = newBuffer(series, segRows, &ts.pool)
		if capacity > 0 {
			// A window overlaps at most ⌈capacity/segRows⌉+1 chunks, so
			// one slot more holds every chunk its turnovers release
			// while no view pins extra ones: the first turnover's put
			// does not grow the free list on the append path.
			ts.pool.free = make([]*segment, 0, (capacity+segRows-1)/segRows+2)
		}
		return ts, nil
	}
	ts.active = newBuffer(series, segRows, nil)
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	manPath := filepath.Join(opts.Dir, ManifestName)
	if _, err := os.Stat(manPath); err == nil {
		if !opts.Reset {
			return nil, fmt.Errorf("segstore: %s already holds a segment store (set Options.Reset to discard it, or inspect it with OpenReader)", opts.Dir)
		}
		if err := resetDir(opts.Dir); err != nil {
			return nil, err
		}
	}
	if err := ts.writeManifest(); err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	return ts, nil
}

// newBuffer allocates an empty dense chunk of rows rows: a window's write
// buffer, or one chunk of a record. A RAM store's buffer becomes a chunk
// when sealed, and its last release returns it to pool.
func newBuffer(series, rows int, pool *chunkPool) *segment {
	words := (rows + wordBits - 1) / wordBits
	s := &segment{
		rows:  rows,
		words: words,
		meta:  make([]colMeta, series),
		data:  make([]uint64, words*series),
		pool:  pool,
		dense: true,
	}
	for i := range s.meta {
		s.meta[i] = colMeta{lo: 0, hi: words, off: i * words}
	}
	return s
}

// resetDir removes an existing store (manifest, segments, stray temp files)
// from dir.
func resetDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("segstore: %v", err)
	}
	for _, e := range entries {
		name := e.Name()
		stale := name == ManifestName ||
			(strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg")) ||
			strings.Contains(name, ".tmp-")
		if !stale {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("segstore: %v", err)
		}
	}
	return nil
}

func (ts *TieredStore) writeManifest() error {
	return atomicWriteFile(ts.dir, ManifestName, encodeManifest(&ts.man))
}

// SealedSegments returns how many chunks have been sealed over the store's
// lifetime, including those that have since left the window.
func (ts *TieredStore) SealedSegments() int { return ts.seals }

// SpilledBytes returns the total bytes of sealed segment files written.
func (ts *TieredStore) SpilledBytes() int64 { return ts.spilled }

// Dir returns the spill directory, "" for a RAM store.
func (ts *TieredStore) Dir() string { return ts.dir }

// AppendBatchWords appends rows snapshots presented as packed word-rows,
// wordsPerRow = ⌈series/64⌉ words each, back to back in words, through the
// stage (see Columns): in runs of at most the rest of the current 64-row
// word and at most the window capacity, each run first dropping the oldest
// snapshots it displaces. A batch larger than the window thus still
// appends, seals and spills every row. A bit at or past the series count
// panics at its row, after the rows before it have been appended.
func (ts *TieredStore) AppendBatchWords(words []uint64, wordsPerRow, rows int) {
	if want := (ts.series + wordBits - 1) / wordBits; wordsPerRow != want {
		panic(fmt.Sprintf("segstore: batch stride %d words, want %d for %d series", wordsPerRow, want, ts.series))
	}
	for r := 0; r < rows; {
		run := min(rows-r, wordBits-ts.n%wordBits)
		if c := ts.capacity; c > 0 {
			run = min(run, c)
			ts.DropOldest(ts.retained + run - c)
		}
		ts.stageRun(words[r*wordsPerRow:(r+run)*wordsPerRow], run)
		r += run
		if ts.n-ts.active.base == ts.segRows {
			ts.seal()
		}
	}
}

// DropOldest shrinks the window by the k oldest snapshots and returns how
// many were dropped (min(k, retained)). Dropped rows are not reported.
func (ts *TieredStore) DropOldest(k int) int {
	k = min(k, ts.retained)
	if k <= 0 {
		return 0
	}
	ts.retained -= k
	ts.dropBehind()
	return k
}

// dropBehind releases the store's reference to every sealed chunk that lies
// wholly before the window start.
func (ts *TieredStore) dropBehind() {
	from := ts.n - ts.retained
	k := 0
	for k < len(ts.sealed) && ts.sealed[k].base+ts.segRows <= from {
		k++
	}
	if k == 0 {
		return
	}
	ts.mu.Lock()
	for _, s := range ts.sealed[:k] {
		s.release()
	}
	m := copy(ts.sealed, ts.sealed[k:])
	clear(ts.sealed[m:])
	ts.sealed = ts.sealed[:m]
	ts.mu.Unlock()
}

// seal turns the full write buffer into a sealed chunk and restarts the
// buffer on the next row block. A RAM store keeps the buffer itself as the
// chunk and takes a recycled (or new) buffer; a spill store writes the
// buffer to disk, maps it back, and reuses the buffer. See the type
// comment for why I/O failure panics.
func (ts *TieredStore) seal() {
	full, next := ts.active, ts.active
	base := full.base + ts.segRows
	if ts.dir == "" {
		full.refs.Store(1)
		if next = ts.pool.get(); next == nil {
			next = newBuffer(ts.series, ts.segRows, &ts.pool)
		} else {
			next.clear()
		}
	} else {
		full = ts.spill(full)
		next.clear()
	}
	next.base = base
	ts.active = next
	ts.seals++
	ts.mu.Lock()
	ts.sealed = append(ts.sealed, full)
	ts.mu.Unlock()
}

// spill writes the write buffer to a segment file, lists it in the
// manifest, and returns the file mapped back.
func (ts *TieredStore) spill(buf *segment) *segment {
	name := fmt.Sprintf("seg-%08d.seg", ts.seals)
	img := encodeSegment(buf)
	if err := atomicWriteFile(ts.dir, name, img); err != nil {
		panic(fmt.Sprintf("segstore: sealing %s: %v", name, err))
	}
	ts.man.Segments = append(ts.man.Segments, manifestSegment{
		File: name,
		Base: uint64(buf.base),
		CRC:  crcOfEncoded(img),
	})
	if err := ts.writeManifest(); err != nil {
		panic(fmt.Sprintf("segstore: manifest after sealing %s: %v", name, err))
	}
	seg, err := openSegment(filepath.Join(ts.dir, name))
	if err != nil {
		panic(fmt.Sprintf("segstore: reading back %s: %v", name, err))
	}
	ts.spilled += int64(len(img))
	return seg
}

// crcOfEncoded extracts the data CRC field from an encoded segment image.
func crcOfEncoded(buf []byte) uint32 {
	return uint32(buf[40]) | uint32(buf[41])<<8 | uint32(buf[42])<<16 | uint32(buf[43])<<24
}

// openSegment opens a sealed segment file, preferring a shared read-only
// mapping and falling back to a heap read where mmap is unavailable.
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	size := st.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("segstore: %s: %d bytes does not fit in memory", path, size)
	}
	if mapped, merr := mmapFile(f, int(size)); merr == nil {
		seg, perr := parseSegment(mapped, path)
		if perr != nil {
			munmap(mapped)
			return nil, perr
		}
		seg.mapped = mapped
		seg.refs.Store(1)
		return seg, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	seg, err := parseSegment(data, path)
	if err != nil {
		return nil, err
	}
	seg.refs.Store(1)
	return seg, nil
}

// ReleaseMapped hints the kernel to drop the resident pages of every
// sealed mapping (they fault back in from the page cache on the next
// query) — the RSS pressure valve for replay loops that only revisit old
// segments at checkpoints. Segments a snapshot view currently holds a
// reference to are skipped: madvising pages away under a concurrent count
// sweep is exactly the use-while-released race the reference counts exist
// to prevent, and a view's segments get their turn on the first
// ReleaseMapped after the view closes. Safe to call from any goroutine.
func (ts *TieredStore) ReleaseMapped() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, seg := range ts.sealed {
		if seg.mapped != nil && seg.refs.Load() == 1 {
			releasePages(seg.mapped)
		}
	}
}

// AdviseSequential hints the kernel that the sealed mappings are about to
// be swept front to back (MADV_SEQUENTIAL: doubled readahead, pages dropped
// soon after use) — the replay-side counterpart of ReleaseMapped, for
// checkpointed sweeps over cold history. Heap-fallback segments and RAM
// chunks (mapped == nil) are untouched: the hint only means anything for a
// live mapping. Purely advisory; unlike ReleaseMapped it does not skip
// segments held by views, because a readahead hint never invalidates
// resident pages.
func (ts *TieredStore) AdviseSequential() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, seg := range ts.sealed {
		if seg.mapped != nil {
			adviseSequential(seg.mapped)
		}
	}
}

// Close releases the store's reference to every sealed chunk; a chunk is
// freed as soon as the last snapshot view holding it closes (or
// immediately, with no views outstanding). The write buffer is
// deliberately not sealed — only full segments ever reach disk, which
// keeps the format fixed-size and recovery trivial. Close is idempotent,
// and no methods may be called after it.
func (ts *TieredStore) Close() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.closed {
		return
	}
	ts.closed = true
	for _, seg := range ts.sealed {
		seg.release()
	}
	ts.sealed = nil
	ts.active = nil
}

// Reader is the recovery-side view of a segment directory: the manifest's
// sealed segments, checksum-verified, addressed by absolute row.
type Reader struct {
	series  int
	segRows int
	segs    []*segment
}

// OpenReader opens the sealed segments a manifest names, verifying each
// file's checksums and its manifest CRC. Files the manifest does not name
// (a crash's half-written temp files, a superseded seal) are ignored —
// the manifest is the single source of truth.
func OpenReader(dir string) (*Reader, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("segstore: %v", err)
	}
	man, err := parseManifest(raw)
	if err != nil {
		return nil, err
	}
	r := &Reader{series: man.Series, segRows: man.SegmentRows}
	for i, ent := range man.Segments {
		seg, err := openSegment(filepath.Join(dir, ent.File))
		if err != nil {
			r.Close()
			return nil, err
		}
		if seg.crc != ent.CRC {
			r.Close()
			seg.release()
			return nil, fmt.Errorf("segstore: %s: data CRC %08x, manifest says %08x", ent.File, seg.crc, ent.CRC)
		}
		if len(seg.meta) != man.Series || seg.rows != man.SegmentRows || seg.base != i*man.SegmentRows {
			r.Close()
			seg.release()
			return nil, fmt.Errorf("segstore: %s: header (series %d, rows %d, base %d) disagrees with manifest (series %d, rows %d, base %d)",
				ent.File, len(seg.meta), seg.rows, seg.base, man.Series, man.SegmentRows, i*man.SegmentRows)
		}
		r.segs = append(r.segs, seg)
	}
	return r, nil
}

// NumSeries returns the number of columns.
func (r *Reader) NumSeries() int { return r.series }

// SegmentRows returns the rows per segment.
func (r *Reader) SegmentRows() int { return r.segRows }

// Segments returns the number of sealed segments.
func (r *Reader) Segments() int { return len(r.segs) }

// Rows returns the total sealed rows.
func (r *Reader) Rows() int { return len(r.segs) * r.segRows }

// Bit reports whether series i was congested in absolute row t.
func (r *Reader) Bit(i, t int) bool {
	if t < 0 || t >= r.Rows() || i < 0 || i >= r.series {
		return false
	}
	return r.segs[t/r.segRows].bit(i, t%r.segRows)
}

// RowInto materializes absolute row t into dst (cleared first).
func (r *Reader) RowInto(t int, dst *bitset.Set) {
	words := dst.ResetWords(r.series)
	if t < 0 || t >= r.Rows() {
		return
	}
	r.segs[t/r.segRows].rowInto(t%r.segRows, words)
}

// CongestedCount returns how many sealed rows have series i congested.
func (r *Reader) CongestedCount(i int) int {
	n := 0
	for _, seg := range r.segs {
		n += seg.meta[i].pop
	}
	return n
}

// Close unmaps every segment. Idempotent.
func (r *Reader) Close() {
	for _, seg := range r.segs {
		seg.release()
	}
	r.segs = nil
}
