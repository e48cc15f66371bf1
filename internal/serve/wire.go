// Package serve is the multi-tenant serving layer of the tomography
// library: a long-running daemon that ingests probe-report batches over
// HTTP, maintains one sliding-window inference session per registered
// tenant, and answers estimate, health and metrics queries while the
// stream keeps flowing.
//
// The hot path is built from the pieces PRs 2–5 prepared: each tenant owns
// a compiled inference plan (shared, immutable), a chunked sliding
// window over columnar snapshot storage (single-writer, so appends are
// lock-free), and estimates run on per-worker evaluate workspaces, so the
// steady state allocates nothing per snapshot. Tenants are partitioned
// across a fixed set of shards; each shard is one goroutine draining one
// bounded job queue, which gives every tenant a total order over its
// ingests and estimates — the property the differential replay tests pin.
// When a shard's queue is full the HTTP layer answers 429 with Retry-After
// instead of buffering unboundedly: backpressure is explicit and
// immediate.
package serve

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/bitset"
)

// Wire-format limits. They bound what a single POST may demand before any
// validation has run, so a malformed (or adversarial) request cannot force
// an enormous allocation.
const (
	// DefaultMaxBatch is the default cap on snapshots per probe batch.
	DefaultMaxBatch = 4096
	// DefaultMaxBody is the default cap on request-body bytes.
	DefaultMaxBody = 4 << 20
)

// Ingest media types the daemon negotiates on: anything other than the
// binary media type (parameters ignored) decodes as JSON, so JSON stays
// the default and old clients keep working unchanged.
const (
	// ContentTypeJSON is the default probe wire format (reportBatch).
	ContentTypeJSON = "application/json"
	// ContentTypeBinary selects the TOMOW1 binary columnar wire format.
	ContentTypeBinary = "application/x-tomo-probes"
)

// wordBatch is a decoded probe batch in the column stores' packed word
// layout: rows snapshots, each wordsPerRow little-endian-ordered uint64
// words (bit i of word w ⇒ path w*64+i congested), laid out back to back
// in words. Both wire decoders produce it — the binary dense payload
// carries it verbatim, the JSON and sparse decoders scatter indices into
// it — the shard queue hands it to the worker, and
// Window.ObserveBatchWords appends it column-wise. With the sync.Pool
// recycling the buffers, decoding and appending an accepted batch
// allocate nothing once warm, whatever its snapshot count.
type wordBatch struct {
	words       []uint64
	wordsPerRow int
	rows        int
}

// reset sizes the buffer for rows×wordsPerRow words and zeroes it, for
// decoders that set individual bits.
func (b *wordBatch) reset(rows, wordsPerRow int) {
	b.resetRaw(rows, wordsPerRow)
	bitset.ZeroWords(b.words)
}

// resetRaw sizes the buffer without zeroing — for decoders that overwrite
// every word (the dense binary payload).
func (b *wordBatch) resetRaw(rows, wordsPerRow int) {
	n := rows * wordsPerRow
	if cap(b.words) < n {
		b.words = make([]uint64, n)
	} else {
		b.words = b.words[:n]
	}
	b.rows, b.wordsPerRow = rows, wordsPerRow
}

// row returns snapshot t's words.
func (b *wordBatch) row(t int) []uint64 {
	return b.words[t*b.wordsPerRow : (t+1)*b.wordsPerRow]
}

var wordBatchPool = sync.Pool{New: func() any { return new(wordBatch) }}

func getWordBatch() *wordBatch  { return wordBatchPool.Get().(*wordBatch) }
func putWordBatch(b *wordBatch) { wordBatchPool.Put(b) }

// rowWords is the per-snapshot word count for a path count.
func rowWords(numPaths int) int { return (numPaths + 63) / 64 }

// reportBatch is the probe-report wire format: one JSON object per ingest
// POST, carrying one or more snapshots for a single tenant. Each report is
// the congested-path observation of one snapshot, as a list of path
// indices into the tenant's topology.
//
//	{"reports": [[0, 2], [1], []]}
type reportBatch struct {
	Reports [][]int `json:"reports"`
}

// DecodeReports parses and validates one probe-report batch against a
// tenant's path count. It returns one congested-path set per snapshot, in
// arrival order. Malformed JSON, a missing or empty reports list, more
// than maxBatch snapshots, negative path indices and indices outside
// [0, numPaths) are all rejected with a descriptive error — the ingest
// handler maps every one of them to a 4xx, never a panic (the FuzzIngestDecode
// target pins this).
func DecodeReports(data []byte, numPaths, maxBatch int) ([]*bitset.Set, error) {
	var b wordBatch
	if err := decodeReportsJSONInto(&b, data, numPaths, maxBatch); err != nil {
		return nil, err
	}
	sets := make([]*bitset.Set, b.rows)
	for t := range sets {
		sets[t] = bitset.FromWords(b.row(t))
	}
	return sets, nil
}

// decodeReportsJSONInto is DecodeReports decoding into a reusable word
// batch instead of materializing one set per snapshot — the daemon's
// ingest path. Validation order and every error string are identical to
// DecodeReports (which is now a thin materializing wrapper over it).
func decodeReportsJSONInto(b *wordBatch, data []byte, numPaths, maxBatch int) error {
	if numPaths <= 0 {
		return fmt.Errorf("serve: decode probe batch: tenant has %d paths", numPaths)
	}
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	var batch reportBatch
	if err := json.Unmarshal(data, &batch); err != nil {
		return fmt.Errorf("serve: decode probe batch: %w", err)
	}
	if len(batch.Reports) == 0 {
		return fmt.Errorf("serve: probe batch carries no reports")
	}
	if len(batch.Reports) > maxBatch {
		return fmt.Errorf("serve: probe batch carries %d snapshots, limit %d", len(batch.Reports), maxBatch)
	}
	b.reset(len(batch.Reports), rowWords(numPaths))
	for t, report := range batch.Reports {
		row := b.row(t)
		for _, p := range report {
			if p < 0 {
				return fmt.Errorf("serve: snapshot %d: negative path index %d", t, p)
			}
			if p >= numPaths {
				return fmt.Errorf("serve: snapshot %d: path index %d out of range for %d paths", t, p, numPaths)
			}
			row[p/64] |= 1 << uint(p%64)
		}
	}
	return nil
}

// EncodeReports renders congested-path sets as a wire batch — the client
// half of the format, used by the firehose load generator and tests. One
// backing index slice serves the whole batch, sub-sliced per snapshot,
// instead of one Indices allocation per snapshot.
func EncodeReports(sets []*bitset.Set) ([]byte, error) {
	total := 0
	for _, s := range sets {
		total += s.Len()
	}
	backing := make([]int, 0, total)
	batch := reportBatch{Reports: make([][]int, len(sets))}
	for t, s := range sets {
		start := len(backing)
		backing = s.AppendIndices(backing)
		// Full-slice expression: the subslices are non-nil even when empty
		// (an empty report must marshal as [], not null) and appending to
		// one can never scribble on its neighbor.
		batch.Reports[t] = backing[start:len(backing):len(backing)]
	}
	return json.Marshal(batch)
}
