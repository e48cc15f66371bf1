// Package segstore is the columnar measurement store: per-snapshot
// Boolean observations ("was series i congested in row t?") kept
// path-major, one packed uint64 bit column per series, cut into chunks of
// consecutive rows. Every count query is one sweep over the chunks
// (Columns), whatever holds them:
//
//   - a finished record (Builder): RAM chunks preallocated for a known row
//     count, filled row by row by Append and then frozen;
//   - a sliding window (TieredStore): a write buffer sealed into chunks
//     that stay in RAM or, with a spill directory, go to disk;
//   - a window's snapshot view (TieredView), sharing its sealed chunks.
//
// Its out-of-core tier seals chunks into fixed-size on-disk segments that
// the count kernels read back through mmap, zero copy. A segment holds
// SegmentRows consecutive snapshots in exactly the path-major
// packed-uint64 word layout of the RAM chunks — bit t%64 of word t/64 of
// column i says "series i was congested in row t" — so the fused
// OR/AND-NOT+POPCNT kernels run unchanged over mapped file pages. Columns
// are span-compressed: only the word range [lo, hi) that contains set bits
// is stored, so a cold all-good column costs 12 bytes of directory and
// nothing else, and the per-column popcount in the directory lets the
// kernels skip it without touching a page, as a RAM chunk's popcount
// does.
//
// On-disk layout of one segment file (all fields little-endian):
//
//	offset  size  field
//	     0     8  magic "TOMOSEG1"
//	     8     4  format version (1)
//	    12     4  series (columns)
//	    16     4  rows (snapshots; multiple of 64)
//	    20     4  words per full column (= rows/64)
//	    24     8  base — absolute index of row 0
//	    32     8  dataWords — Σ per-column span lengths
//	    40     4  CRC-32C of everything after the header
//	    44     4  CRC-32C of header bytes [0, 44)
//	    48   12·series  directory: {loWord u32, hiWord u32, popcount u32}
//	     …     …  zero padding to 8-byte alignment
//	     …  8·dataWords  column spans, concatenated in series order
//
// Span word offsets are implicit (the prefix sum of span lengths), so the
// directory stays fixed-width and the whole data area is one contiguous
// run — mappable and checksummable in one pass.
//
// A store directory holds numbered segment files plus MANIFEST.json naming
// the sealed segments and their data checksums. Both segment files and the
// manifest are written with the temp-file + fsync + rename + directory-fsync
// protocol, so a crash mid-seal leaves either the old manifest (the
// half-written segment is garbage to be ignored) or the new one (the
// segment is complete and checksummed) — never a torn store. Recovery is
// therefore just OpenReader: read the manifest, open what it names, verify
// checksums, ignore everything else.
//
// All errors returned by the decoding paths are prefixed "segstore:"; a
// corrupt or truncated file must never panic (FuzzSegmentDecode pins this).
package segstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"unsafe"

	"repro/internal/bitset"
)

const (
	segMagic      = "TOMOSEG1"
	formatVersion = 1
	headerSize    = 48
	dirEntrySize  = 12
	wordBits      = 64

	// ManifestName is the per-directory index of sealed segments.
	ManifestName = "MANIFEST.json"

	// DefaultSegmentRows is the seal granularity when Options leaves it
	// zero: 8192 rows = 128 words = 1 KiB per dense column, two cache
	// blocks of the RAM kernels.
	DefaultSegmentRows = 8192

	// maxSeries and maxSegmentRows bound what a decoder will accept, so a
	// hostile header cannot make it allocate absurd amounts of memory.
	maxSeries      = 1 << 22
	maxSegmentRows = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hostLittle reports whether the host stores uint64s little-endian, i.e.
// whether mapped file bytes can be viewed as []uint64 without decoding.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func align8(x int) int { return (x + 7) &^ 7 }

// Options configures a TieredStore's spill directory.
type Options struct {
	// Dir is the directory segments and the manifest are written to. It is
	// created if missing. Required.
	Dir string
	// SegmentRows is the seal granularity in snapshots; it must be a
	// multiple of 64. 0 means DefaultSegmentRows.
	SegmentRows int
	// Reset discards any segment store already present in Dir. Without it,
	// NewTiered refuses to write into a directory that holds a manifest
	// (use OpenReader to inspect one).
	Reset bool
}

// manifest is the JSON index of a segment directory.
type manifest struct {
	Version     int               `json:"version"`
	Series      int               `json:"series"`
	SegmentRows int               `json:"segment_rows"`
	Segments    []manifestSegment `json:"segments"`
}

type manifestSegment struct {
	File string `json:"file"`
	Base uint64 `json:"base"`
	// CRC is the segment file's data checksum (header field at offset 40),
	// tying the manifest entry to the exact sealed content.
	CRC uint32 `json:"crc"`
}

// parseManifest decodes and validates MANIFEST.json bytes.
func parseManifest(data []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("segstore: manifest: %v", err)
	}
	if m.Version != formatVersion {
		return nil, fmt.Errorf("segstore: manifest version %d, want %d", m.Version, formatVersion)
	}
	if m.Series < 0 || m.Series > maxSeries {
		return nil, fmt.Errorf("segstore: manifest series %d outside [0, %d]", m.Series, maxSeries)
	}
	if m.SegmentRows < wordBits || m.SegmentRows > maxSegmentRows || m.SegmentRows%wordBits != 0 {
		return nil, fmt.Errorf("segstore: manifest segment_rows %d, want a multiple of %d in [%d, %d]",
			m.SegmentRows, wordBits, wordBits, maxSegmentRows)
	}
	for i, seg := range m.Segments {
		if seg.File == "" || seg.File != filepath.Base(seg.File) || strings.ContainsAny(seg.File, `/\`) {
			return nil, fmt.Errorf("segstore: manifest segment %d: file %q is not a plain name", i, seg.File)
		}
		// Sealed segments tile the timeline: segment i covers rows
		// [i·segRows, (i+1)·segRows).
		if want := uint64(i) * uint64(m.SegmentRows); seg.Base != want {
			return nil, fmt.Errorf("segstore: manifest segment %d: base %d, want %d", i, seg.Base, want)
		}
	}
	return &m, nil
}

func encodeManifest(m *manifest) []byte {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		// A manifest is plain data; Marshal cannot fail on it.
		panic("segstore: manifest encode: " + err.Error())
	}
	return append(b, '\n')
}

// encodeSegment serializes a full-span segment (the active write buffer:
// every column dense over [0, words)) into the on-disk format, trimming
// each column to its non-zero word span.
func encodeSegment(s *segment) []byte {
	words := s.words
	dataWords := 0
	spans := make([]colMeta, len(s.meta))
	for i := range s.meta {
		m := &s.meta[i]
		lo, hi := 0, 0
		if m.pop != 0 {
			col := s.data[m.off : m.off+words]
			for col[lo] == 0 {
				lo++
			}
			hi = words
			for col[hi-1] == 0 {
				hi--
			}
		}
		spans[i] = colMeta{lo: lo, hi: hi, pop: m.pop}
		dataWords += hi - lo
	}
	dirEnd := headerSize + len(s.meta)*dirEntrySize
	dataOff := align8(dirEnd)
	buf := make([]byte, dataOff+8*dataWords)
	le := binary.LittleEndian
	copy(buf, segMagic)
	le.PutUint32(buf[8:], formatVersion)
	le.PutUint32(buf[12:], uint32(len(s.meta)))
	le.PutUint32(buf[16:], uint32(s.rows))
	le.PutUint32(buf[20:], uint32(words))
	le.PutUint64(buf[24:], uint64(s.base))
	le.PutUint64(buf[32:], uint64(dataWords))
	off := dataOff
	for i := range spans {
		sp := &spans[i]
		e := buf[headerSize+i*dirEntrySize:]
		le.PutUint32(e, uint32(sp.lo))
		le.PutUint32(e[4:], uint32(sp.hi))
		le.PutUint32(e[8:], uint32(sp.pop))
		col := s.data[s.meta[i].off:]
		for w := sp.lo; w < sp.hi; w++ {
			le.PutUint64(buf[off:], col[w])
			off += 8
		}
	}
	le.PutUint32(buf[40:], crc32.Checksum(buf[headerSize:], crcTable))
	le.PutUint32(buf[44:], crc32.Checksum(buf[:44], crcTable))
	return buf
}

// parseSegment validates a segment file image and returns a queryable
// segment over it. On little-endian hosts with an 8-byte-aligned data area
// (every mmap and practically every heap read) the column words alias data
// directly — zero copy; otherwise they are decoded into fresh memory. The
// segment holds a reference to data either way.
func parseSegment(data []byte, path string) (*segment, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("segstore: %s: %d bytes, want at least the %d-byte header", path, len(data), headerSize)
	}
	le := binary.LittleEndian
	if string(data[:8]) != segMagic {
		return nil, fmt.Errorf("segstore: %s: bad magic %q", path, data[:8])
	}
	if v := le.Uint32(data[8:]); v != formatVersion {
		return nil, fmt.Errorf("segstore: %s: format version %d, want %d", path, v, formatVersion)
	}
	if got, want := le.Uint32(data[44:]), crc32.Checksum(data[:44], crcTable); got != want {
		return nil, fmt.Errorf("segstore: %s: header CRC %08x, want %08x", path, got, want)
	}
	series := int(le.Uint32(data[12:]))
	rows := int(le.Uint32(data[16:]))
	words := int(le.Uint32(data[20:]))
	base := le.Uint64(data[24:])
	dataWords64 := le.Uint64(data[32:])
	if series > maxSeries {
		return nil, fmt.Errorf("segstore: %s: %d series exceeds limit %d", path, series, maxSeries)
	}
	if rows < wordBits || rows > maxSegmentRows || rows%wordBits != 0 {
		return nil, fmt.Errorf("segstore: %s: %d rows, want a multiple of %d in [%d, %d]", path, rows, wordBits, wordBits, maxSegmentRows)
	}
	if words != rows/wordBits {
		return nil, fmt.Errorf("segstore: %s: %d words for %d rows, want %d", path, words, rows, rows/wordBits)
	}
	if base%uint64(rows) != 0 || base > 1<<56 {
		return nil, fmt.Errorf("segstore: %s: base %d is not a multiple of %d rows", path, base, rows)
	}
	dirEnd := headerSize + series*dirEntrySize
	dataOff := align8(dirEnd)
	if dataWords64 > uint64(maxSeries)*uint64(maxSegmentRows/wordBits) {
		return nil, fmt.Errorf("segstore: %s: data words %d exceeds limit", path, dataWords64)
	}
	dataWords := int(dataWords64)
	if want := dataOff + 8*dataWords; len(data) != want {
		return nil, fmt.Errorf("segstore: %s: %d bytes, want %d (%d data words)", path, len(data), want, dataWords)
	}
	if got, want := le.Uint32(data[40:]), crc32.Checksum(data[headerSize:], crcTable); got != want {
		return nil, fmt.Errorf("segstore: %s: data CRC %08x, want %08x", path, got, want)
	}
	s := &segment{
		base:  int(base),
		rows:  rows,
		words: words,
		meta:  make([]colMeta, series),
		path:  path,
		crc:   le.Uint32(data[40:]),
	}
	var colWords []uint64
	if dataWords > 0 {
		payload := data[dataOff:]
		if hostLittle && uintptr(unsafe.Pointer(&payload[0]))%8 == 0 {
			colWords = unsafe.Slice((*uint64)(unsafe.Pointer(&payload[0])), dataWords)
		} else {
			colWords = make([]uint64, dataWords)
			for i := range colWords {
				colWords[i] = le.Uint64(payload[8*i:])
			}
		}
	}
	s.data = colWords
	off := 0
	for i := 0; i < series; i++ {
		e := data[headerSize+i*dirEntrySize:]
		lo, hi, pop := int(le.Uint32(e)), int(le.Uint32(e[4:])), int(le.Uint32(e[8:]))
		if lo > hi || hi > words {
			return nil, fmt.Errorf("segstore: %s: column %d span [%d, %d) outside %d words", path, i, lo, hi, words)
		}
		if off+(hi-lo) > dataWords {
			return nil, fmt.Errorf("segstore: %s: column %d span overruns the %d data words", path, i, dataWords)
		}
		if got := bitset.PopCountWords(colWords[off : off+(hi-lo)]); got != pop {
			return nil, fmt.Errorf("segstore: %s: column %d popcount %d, directory says %d", path, i, got, pop)
		}
		s.meta[i] = colMeta{lo: lo, hi: hi, off: off, pop: pop}
		off += hi - lo
	}
	if off != dataWords {
		return nil, fmt.Errorf("segstore: %s: spans cover %d of %d data words", path, off, dataWords)
	}
	return s, nil
}

// atomicWriteFile writes name under dir crash-safely: temp file in the same
// directory, fsync, rename over the target, fsync the directory. Readers
// therefore see either the old file or the complete new one.
func atomicWriteFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir flushes the directory entry so a rename survives a crash. On
// platforms where directories cannot be fsynced the error is ignored — the
// rename itself is still atomic there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	d.Sync()
	return d.Close()
}

// MmapAvailable reports whether this platform maps segment files into
// memory (the zero-copy read path). Without it sealed segments are read
// into the heap instead — same results, more copying.
func MmapAvailable() bool { return mmapSupported }
