package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	mathbits "math/bits"
	"strings"

	"repro/internal/bitset"
)

// The TOMOW1 binary columnar wire format. A 20-byte little-endian header:
//
//	offset 0  magic "TOMOW1" (6 bytes)
//	offset 6  version (1 byte, currently 1)
//	offset 7  flags (1 byte; bit 0: 1 ⇒ sparse payload, 0 ⇒ dense; other
//	          bits must be zero)
//	offset 8  numPaths (uint32) — must equal the tenant's path count
//	offset 12 snapshots (uint32)
//	offset 16 CRC-32C (Castagnoli) of the payload (uint32)
//
// followed by the payload. The dense payload is snapshots rows of
// ceil(numPaths/64) uint64 words each (bit i of word w ⇒ path w*64+i) —
// the exact row layout the segstore window appends, so an accepted batch is
// appended with no per-snapshot re-packing. The sparse payload (for mostly-good snapshots;
// only expressible when numPaths fits in 16 bits) is, per snapshot, a
// uint16 index count followed by that many strictly increasing uint16 path
// indices. The encoder picks whichever payload is smaller per batch; the
// flag byte says which it picked.
const (
	binaryMagic     = "TOMOW1"
	binaryVersion   = 1
	binaryHeaderLen = 20
	flagSparse      = 0x01
)

// castagnoli is the CRC-32C table (the polynomial with hardware support on
// both x86 and arm64) shared by the encoder and decoder.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// isBinaryContentType reports whether an ingest Content-Type selects the
// binary wire format. Media-type parameters ("; charset=...") are ignored;
// everything that is not the binary media type falls back to JSON.
func isBinaryContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == ContentTypeBinary
}

// EncodeReportsBinary renders congested-path sets as a TOMOW1 binary batch
// — the client half of the binary wire format, used by the firehose load
// generator and tests. The encoder computes both payload sizes and emits
// the smaller (ties go dense); indices at or past numPaths are rejected so
// an encoded batch always decodes against a tenant with that path count.
func EncodeReportsBinary(sets []*bitset.Set, numPaths int) ([]byte, error) {
	if numPaths <= 0 {
		return nil, fmt.Errorf("serve: encode binary batch: tenant has %d paths", numPaths)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("serve: encode binary batch: no reports")
	}
	words := rowWords(numPaths)
	denseSize := len(sets) * words * 8
	sparseSize := 0
	for t, s := range sets {
		n, bad := 0, -1
		s.ForEach(func(i int) bool {
			if i >= numPaths {
				bad = i
				return false
			}
			n++
			return true
		})
		if bad >= 0 {
			return nil, fmt.Errorf("serve: encode binary batch: snapshot %d: path index %d out of range for %d paths", t, bad, numPaths)
		}
		sparseSize += 2 + 2*n
	}

	var payload []byte
	flags := byte(0)
	if numPaths <= 0xFFFF && sparseSize < denseSize {
		flags = flagSparse
		payload = make([]byte, 0, sparseSize)
		var u16 [2]byte
		for _, s := range sets {
			binary.LittleEndian.PutUint16(u16[:], uint16(s.Len()))
			payload = append(payload, u16[0], u16[1])
			s.ForEach(func(i int) bool {
				binary.LittleEndian.PutUint16(u16[:], uint16(i))
				payload = append(payload, u16[0], u16[1])
				return true
			})
		}
	} else {
		payload = make([]byte, denseSize)
		for t, s := range sets {
			sw := s.Words()
			base := t * words * 8
			// A set sized past numPaths only holds zero words out there
			// (validated above), and a smaller one means trailing all-good
			// words — either way copying min(words, len(sw)) is exact.
			for w := 0; w < words && w < len(sw); w++ {
				binary.LittleEndian.PutUint64(payload[base+w*8:], sw[w])
			}
		}
	}

	out := make([]byte, binaryHeaderLen+len(payload))
	copy(out, binaryMagic)
	out[6] = binaryVersion
	out[7] = flags
	binary.LittleEndian.PutUint32(out[8:], uint32(numPaths))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(sets)))
	binary.LittleEndian.PutUint32(out[16:], crc32.Checksum(payload, castagnoli))
	copy(out[binaryHeaderLen:], payload)
	return out, nil
}

// decodeReportsBinaryInto parses and validates one TOMOW1 batch into a
// reusable word batch. Every rejection is a descriptive serve-prefixed
// error, never a panic (FuzzBinaryIngestDecode pins this), and the
// validation order is fixed so the exact-error-string tests are
// deterministic: header shape (length, magic, version, flags), path-count
// match, snapshot count against maxBatch, payload CRC, then
// format-specific structure. Index errors reuse DecodeReports' strings, so
// the two wire formats reject an out-of-range path identically.
func decodeReportsBinaryInto(b *wordBatch, data []byte, numPaths, maxBatch int) error {
	if numPaths <= 0 {
		return fmt.Errorf("serve: decode probe batch: tenant has %d paths", numPaths)
	}
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if len(data) < binaryHeaderLen {
		return fmt.Errorf("serve: binary probe batch: %d-byte body, want at least the %d-byte header", len(data), binaryHeaderLen)
	}
	if string(data[:6]) != binaryMagic {
		return fmt.Errorf("serve: binary probe batch: bad magic %q", data[:6])
	}
	if v := data[6]; v != binaryVersion {
		return fmt.Errorf("serve: binary probe batch: unsupported version %d", v)
	}
	flags := data[7]
	if flags&^byte(flagSparse) != 0 {
		return fmt.Errorf("serve: binary probe batch: unknown flags 0x%02x", flags)
	}
	if batchPaths := int(binary.LittleEndian.Uint32(data[8:12])); batchPaths != numPaths {
		return fmt.Errorf("serve: binary probe batch encodes %d paths, tenant has %d", batchPaths, numPaths)
	}
	snaps := int(binary.LittleEndian.Uint32(data[12:16]))
	if snaps == 0 {
		return fmt.Errorf("serve: binary probe batch carries no reports")
	}
	if snaps > maxBatch {
		return fmt.Errorf("serve: binary probe batch carries %d snapshots, limit %d", snaps, maxBatch)
	}
	payload := data[binaryHeaderLen:]
	wantCRC := binary.LittleEndian.Uint32(data[16:20])
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return fmt.Errorf("serve: binary probe batch: payload CRC 0x%08x, header declares 0x%08x", got, wantCRC)
	}
	words := rowWords(numPaths)

	if flags&flagSparse == 0 {
		if want := snaps * words * 8; len(payload) != want {
			return fmt.Errorf("serve: binary probe batch: dense payload is %d bytes, want %d (%d snapshots x %d words)", len(payload), want, snaps, words)
		}
		b.resetRaw(snaps, words)
		for k := range b.words {
			b.words[k] = binary.LittleEndian.Uint64(payload[k*8:])
		}
		// Bits at or past numPaths in a row's tail word would address
		// columns the tenant does not have; reject them with the shared
		// out-of-range string.
		if tail := numPaths % 64; tail != 0 {
			mask := ^uint64(0) << uint(tail)
			for t := 0; t < snaps; t++ {
				if stray := b.row(t)[words-1] & mask; stray != 0 {
					p := (words-1)*64 + mathbits.TrailingZeros64(stray)
					return fmt.Errorf("serve: snapshot %d: path index %d out of range for %d paths", t, p, numPaths)
				}
			}
		}
		return nil
	}

	b.reset(snaps, words)
	off := 0
	for t := 0; t < snaps; t++ {
		if off+2 > len(payload) {
			return fmt.Errorf("serve: binary probe batch: sparse payload truncated in snapshot %d", t)
		}
		n := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if off+2*n > len(payload) {
			return fmt.Errorf("serve: binary probe batch: sparse payload truncated in snapshot %d", t)
		}
		row := b.row(t)
		prev := -1
		for k := 0; k < n; k++ {
			p := int(binary.LittleEndian.Uint16(payload[off:]))
			off += 2
			if p >= numPaths {
				return fmt.Errorf("serve: snapshot %d: path index %d out of range for %d paths", t, p, numPaths)
			}
			if p <= prev {
				return fmt.Errorf("serve: binary probe batch: snapshot %d: path indices not strictly increasing", t)
			}
			prev = p
			row[p/64] |= 1 << uint(p%64)
		}
	}
	if off != len(payload) {
		return fmt.Errorf("serve: binary probe batch: %d trailing payload bytes", len(payload)-off)
	}
	return nil
}
