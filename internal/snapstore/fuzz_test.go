package snapstore

import (
	"testing"

	"repro/internal/bitset"
)

// FuzzAppend fuzzes the store's streaming ingestion, differentially: the
// input bytes encode a sequence of appended rows with arbitrary bit
// patterns, applied to a streaming store while a plain shadow slice keeps
// the rows. After every append the store's counts and rows must match the
// shadow, and the store must Equal a FromRows store over the shadow. No
// input may panic; byte-derived series indices are kept in range
// (out-of-range appends are a documented panic).
func FuzzAppend(f *testing.F) {
	f.Add([]byte{3, 8, 0x01, 0x02, 0xff, 0x00})
	f.Add([]byte{1, 1, 0x80, 0x80, 0x80})
	f.Add([]byte{7, 64, 0xaa, 0x55, 0xee})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		series := 1 + int(data[0])%70 // straddles a word boundary
		store := New(series)
		var shadow []*bitset.Set

		for _, op := range data[1:] {
			// Derive a row from the op byte: bit i is set when (op+7i) is a
			// multiple of 5.
			row := bitset.New(series)
			for i := 0; i < series; i++ {
				if (int(op)+i*7)%5 == 0 {
					row.Add(i)
				}
			}
			if got := store.Append(row); got != len(shadow) {
				t.Fatalf("Append returned index %d, want %d", got, len(shadow))
			}
			shadow = append(shadow, row)

			if store.Snapshots() != len(shadow) {
				t.Fatalf("store holds %d snapshots, shadow %d", store.Snapshots(), len(shadow))
			}
			for i := 0; i < series; i++ {
				want := 0
				for _, r := range shadow {
					if r.Contains(i) {
						want++
					}
				}
				if got := store.CongestedCount(i); got != want {
					t.Fatalf("series %d: count %d, shadow recount %d", i, got, want)
				}
			}
			for w, r := range shadow {
				if !store.Row(w).Equal(r) {
					t.Fatalf("row %d: %v, want %v", w, store.Row(w), r)
				}
			}
			if !store.Equal(FromRows(series, shadow)) {
				t.Fatal("streaming store does not Equal a fixed store over the same rows")
			}
		}
	})
}
