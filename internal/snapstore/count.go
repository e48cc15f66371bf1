package snapstore

import (
	"fmt"

	"repro/internal/bitset"
)

// CountWorkspace holds the reusable state of CountPairsCongestedWS and
// CountPairsGoodWS: per-block column summaries and the referenced-column
// registry. A workspace may be reused across calls and across stores, but
// it must not be shared between goroutines. The zero value is ready to use.
type CountWorkspace struct {
	pos  []int32 // series → 1+index into cols; 0 = unreferenced (cleared after every call)
	cols []int   // series referenced by the current call, in first-use order
	pops []int32 // per-block column popcounts: pops[ci*blocks+b] for cols[ci], block b
}

// CountPairsCongestedWS fills out[i] with the number of snapshots in which
// at least one series of pairs[i] was congested, in one cache-blocked pass
// over the columns: within a 512-word block each column's words are hot in
// cache no matter how many pairs share them. For each block it first
// records every referenced column's popcount (the block summary), then
// serves each pair from the summaries when it can: a block where both
// columns are untouched contributes nothing, a block where one column is
// untouched contributes the other's popcount, and only blocks where both
// columns have bits set pay the fused OR+POPCNT word sweep. Mostly-good
// columns — the dominant regime in the paper's workloads — skip almost
// every word.
//
// ws must be owned by the calling goroutine; out must have at least
// len(pairs) slots. It panics on an out-of-range series like the other
// accessors.
func (s *Store) CountPairsCongestedWS(ws *CountWorkspace, pairs []Pair, out []int) {
	if len(out) < len(pairs) {
		panic(fmt.Sprintf("snapstore: CountPairsCongested out has %d slots for %d pairs", len(out), len(pairs)))
	}
	out = out[:len(pairs)]
	for i := range out {
		out[i] = 0
	}

	// Register the referenced columns: pos maps series → 1+index into cols
	// so block summaries are stored densely per referenced column rather
	// than per series.
	if cap(ws.pos) < len(s.cols) {
		ws.pos = make([]int32, len(s.cols))
	}
	ws.pos = ws.pos[:len(s.cols)]
	ws.cols = ws.cols[:0]
	for _, p := range pairs {
		if p.A < 0 || p.A >= len(s.cols) || p.B < 0 || p.B >= len(s.cols) {
			for _, c := range ws.cols {
				ws.pos[c] = 0 // keep the workspace reusable past the panic
			}
			panic(fmt.Sprintf("snapstore: pair (%d,%d) out of range (%d series)", p.A, p.B, len(s.cols)))
		}
		if ws.pos[p.A] == 0 {
			ws.cols = append(ws.cols, p.A)
			ws.pos[p.A] = int32(len(ws.cols))
		}
		if ws.pos[p.B] == 0 {
			ws.cols = append(ws.cols, p.B)
			ws.pos[p.B] = int32(len(ws.cols))
		}
	}

	words := s.Words()
	blocks := (words + pairBlockWords - 1) / pairBlockWords
	if n := len(ws.cols) * blocks; cap(ws.pops) < n {
		ws.pops = make([]int32, n)
	}
	for b := 0; b < blocks; b++ {
		lo := b * pairBlockWords
		hi := min(lo+pairBlockWords, words)
		for ci, c := range ws.cols {
			ws.pops[ci*blocks+b] = int32(bitset.PopCountWords(s.cols[c][lo:hi]))
		}
		for i, p := range pairs {
			pa := ws.pops[int(ws.pos[p.A]-1)*blocks+b]
			pb := ws.pops[int(ws.pos[p.B]-1)*blocks+b]
			switch {
			case pa == 0 && pb == 0:
				// Both columns untouched in this block: skip.
			case pa == 0:
				out[i] += int(pb)
			case pb == 0:
				out[i] += int(pa)
			default:
				out[i] += bitset.OrPopCountWords(s.cols[p.A][lo:hi], s.cols[p.B][lo:hi])
			}
		}
	}

	// Unregister the referenced columns so the next call starts clean.
	for _, c := range ws.cols {
		ws.pos[c] = 0
	}
}

// CountPairsGoodWS fills out[i] with the number of snapshots in which
// neither series of pairs[i] was congested, via CountPairsCongestedWS.
func (s *Store) CountPairsGoodWS(ws *CountWorkspace, pairs []Pair, out []int) {
	s.CountPairsCongestedWS(ws, pairs, out)
	for i := range pairs {
		out[i] = s.n - out[i]
	}
}
