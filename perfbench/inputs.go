package main

import (
	"fmt"
	"time"

	tomography "repro"
	"repro/internal/bitset"
	"repro/internal/serve"
)

// topologySeed fixes the scenario's topology for every run. The --seed
// varies the simulated congestion realization only: a topology drawn per
// seed changes the work itself (the mle optimizer needed 15 ms on one
// seed's topology and 43 ms on another's), and runs on different seeds
// must measure the same work.
const topologySeed = 1

// stream is one simulated probe feed over a named scenario's topology. The
// benchmark replays it cyclically: row t of the feed is row t mod rows of
// the simulation, so a run may last longer than the simulated span without
// simulating more (simulation costs ~11 µs per snapshot on the diurnal
// mesh).
type stream struct {
	scenario string
	seed     int64 // scenario seed; daemon tenants register with the same one
	top      *tomography.Topology
	rec      *tomography.Record
	rows     int
	wpr      int // uint64 words per packed row
	words    []uint64
	buildDur time.Duration
	simDur   time.Duration
}

// newStream builds the scenario on the fixed topology and simulates rows
// snapshots of it under simSeed. Equal arguments give identical streams.
func newStream(scenario string, simSeed int64, rows int) (*stream, error) {
	t0 := time.Now()
	scn, err := tomography.BuildScenario(scenario, topologySeed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if scn.Process == nil {
		return nil, fmt.Errorf("scenario %q has no time-indexed process", scenario)
	}
	rec, err := tomography.SimulateDynamic(tomography.DynamicSimConfig{
		Topology: scn.Topology, Process: scn.Process, Snapshots: rows, Seed: simSeed,
	})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	s := &stream{
		scenario: scenario, seed: topologySeed, top: scn.Topology, rec: rec, rows: rows,
		wpr: (scn.Topology.NumPaths() + 63) / 64, buildDur: t1.Sub(t0), simDur: t2.Sub(t1),
	}
	s.words = make([]uint64, rows*s.wpr)
	row := bitset.New(scn.Topology.NumPaths())
	for t := 0; t < rows; t++ {
		rec.Paths.RowInto(t, row)
		copy(s.words[t*s.wpr:(t+1)*s.wpr], row.Words())
	}
	return s, nil
}

func (s *stream) numPaths() int { return s.top.NumPaths() }

// rowSet writes feed row t into dst.
func (s *stream) rowSet(t int, dst *bitset.Set) { s.rec.Paths.RowInto(t%s.rows, dst) }

// batchWords copies feed rows [start, start+n) into dst as packed word
// rows, the layout Window.ObserveBatchWords and the binary wire carry.
func (s *stream) batchWords(start, n int, dst []uint64) []uint64 {
	dst = dst[:0]
	for t := start; t < start+n; t++ {
		r := t % s.rows
		dst = append(dst, s.words[r*s.wpr:(r+1)*s.wpr]...)
	}
	return dst
}

// sets returns feed rows [start, start+n) as fresh path sets.
func (s *stream) sets(start, n int) []*bitset.Set {
	out := make([]*bitset.Set, n)
	for i := range out {
		out[i] = bitset.New(s.numPaths())
		s.rowSet(start+i, out[i])
	}
	return out
}

// body encodes feed rows [start, start+n) as one ingest request body.
func (s *stream) body(start, n int, binary bool) ([]byte, error) {
	if binary {
		return serve.EncodeReportsBinary(s.sets(start, n), s.numPaths())
	}
	return serve.EncodeReports(s.sets(start, n))
}

// record materializes feed rows [start, start+n) as a Record.
func (s *stream) record(start, n int) *tomography.Record {
	return tomography.NewRecordFromRows(s.numPaths(), s.sets(start, n))
}
