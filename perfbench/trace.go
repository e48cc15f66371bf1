package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Spans of one operation share req; root
// spans (the operations themselves) have parent −1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for one goroutine. A disabled recorder
// records nothing, so a driver runs the same code traced and untraced.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32
	req   int64
}

func newRecorder(on bool) *recorder { return &recorder{on: on, epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// op opens a root span under a fresh request id.
func (r *recorder) op(name string) int32 {
	if !r.on {
		return -1
	}
	r.req++
	return r.push(name, -1)
}

// begin opens a span nested in the innermost open span.
func (r *recorder) begin(name string) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	return r.push(name, parent)
}

func (r *recorder) push(name string, parent int32) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Start: r.now(), Parent: parent, Req: r.req})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	if !r.on {
		return
	}
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = r.now()
}

// call wraps fn in a span.
func (r *recorder) call(name string, fn func()) {
	id := r.begin(name)
	fn()
	r.end(id)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap each other or stick out
// of the parent; only the union of their intervals clipped to the parent
// is subtracted.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := int64(0)
		curA, curB := int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[i] = s.dur() - covered
	}
	return out
}

// breakdown sums self time by span name over every operation whose root
// span is named root, together with those operations' total wall time.
func breakdown(spans []span, self []int64, root string) (byName map[string]int64, wall int64, ops int) {
	byName = map[string]int64{}
	rootOf := make([]int32, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = int32(i)
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
		if spans[rootOf[i]].Name != root {
			continue
		}
		byName[s.Name] += self[i]
		if s.Parent < 0 {
			wall += s.dur()
			ops++
		}
	}
	return byName, wall, ops
}

// durations returns the durations in milliseconds of every span named name.
func durations(spans []span, name string) latencies {
	var out latencies
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
