package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one traced call into a layer. Parent is the index of the
// enclosing span (-1 at the root); Op groups the spans of one
// end-to-end operation.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Alloc  uint64        `json:"alloc_bytes"` // bytes allocated between start and end
	alloc0 uint64
}

// tracer records spans in memory from one goroutine; write dumps them
// when the run ends. A nil *tracer records nothing, so untraced code
// paths call the same functions.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// begin opens a span nested in the innermost open span.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, alloc0: allocBytes(), Start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0)
	s.Alloc = allocBytes() - s.alloc0
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, op int, fn func()) {
	id := t.begin(name, op)
	fn()
	t.end(id)
}

// selfTime is a span's duration minus the part of it its children
// cover, and likewise for allocated bytes.
type selfTime struct {
	Dur   time.Duration
	Alloc uint64
}

// selfTimes computes every span's self time. Children may overlap one
// another (they never do from one goroutine, but the subtraction must
// not count a covered instant twice), so covered time is the length of
// the union of the children's intervals clipped to the parent.
func selfTimes(spans []span) []selfTime {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]selfTime, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		var kidAlloc uint64
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
			kidAlloc += spans[k].Alloc
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var curA, curB time.Duration
		for j, v := range ivs {
			if j == 0 || v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		out[i].Dur = s.End - s.Start - covered
		if s.Alloc > kidAlloc {
			out[i].Alloc = s.Alloc - kidAlloc
		}
	}
	return out
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
