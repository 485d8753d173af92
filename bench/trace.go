package main

import (
	"sort"
	"time"
)

// rootSpan names the span the harness opens around every timed
// operation; layer spans nest inside it or, for calls made beside the
// operation (mirrors, model swaps, context set-up), sit next to it.
const rootSpan = "bench.op"

// span is one call into a layer's public function, timed by the
// harness. Names are "<layer>.<call>". Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a top-level span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived marks a span laid out from a duration a layer reported
	// (core.TrainReport's stage times) rather than timed by the
	// harness: its length is exact, its position inside the parent is
	// not.
	Derived bool `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally. A tracer is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span as a child of the innermost open span and returns
// its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// derive records back-to-back child spans of parent from reported stage
// durations, starting at the parent's start.
func (t *tracer) derive(parent int, stages []stage) {
	if t == nil {
		return
	}
	at := t.spans[parent].Start
	for _, st := range stages {
		id := len(t.spans)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: st.name, Start: at, End: at + int64(st.d), Derived: true})
		at += int64(st.d)
	}
}

// stage is one reported stage duration.
type stage struct {
	name string
	d    time.Duration
}

// call runs fn inside a span named name.
func call[T any](t *tracer, name string, fn func() (T, error)) (T, error) {
	id := t.begin(name)
	v, err := fn()
	t.end(id)
	return v, err
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap one
// another are counted once, and any part of a child outside its parent
// is ignored.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		sp := &spans[i]
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, sp.Start), min(spans[c].End, sp.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = sp.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = sp.End - sp.Start - covered
	}
	return self
}

// selfNs is the summed self time in nanoseconds of each span name,
// kept apart for spans inside a timed operation (under a rootSpan) and
// for spans beside one (mirror calls, model swaps, context set-up).
type selfNs struct {
	inside, beside map[string]int64
}

// selfByName sums self times by span name. A span's parent always
// precedes it, so one pass in order finds which spans lie inside an
// operation.
func selfByName(spans []span) selfNs {
	self := selfTimes(spans)
	in := make([]bool, len(spans))
	out := selfNs{inside: make(map[string]int64), beside: make(map[string]int64)}
	for i := range spans {
		p := spans[i].Parent
		in[i] = spans[i].Name == rootSpan || (p >= 0 && in[p])
		if in[i] {
			out.inside[spans[i].Name] += self[i]
		} else {
			out.beside[spans[i].Name] += self[i]
		}
	}
	return out
}
