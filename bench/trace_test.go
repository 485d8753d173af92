package main

import (
	"reflect"
	"testing"
	"time"
)

// TestSelfTimeOverlappingChildren: a span's self time subtracts the
// union of its children's intervals, so overlapping children count once
// and a child's part outside the parent counts not at all.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "parent", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 20},  // grandchild
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestSelfByName: self times are summed by name, apart for spans inside
// an operation (at any depth) and beside one.
func TestSelfByName(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: rootSpan, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "dataset.read", Start: 0, End: 30},
		{ID: 2, Parent: 1, Name: "dataset.decode", Start: 5, End: 25},
		{ID: 3, Parent: -1, Name: "dataset.validate", Start: 100, End: 150},
		{ID: 4, Parent: -1, Name: rootSpan, Start: 150, End: 250},
		{ID: 5, Parent: 4, Name: "dataset.read", Start: 150, End: 160},
	}
	got := selfByName(spans)
	want := selfNs{
		inside: map[string]int64{rootSpan: 70 + 90, "dataset.read": 10 + 10, "dataset.decode": 20},
		beside: map[string]int64{"dataset.validate": 50},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfByName = %+v, want %+v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin(rootSpan)
	v, err := call(tr, "x.inner", func() (int, error) { return 7, nil })
	tr.end(root)
	tr.derive(root, []stage{{"x.a", time.Microsecond}, {"x.b", 2 * time.Microsecond}})
	if v != 7 || err != nil {
		t.Fatalf("call returned %v, %v", v, err)
	}
	if len(tr.spans) != 4 || tr.spans[1].Parent != root || tr.spans[2].Parent != root || !tr.spans[3].Derived {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if a, b := tr.spans[2], tr.spans[3]; a.End != b.Start || b.End-b.Start != 2000 {
		t.Fatalf("derived stages not laid back to back: %+v %+v", a, b)
	}

	var off *tracer // the untraced mode
	id := off.begin("x")
	off.end(id)
	off.derive(id, []stage{{"x", time.Second}})
	if _, err := call(off, "x", func() (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
}
