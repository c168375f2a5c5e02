package main

import (
	"testing"
	"time"
)

// TestComputeSelf covers nested children, children that overlap each
// other, and a child that sticks out of its parent: each instant of the
// parent is subtracted once, and only inside the parent's interval.
func TestComputeSelf(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "decode", Parent: 0, Start: 0, End: 10 * ms},
		// Two overlapping children: 20–50 and 40–70 cover 50ms.
		{Name: "a", Parent: 0, Start: 20 * ms, End: 50 * ms},
		{Name: "b", Parent: 0, Start: 40 * ms, End: 70 * ms},
		// Nested under b: 45–60.
		{Name: "b.inner", Parent: 3, Start: 45 * ms, End: 60 * ms},
		// Sticks out of the request: only 90–100 counts.
		{Name: "tail", Parent: 0, Start: 90 * ms, End: 120 * ms},
	}
	computeSelf(spans)
	want := map[string]time.Duration{
		"request": 100*ms - 10*ms - 50*ms - 10*ms,
		"decode":  10 * ms,
		"a":       30 * ms,
		"b":       30*ms - 15*ms,
		"b.inner": 15 * ms,
		"tail":    30 * ms,
	}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s self = %v, want %v", s.Name, s.Self, want[s.Name])
		}
	}
}

// TestRecorderSpans checks that the recorder links parents and times
// spans in order.
func TestRecorderSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("request", 3, -1)
	child := r.begin("decode", 3, root)
	r.end(child)
	r.end(root)
	computeSelf(r.spans)
	c, p := r.spans[child], r.spans[root]
	if c.Parent != root || c.Request != 3 || c.Start < p.Start || c.End > p.End {
		t.Fatalf("bad spans: %+v", r.spans)
	}
	if p.Self != (p.End-p.Start)-(c.End-c.Start) {
		t.Errorf("root self %v, want its duration minus the child's", p.Self)
	}
}
