package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "mine", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "a1", Start: 15 * ms, End: 25 * ms}, // grandchild: not the parent's child
	}
	if got, want := selfTime(spans, 1), 40*ms; got != want {
		t.Errorf("self(mine) = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 2), 20*ms; got != want {
		t.Errorf("self(a) = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 3), 30*ms; got != want {
		t.Errorf("self(b) = %v, want %v (a leaf's self time is its duration)", got, want)
	}
}

func TestTracerRecordsAndSums(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0)
	t0 := time.Now()
	tr.add("count", root, 7, t0, t0.Add(time.Millisecond))
	tr.add("count", root, 8, t0.Add(2*time.Millisecond), t0.Add(5*time.Millisecond))
	tr.end(root)
	other := tr.begin("other", 0)
	tr.add("count", other, 9, t0, t0.Add(time.Second)) // outside root's subtree
	tr.end(other)
	spans := tr.snapshot()
	if got := sumSelfUnder(spans, root, "count"); got != 4*time.Millisecond {
		t.Errorf("sumSelfUnder(root, count) = %v, want 4ms", got)
	}
	if got := byName(spans, "count"); len(got) != 3 || got[0].Req != 7 || got[1].Parent != root {
		t.Errorf("byName(count) = %+v", got)
	}
	if spans[root-1].End < spans[root-1].Start {
		t.Error("end must close the span after its start")
	}
}
