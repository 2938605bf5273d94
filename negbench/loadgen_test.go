package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"negmine/internal/loadsim"
)

func TestCapacityIsTopPassingRateBeforeSaturation(t *testing.T) {
	ok := func(rps float64) rung { return rung{rps: rps, n: 1000, tailMs: 5} }
	slow := func(rps float64) rung { return rung{rps: rps, n: 1000, tailMs: 50} }
	for _, c := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"all pass", []rung{ok(100), ok(200), ok(300)}, 300},
		{"one transient failure is skipped", []rung{ok(100), ok(200), slow(300), ok(400)}, 400},
		{"two failures in a row saturate", []rung{ok(100), ok(200), slow(300), slow(400), ok(500)}, 200},
		{"none pass", []rung{slow(100), slow(200)}, 0},
		{"failed request fails the step", []rung{ok(100), {rps: 200, n: 1000, tailMs: 5, failed: 1}}, 100},
		{"growing backlog fails the step", []rung{ok(100), {rps: 200, n: 1000, tailMs: 5, backlog: 11}}, 100},
		{"small backlog is steady", []rung{ok(100), {rps: 200, n: 1000, tailMs: 5, backlog: 10}}, 200},
	} {
		if got := capacity(c.rungs, 25); got != c.want {
			t.Errorf("%s: capacity = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBacklogCountsRequestsStartedAfterLastDue(t *testing.T) {
	ms := time.Millisecond
	r := &loadRun{out: []outcome{
		{due: 0, start: 1 * ms}, {due: 10 * ms, start: 12 * ms}, {due: 20 * ms, start: 25 * ms}, {due: 30 * ms, start: 31 * ms},
	}}
	if got := r.backlog(); got != 1 {
		t.Errorf("backlog = %d, want 1", got)
	}
}

// TestOpenLoopTimesFromDueTime stalls the target: requests due during the
// stall must wait, and their latency must count the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var inFlight, peak atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		if r.URL.Query().Get("item") == "stall" {
			time.Sleep(100 * time.Millisecond)
		}
	}))
	defer srv.Close()
	var ops []loadsim.Op
	for i := 0; i < 10; i++ {
		item := "x"
		if i < 2 {
			item = "stall" // occupies both connections
		}
		ops = append(ops, loadsim.Op{At: time.Duration(i) * 5 * time.Millisecond, Kind: loadsim.OpRules, Item: item})
	}
	r := openLoop(context.Background(), srv.URL, ops, 2, nil)
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d, want ≤ 2 connections", p)
	}
	if failed, _ := r.failures(); failed != 0 {
		t.Fatalf("%d requests failed", failed)
	}
	// Request 2 was due at 10ms but no connection was free until ~100ms.
	if lat := r.out[2].latency(); lat < 80*time.Millisecond {
		t.Errorf("request 2 latency %v: the wait behind the stall was not counted", lat)
	}
	if r.out[2].start-r.out[2].due < 80*time.Millisecond {
		t.Errorf("request 2 started %v after its due time; want it queued behind the stall", r.out[2].start-r.out[2].due)
	}
}

func TestSaturatedNeedsTwoFailuresInARow(t *testing.T) {
	ok, slow := rung{n: 1000, tailMs: 5}, rung{n: 1000, tailMs: 50}
	for _, c := range []struct {
		rungs []rung
		want  bool
	}{
		{[]rung{slow}, false}, {[]rung{ok, slow}, false}, {[]rung{slow, ok}, false},
		{[]rung{ok, slow, slow}, true}, {[]rung{slow, slow}, true},
	} {
		if got := saturated(c.rungs, 25); got != c.want {
			t.Errorf("saturated(%v) = %v, want %v", c.rungs, got, c.want)
		}
	}
}
