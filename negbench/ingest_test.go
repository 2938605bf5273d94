package main

import (
	"fmt"
	"testing"
	"time"

	"negmine/internal/loadsim"
)

// TestPlantsStayLargeAtTheCoveringRefresh checks the tracer sizing: every
// plant must hold margin·minsup of all transactions written up to two
// re-mine intervals after it, later plants included.
func TestPlantsStayLargeAtTheCoveringRefresh(t *testing.T) {
	run := 10 * time.Second
	var ops []loadsim.Op
	for at := time.Duration(0); at < run; at += 10 * time.Millisecond {
		ops = append(ops, loadsim.Op{At: at, Kind: loadsim.OpIngest, Txns: 16})
	}
	tracers := make([]loadsim.Tracer, tracerCount)
	for i := range tracers {
		tracers[i] = loadsim.Tracer{Antecedent: fmt.Sprint("a", i), Partner: fmt.Sprint("x", i), Consequent: fmt.Sprint("b", i)}
	}
	plants := planTracers(tracers, ops, 5000, run)
	for i, p := range plants {
		horizon := p.at + 2*remineEvery
		n := 5000
		for _, op := range ops {
			if op.At <= horizon {
				n += op.Txns
			}
		}
		for _, q := range plants {
			if q.at <= horizon {
				n += 2 * q.k
			}
		}
		if need := tracerMargin * ingestMinSup * float64(n); float64(p.k) < need {
			t.Errorf("plant %d at %v: k = %d, want ≥ %.1f of %d transactions", i, p.at, p.k, need, n)
		}
		if i > 0 && p.at <= plants[i-1].at {
			t.Errorf("plant %d at %v not after plant %d at %v", i, p.at, i-1, plants[i-1].at)
		}
	}
}
