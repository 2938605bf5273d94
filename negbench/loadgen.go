package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"time"

	"negmine/internal/loadsim"
)

// outcome is what happened to one scripted request. Times are offsets from
// the start of the load run.
type outcome struct {
	due   time.Duration // when the script says the request is sent
	sent  time.Duration // when the generator queued it; sent−due is generator lag
	start time.Duration // when a connection picked it up
	end   time.Duration
	code  int    // HTTP status; 0 = transport error
	body  []byte // response body, kept only for sampled requests
}

// latency is the request's time from its due time to its response: the
// open-loop measure, which charges queueing behind a stall to the requests
// that waited.
func (o outcome) latency() time.Duration { return o.end - o.due }

// loadRun is one open-loop execution of a script.
type loadRun struct {
	ops []loadsim.Op
	out []outcome
}

// openLoop sends ops at their scripted times over at most conns connections,
// whatever the target's speed: a request that finds every connection busy
// waits in the generator's queue, and that wait counts in its latency.
// keep selects the requests whose response bodies are retained.
func openLoop(ctx context.Context, target string, ops []loadsim.Op, conns int, keep func(i int) bool) *loadRun {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 15 * time.Second}

	r := &loadRun{ops: ops, out: make([]outcome, len(ops))}
	queue := make(chan int, len(ops)) // sized to the number of sends: the generator never blocks
	done := make(chan struct{})
	base := time.Now()
	for w := 0; w < conns; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range queue {
				o := &r.out[i]
				o.start = time.Since(base)
				o.code, o.body = send(ctx, client, target, ops[i], keep != nil && keep(i))
				o.end = time.Since(base)
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
	for i, op := range ops {
		r.out[i].due = op.At
		if wait := time.Until(base.Add(op.At)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		r.out[i].sent = time.Since(base)
		queue <- i
	}
	close(queue)
	for w := 0; w < conns; w++ {
		<-done
	}
	return r
}

// traffic is the request model both serve workloads send: the repo's
// documented simulator defaults (cmd/negload's flags and
// loadsim.Config's defaults) — 20% /ingest, 40% /score and 40% /rules,
// 16 baskets per /ingest, Poisson baskets of mean 4 items, Zipf 1 item
// popularity, and reads that ask for every matching rule (no limit). Drift
// and flash-sale bursts are off, as they are in those defaults. Only the
// rate is chosen per workload; a read-only workload drops the /ingest
// share and keeps the 1:1 read split.
//
// The script's own seed is fixed, like the datasets' model seed: the
// benchmark seed renames the items the script draws from (dataset.write
// returns the dictionary in model order), so every seed sends the same
// requests about the same model items under that seed's names. part tells
// apart the separate scripts of one run.
func traffic(part int64, d time.Duration, rps float64, ingest bool) loadsim.Config {
	cfg := loadsim.Config{
		Seed: 1 + part, Duration: d, RPS: rps,
		MixIngest: 0.2, MixScore: 0.4, MixRules: 0.4,
		IngestBatch: 16, BasketMean: 4, Zipf: 1,
	}
	if !ingest {
		cfg.MixIngest = 0
	}
	return cfg
}

// rulesURL is the /rules request for item.
func rulesURL(target, item string) string {
	return target + "/rules?item=" + url.QueryEscape(item)
}

// send performs one scripted request and returns its status and, when
// keepBody is set, its body.
func send(ctx context.Context, client *http.Client, target string, op loadsim.Op, keepBody bool) (int, []byte) {
	var req *http.Request
	var err error
	switch op.Kind {
	case loadsim.OpRules:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, rulesURL(target, op.Item), nil)
	case loadsim.OpScore:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, target+"/score", bytes.NewReader(op.Body))
	default:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, target+"/ingest", bytes.NewReader(op.Body))
	}
	if err != nil {
		return 0, nil
	}
	if op.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	if keepBody {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, nil
		}
		return resp.StatusCode, b
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, nil
	}
	return resp.StatusCode, nil
}

// ok reports whether the request succeeded with a 2xx status.
func (o outcome) ok() bool { return o.code >= 200 && o.code < 300 }

// latencies returns the latencies in ms of the successful requests of the
// given op kinds.
func (r *loadRun) latencies(kinds ...int) dist {
	var d dist
	for i, o := range r.out {
		for _, k := range kinds {
			if r.ops[i].Kind == k && o.ok() {
				d.xs = append(d.xs, ms(o.latency()))
			}
		}
	}
	return d
}

// lag returns how late the generator queued each request, in ms.
func (r *loadRun) lag() dist {
	d := dist{name: "loadgen.lag"}
	for _, o := range r.out {
		d.xs = append(d.xs, ms(o.sent-o.due))
	}
	return d
}

// failures counts requests that got no 2xx answer, and among them the 5xx
// answers.
func (r *loadRun) failures() (failed, serverErrors int) {
	for _, o := range r.out {
		if !o.ok() {
			failed++
		}
		if o.code >= 500 {
			serverErrors++
		}
	}
	return failed, serverErrors
}

// backlog counts requests that had not reached a connection by the time
// the last request fell due: with a steady queue it stays near zero, with
// a growing one it rises with the step's length.
func (r *loadRun) backlog() int {
	if len(r.out) == 0 {
		return 0
	}
	last := r.out[len(r.out)-1].due
	n := 0
	for _, o := range r.out {
		if o.start > last {
			n++
		}
	}
	return n
}

// tailPct is the percentile the load's tail checks use: the generator's lag
// and each capacity-ladder step's read latency. A p99 would need 1,000
// requests (10 beyond it), more than a ladder step or a 10-second run at a
// rate below the router's knee sends; a p90 needs 110.
const tailPct = 90

// rung is one step of the capacity ladder.
type rung struct {
	rps     float64
	n       int     // requests sent
	tailMs  float64 // read tailPct-th percentile from due time
	failed  int     // requests without a 2xx answer
	backlog int
}

// passes reports whether the step met the latency limit with every request
// answered and no growing backlog.
func (g rung) passes(limitMs float64) bool {
	return g.failed == 0 && g.tailMs <= limitMs && g.backlog <= max(1, g.n/100)
}

// saturated reports whether the ladder has reached saturation: two steps
// in a row failed. One failing step between passing ones is a transient
// stall (a collection pause, a noisy neighbour), not the knee.
func saturated(rungs []rung, limitMs float64) bool {
	n := len(rungs)
	return n >= 2 && !rungs[n-1].passes(limitMs) && !rungs[n-2].passes(limitMs)
}

// capacity is the highest passing rate of the ladder up to saturation. It
// is 0 when no step passes.
func capacity(rungs []rung, limitMs float64) float64 {
	c := 0.0
	for i, g := range rungs {
		if saturated(rungs[:i+1], limitMs) {
			break
		}
		if g.passes(limitMs) {
			c = g.rps
		}
	}
	return c
}

// measureRung turns one ladder step's run into a rung.
func measureRung(rps float64, r *loadRun) rung {
	g := rung{rps: rps, n: len(r.out), backlog: r.backlog()}
	g.failed, _ = r.failures()
	d := r.latencies(loadsim.OpScore, loadsim.OpRules)
	d.name = fmt.Sprintf("ladder %.0f rps reads", rps)
	v, err := d.pct(tailPct)
	if err != nil {
		// Too few answered reads for the percentile: the step failed.
		g.tailMs = math.Inf(1)
		return g
	}
	g.tailMs = v
	return g
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
