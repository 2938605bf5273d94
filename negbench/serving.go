package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"negmine/internal/artifact"
	"negmine/internal/loadsim"
	"negmine/internal/serve"
	"negmine/internal/taxonomy"
)

// conns is how many connections the load generator may hold open: the
// core count of the two-core machine the workloads are sized for.
const conns = 2

// lagLimitMs bounds how late the generator may queue a request. Beyond it
// the run measured the generator, not the system, and is invalid.
const lagLimitMs = 100

// statusClient is for readiness probes and /metrics reads, outside the load.
var statusClient = &http.Client{Timeout: 5 * time.Second}

// startDaemon launches a negmined or negrouter and waits until /healthz
// answers 200 (negmined serves only after its first snapshot is loaded).
func (r *run) startDaemon(name, bin, addr string, args ...string) (*proc, error) {
	p, err := r.ps.start(name, r.path(name+".log"), r.binary(bin), append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, err
	}
	err = waitFor(p, 120*time.Second, func() bool {
		code, err := getJSON(context.Background(), statusClient, "http://"+addr+"/healthz", nil)
		return err == nil && code == http.StatusOK
	})
	if err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// parseTaxonomy reads the taxonomy file the programs under test were given.
func parseTaxonomy(taxPath string) (*taxonomy.Taxonomy, error) {
	f, err := os.Open(taxPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return taxonomy.Parse(f)
}

// reportReads prints the read latencies of a load run for information:
// each endpoint's p50 as <endpoint>_p50_ms, and its p99. It returns the
// p50s in ms, NaN for one that had too few answered reads, in which case a
// gating check fails.
func (r *run) reportReads(lr *loadRun) (scoreP50, rulesP50 float64) {
	for _, e := range []struct {
		name string
		kind int
		p50  *float64
	}{{"score", loadsim.OpScore, &scoreP50}, {"rules", loadsim.OpRules, &rulesP50}} {
		d := lr.latencies(e.kind)
		d.name = e.name
		v, err := d.pct(50)
		if err != nil {
			r.check(e.name+" p50 has enough answered reads", false, true, "%v", err)
			*e.p50 = math.NaN()
			continue
		}
		*e.p50 = v
		r.info(e.name+"_p50_ms", v, "ms", len(d.xs))
		r.infoPcts(d, e.name, "ms", 99)
	}
	return scoreP50, rulesP50
}

// infoPcts prints the percentiles ps of d for information, skipping any
// with fewer than minBeyond samples beyond it.
func (r *run) infoPcts(d dist, prefix, unit string, ps ...int) {
	for _, p := range ps {
		if v, err := d.pct(p); err == nil {
			r.info(fmt.Sprintf("%s_p%d_%s", prefix, p, unit), v, unit, len(d.xs))
		}
	}
}

// reportPcts reports p50 and p99 of d as <prefix>_p50_<unit> and
// <prefix>_p99_<unit>, and stores the p50 in p50 when it is non-nil.
func (r *run) reportPcts(d dist, prefix, unit string, p50 *float64) error {
	for _, p := range []int{50, 99} {
		v, err := d.pct(p)
		if err != nil {
			return err
		}
		r.metricN(fmt.Sprintf("%s_p%d_%s", prefix, p, unit), v, unit, len(d.xs))
		if p == 50 && p50 != nil {
			*p50 = v
		}
	}
	return nil
}

// checkLoad applies the checks every served load shares: no 5xx, every
// request answered, and a generator that kept to its schedule.
func (r *run) checkLoad(label string, lr *loadRun) {
	failed, server := lr.failures()
	r.attempted += len(lr.out)
	r.failed += failed
	r.check(label+": zero 5xx", server == 0, true, "%d 5xx of %d requests", server, len(lr.out))
	r.check(label+": every request answered 2xx", failed == 0, true, "%d failed of %d", failed, len(lr.out))
	name := fmt.Sprintf("%s: generator lag p%d within bound", label, tailPct)
	lag, err := lr.lag().pct(tailPct)
	if err != nil {
		r.check(name, false, true, "%v", err)
		return
	}
	r.check(name, lag <= lagLimitMs, true, "%.3f ms against %d ms (n=%d)", lag, lagLimitMs, len(lr.out))
}

// lagMetric reports how late the generator queued the load's requests.
func (r *run) lagMetric(lr *loadRun) {
	lag, err := lr.lag().pct(tailPct)
	if err != nil {
		lag = math.NaN() // checkLoad has failed the run
	}
	r.metricN(fmt.Sprintf("loadgen.lag_p%d_ms", tailPct), lag, "ms", len(lr.out))
}

// queryLayer times reads in process against snap — the serve layer without
// HTTP or JSON — one span per call, and reports serve.score_p50_us …
// serve.cache_hit_rate. The reads are replayScript's. It returns the score
// and rules p50s in ms.
func (r *run) queryLayer(snap *serve.Snapshot, cfg loadsim.Config, dict loadsim.Dict) (scoreP50, rulesP50 float64, err error) {
	ops, err := replayScript(cfg, dict, loadsim.OpScore, loadsim.OpRules)
	if err != nil {
		return 0, 0, err
	}
	score, query := dist{name: "serve.score"}, dist{name: "serve.query"}
	var returned []float64
	ctx := context.Background()
	var buf []serve.RuleID
	root := r.tr.begin("serve.replay", 0)
	for i, op := range ops {
		switch op.Kind {
		case loadsim.OpScore:
			var body struct {
				Basket []string `json:"basket"`
				Limit  int      `json:"limit"`
			}
			if err := json.Unmarshal(op.Body, &body); err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			ids, err := snap.ScoreCtx(ctx, buf[:0], body.Basket, 0, body.Limit)
			t1 := time.Now()
			if err != nil {
				return 0, 0, err
			}
			buf = ids
			r.tr.add("serve.score", root, int64(i+1), t0, t1)
			score.xs = append(score.xs, float64(t1.Sub(t0))/float64(time.Microsecond))
		case loadsim.OpRules:
			t0 := time.Now()
			ids, err := snap.QueryShared(ctx, op.Item, 0, 0)
			t1 := time.Now()
			if err != nil {
				return 0, 0, err
			}
			r.tr.add("serve.query", root, int64(i+1), t0, t1)
			query.xs = append(query.xs, float64(t1.Sub(t0))/float64(time.Microsecond))
			returned = append(returned, float64(len(ids)))
		}
	}
	r.tr.end(root)
	if err := r.reportPcts(score, "serve.score", "us", &scoreP50); err != nil {
		return 0, 0, err
	}
	if err := r.reportPcts(query, "serve.query", "us", &rulesP50); err != nil {
		return 0, 0, err
	}
	mean := 0.0
	for _, n := range returned {
		mean += n
	}
	if len(returned) > 0 {
		mean /= float64(len(returned))
	}
	r.metricN("serve.rules_returned", mean, "rules/query", len(returned))
	if cs := snap.CacheStats(); cs != nil {
		r.metric("serve.cache_hit_rate", cs.HitRate, "ratio")
	}
	return scoreP50 / 1000, rulesP50 / 1000, nil
}

// replayScript is what an in-process layer replays: the load's own script
// (cfg), extended at the same rate until each of the given op kinds has
// the samples a p99 needs. The load's requests come first, in order.
func replayScript(cfg loadsim.Config, dict loadsim.Dict, kinds ...int) ([]loadsim.Op, error) {
	for {
		ops, err := loadsim.Script(cfg, dict)
		if err != nil {
			return nil, err
		}
		n := map[int]int{}
		for _, op := range ops {
			n[op.Kind]++
		}
		enough := true
		for _, k := range kinds {
			enough = enough && n[k] >= 100*minBeyond+minBeyond
		}
		if enough {
			return ops, nil
		}
		cfg.Duration *= 2
	}
}

// latestSnapshot opens the newest generation in a snapshot store.
func latestSnapshot(dir string) (*serve.Snapshot, error) {
	store, err := artifact.OpenFS(dir, 0)
	if err != nil {
		return nil, err
	}
	info, err := store.Latest()
	if err != nil {
		return nil, err
	}
	path, _, err := store.Localize(info.Generation)
	if err != nil {
		return nil, err
	}
	return serve.OpenSnapshotFile(path, 0)
}
