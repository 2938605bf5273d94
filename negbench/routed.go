package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"negmine/internal/cluster"
	"negmine/internal/loadsim"
	"negmine/internal/serve"
)

const (
	shards      = 2
	routedRPS   = 40 // the fixed read rate, below the knee even in slow spells
	sampleEvery = 10 // every 10th response body is checked against the oracle
	// mergeSamples is how many reads the merge layer replays; directSpan is
	// how much of the script the shard-direct comparison sends.
	mergeSamples = 400
	directSpan   = 5 * time.Second
	// latencyLimitMs is the read latency (at the tailPct-th percentile) a
	// ladder step must meet to count towards capacity_rps.
	latencyLimitMs = 60
)

// ladder returns the fixed sequence of offered read rates for
// capacity_rps: 60 rps and up in 20% steps to 1,000, rounded to 1 rps.
// The fixed-rate phase is the ladder's first rung.
func ladder() []float64 {
	var rates []float64
	for r := 60.0; r <= 1000; r *= 1.2 {
		rates = append(rates, math.Round(r))
	}
	return rates
}

// routedWorkload is serve-routed: negrouter over two negmined shards that
// boot by mmap from per-shard .nsnap generations of one rule set, mined by
// negmine from Short, 50,000 baskets, at minsup 0.75%. The load is
// read-only: /score and /rules at a fixed rate below the knee, then the
// capacity ladder. Nothing is mined while it is measured.
func routedWorkload(r *run) error {
	spec := mineSpec{data: dataset{"short", 50000, 1}, minSup: 0.0075, minRI: 0.5, parallel: 2}
	r.param("dataset", spec.data.String())
	r.param("minsup", spec.minSup)
	r.param("rps", routedRPS)
	r.param("latency_limit_ms", latencyLimitMs)
	baskets, taxPath := r.path("baskets.txt"), r.path("taxonomy.txt")
	dict, err := spec.data.write(r.seed, baskets, taxPath)
	if err != nil {
		return err
	}

	// Preparation, outside set-up: mine the rule set, then let one producer
	// per shard cut its slice of the report into its snapshot store.
	rep, snapPath := r.path("report.json"), r.path("rules.nsnap")
	mineWall, _, err := runTimed(&r.ps, "negmine", r.path("negmine.log"), r.binary("negmine"),
		spec.args(baskets, taxPath, rep, snapPath)...)
	if err != nil {
		return err
	}
	r.info("mine_s", mineWall.Seconds(), "s", 0)
	stores := make([]string, shards)
	for k := range stores {
		stores[k] = r.path(fmt.Sprintf("store-%d", k))
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		p, err := r.startDaemon(fmt.Sprintf("producer-%d", k), "negmined", addr,
			"-report", rep, "-tax", taxPath, "-shard", fmt.Sprintf("%d/%d", k, shards), "-snapshot-dir", stores[k])
		if err != nil {
			return err
		}
		p.stop()
	}

	routerAddr, err := freeAddr()
	if err != nil {
		return err
	}
	shardAddrs := make([]string, shards)
	for k := range shardAddrs {
		if shardAddrs[k], err = freeAddr(); err != nil {
			return err
		}
	}
	var fleet []*proc
	setup, err := r.repeatSetup(func() error {
		for _, p := range fleet {
			p.stop()
		}
		fleet = fleet[:0]
		router, err := r.startDaemon("negrouter", "negrouter", routerAddr,
			"-shards", fmt.Sprint(shards), "-probe-every", "200ms", "-heartbeat-ttl", "1s")
		if err != nil {
			return err
		}
		fleet = append(fleet, router)
		for k, addr := range shardAddrs {
			p, err := r.startDaemon(fmt.Sprintf("shard-%d", k), "negmined", addr,
				"-snapshot-dir", stores[k], "-shard", fmt.Sprintf("%d/%d", k, shards),
				"-cluster-join", "http://"+routerAddr, "-heartbeat", "200ms")
			if err != nil {
				return err
			}
			fleet = append(fleet, p)
		}
		return waitFor(router, 30*time.Second, func() bool {
			var h struct {
				Status   string `json:"status"`
				Routable int    `json:"routableShards"`
			}
			code, err := getJSON(context.Background(), statusClient, "http://"+routerAddr+"/healthz", &h)
			return err == nil && code == http.StatusOK && h.Status == "ok" && h.Routable == shards
		})
	})
	if err != nil {
		return err
	}
	r.metric("setup_s", setup, "s")

	ctx := context.Background()
	router := "http://" + routerAddr
	cfg := traffic(0, r.seconds, routedRPS, false)
	ops, err := loadsim.Script(cfg, dict)
	if err != nil {
		return err
	}
	before, err := routerCounters(ctx, router)
	if err != nil {
		return err
	}
	lr := openLoop(ctx, router, ops, conns, func(i int) bool { return i%sampleEvery == 0 })
	after, err := routerCounters(ctx, router)
	if err != nil {
		return err
	}
	r.checkLoad("serve-routed load", lr)
	if err := r.checkMerge(snapPath, ops, lr); err != nil {
		return err
	}
	// The headline is the /rules p50. The read tails are printed, not
	// gated: on the two-vCPU machine the workloads are sized for, host
	// stalls move them by more than any bound in slow spells. The /score
	// p50 is printed, not gated, while the router's /score answers fail
	// their merge check: it would time wrong answers.
	scoreP50, rulesP50 := r.reportReads(lr)
	r.metricN("latency_ms", rulesP50, "ms", len(lr.latencies(loadsim.OpRules).xs))

	rungs := []rung{measureRung(routedRPS, lr)}
	for i, rps := range ladder() {
		// Long enough for the tail percentile to have 10 samples beyond
		// it, and for a queue that outgrows the target to show as backlog.
		step := time.Duration(max(1, 130/rps) * float64(time.Second))
		sops, err := loadsim.Script(traffic(int64(i+1), step, rps, false), dict)
		if err != nil {
			return err
		}
		g := measureRung(rps, openLoop(ctx, router, sops, conns, nil))
		rungs = append(rungs, g)
		r.note("ladder %4.0f rps: read p%d %.2f ms (n=%d), %d failed, backlog %d", rps, tailPct, g.tailMs, g.n, g.failed, g.backlog)
		if saturated(rungs, latencyLimitMs) {
			break
		}
	}
	c := capacity(rungs, latencyLimitMs)
	r.check("the fixed rate meets the latency limit", rungs[0].passes(latencyLimitMs), false,
		"read p%d %.2f ms against %d ms", tailPct, rungs[0].tailMs, latencyLimitMs)
	// Printed, not gated: the knee moves with the two-vCPU machine's speed,
	// between 86 and 124 rps from run to run.
	r.info("capacity_rps", c, "1/s", len(rungs))

	if !r.traced {
		return nil
	}
	r.lagMetric(lr)
	reqs := float64(after.requests - before.requests)
	r.metric("router.partial_rate", float64(after.partials-before.partials)/reqs, "ratio")
	r.metric("router.retries", float64(after.retries-before.retries)/reqs, "1/request")
	r.metric("router.hedges", float64(after.hedges-before.hedges)/reqs, "1/request")

	snap, err := serve.OpenSnapshotFile(snapPath, 0)
	if err != nil {
		return err
	}
	inScore, inRules, err := r.queryLayer(snap, cfg, dict)
	if err != nil {
		return err
	}
	// The first seconds of the same requests straight to shard 0, at the
	// same rate.
	head := 0
	for head < len(ops) && ops[head].At < directSpan {
		head++
	}
	direct := openLoop(ctx, "http://"+shardAddrs[0], ops[:head], conns, nil)
	r.checkLoad("shard-direct load", direct)
	var sScore, sRules float64
	for _, e := range []struct {
		name string
		kind int
		p50  *float64
	}{{"shard.score_p50_ms", loadsim.OpScore, &sScore}, {"shard.rules_p50_ms", loadsim.OpRules, &sRules}} {
		d := direct.latencies(e.kind)
		d.name = e.name
		v, err := d.pct(50)
		if err != nil {
			return err
		}
		*e.p50 = v
		r.metricN(e.name, v, "ms", len(d.xs))
	}
	r.metric("http.score_overhead_ms", sScore-inScore, "ms")
	r.metric("http.rules_overhead_ms", sRules-inRules, "ms")
	r.metric("router.score_overhead_ms", scoreP50-sScore, "ms")
	r.metric("router.rules_overhead_ms", rulesP50-sRules, "ms")
	if err := r.mergeLayer(ctx, shardAddrs, ops); err != nil {
		return err
	}

	// The mine that produced the served rules, traced in process; its
	// digest must equal the report the shards were cut from.
	ip, err := tracedMine(r.tr, spec, baskets, taxPath, r.path("inproc.json"), r.path("inproc.nsnap"))
	if err != nil {
		return fmt.Errorf("in-process mine: %w", err)
	}
	cli, err := readMineOutput(rep, snapPath)
	if err != nil {
		return err
	}
	r.check("CLI rule digest equals in-process digest", ip.digest == cli.digest, true, "cli %s, in-process %s", cli.digest[:16], ip.digest[:16])
	reportMineLayers(r, ip, mineWall.Seconds())
	return nil
}

// routerStats is the slice of negrouter's /metrics the trace reads.
type routerStats struct {
	requests, retries, hedges, partials int64
}

func routerCounters(ctx context.Context, router string) (routerStats, error) {
	var m struct {
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
		} `json:"endpoints"`
		Fanout struct {
			Retries  int64 `json:"retries"`
			Hedges   int64 `json:"hedges"`
			Partials int64 `json:"partialResponses"`
		} `json:"fanout"`
	}
	if _, err := getJSON(ctx, statusClient, router+"/metrics", &m); err != nil {
		return routerStats{}, err
	}
	s := routerStats{retries: m.Fanout.Retries, hedges: m.Fanout.Hedges, partials: m.Fanout.Partials}
	for _, name := range []string{"score", "rules"} {
		s.requests += m.Endpoints[name].Requests
	}
	return s, nil
}

// request rebuilds a scripted op as an in-process HTTP request.
func request(op loadsim.Op) *http.Request {
	if op.Kind == loadsim.OpRules {
		return httptest.NewRequest(http.MethodGet, rulesURL("", op.Item), nil)
	}
	req := httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(op.Body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// checkMerge compares every sampled router response with the answer a
// single unsharded daemon gives from the whole .nsnap, computed in process
// by the serve layer's own handler. /rules must match byte for byte.
// /score is a named check that fails today and does not gate, like the
// .nmtx check: the router sends a basket only to the shards of its own
// items (cluster.ShardsForBasket), while a rule whose antecedent is an
// ancestor category of those items may live on another shard, so merged
// /score answers can miss rules. Until that is fixed the workload's
// /score latency is printed for information and kept out of the result.
func (r *run) checkMerge(snapPath string, ops []loadsim.Op, lr *loadRun) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := serve.NewServer(ctx, func(context.Context) (*serve.Snapshot, error) {
		return serve.OpenSnapshotFile(snapPath, 0)
	})
	if err != nil {
		return err
	}
	h := srv.Handler()
	for _, kind := range []int{loadsim.OpRules, loadsim.OpScore} {
		name := loadsim.OpName(kind)
		checked, differ := 0, 0
		first := ""
		for i, o := range lr.out {
			if o.body == nil || ops[i].Kind != kind {
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, request(ops[i]))
			checked++
			if bytes.Equal(rec.Body.Bytes(), o.body) {
				continue
			}
			differ++
			if first == "" {
				// Kept for inspection: the scratch directory survives an
				// incorrect result.
				first = fmt.Sprintf("; first: request %d, bodies in merge-%s-router.json and merge-%s-single.json", i, name, name)
				if err := os.WriteFile(r.path("merge-"+name+"-router.json"), o.body, 0o644); err != nil {
					return err
				}
				if err := os.WriteFile(r.path("merge-"+name+"-single.json"), rec.Body.Bytes(), 0o644); err != nil {
					return err
				}
			}
		}
		r.check(fmt.Sprintf("sampled router /%s bodies equal the single-snapshot answer", name),
			checked > 0 && differ == 0, kind == loadsim.OpRules, "%d of %d differ%s", differ, checked, first)
	}
	return nil
}

// mergeLayer captures both shards' answers to the script's first reads and
// times cluster.MergeMatches / cluster.MergeRules on them, reporting
// cluster.merge_p50_us.
func (r *run) mergeLayer(ctx context.Context, shardAddrs []string, ops []loadsim.Op) error {
	client := &http.Client{Timeout: 15 * time.Second}
	d := dist{name: "cluster.merge"}
	root := r.tr.begin("cluster.replay", 0)
	for i, op := range ops[:min(len(ops), mergeSamples)] {
		var scores [][]cluster.WireMatch
		var rules [][]cluster.WireRule
		for _, addr := range shardAddrs {
			code, body := send(ctx, client, "http://"+addr, op, true)
			if code != http.StatusOK {
				return fmt.Errorf("shard %s: HTTP %d", addr, code)
			}
			if op.Kind == loadsim.OpScore {
				var doc cluster.ScoreDoc
				if err := json.Unmarshal(body, &doc); err != nil {
					return err
				}
				scores = append(scores, doc.Matches)
			} else {
				var doc cluster.RulesDoc
				if err := json.Unmarshal(body, &doc); err != nil {
					return err
				}
				rules = append(rules, doc.Rules)
			}
		}
		t0 := time.Now()
		if op.Kind == loadsim.OpScore {
			cluster.MergeMatches(scores, 0)
		} else {
			cluster.MergeRules(rules, 0)
		}
		t1 := time.Now()
		r.tr.add("cluster.merge", root, int64(i+1), t0, t1)
		d.xs = append(d.xs, float64(t1.Sub(t0))/float64(time.Microsecond))
	}
	r.tr.end(root)
	v, err := d.pct(50)
	if err != nil {
		return err
	}
	r.metricN("cluster.merge_p50_us", v, "us", len(d.xs))
	return nil
}
