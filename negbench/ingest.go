package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"sort"
	"time"

	"negmine/internal/gen"
	"negmine/internal/govern"
	"negmine/internal/incr"
	"negmine/internal/item"
	"negmine/internal/loadsim"
	"negmine/internal/negative"
	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/seglog"
	"negmine/internal/serve"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// ingestSeed is the daemon's seed data, and ingestSpec the mine it runs on
// it at boot and repeats at each refresh; the constants below fix the rest
// of serve-ingest.
var (
	ingestSeed = dataset{"short", 5000, 1}
	ingestSpec = mineSpec{data: ingestSeed, minSup: ingestMinSup, minRI: ingestMinRI, parallel: 2}
)

const (
	ingestMinSup   = 0.01
	ingestMinRI    = 0.5
	ingestRPS      = 300 // offered rate of the traffic model's mix
	remineEvery    = 2 * time.Second
	tracerCount    = 20 // 10 samples beyond the p50
	tracerMargin   = 1.2
	tracerPoll     = 100 * time.Millisecond
	tracerDeadline = 30 * time.Second // after the load ends
)

// ingestWorkload is serve-ingest: one streaming negmined, seeded with 5,000
// Short baskets, takes an open-loop mix of /score, /rules and /ingest while
// re-mining every two seconds. Tracer itemsets planted at fixed offsets
// time ingest acknowledgement → rule visible.
func ingestWorkload(r *run) error {
	r.param("dataset", ingestSeed.String())
	r.param("minsup", ingestMinSup)
	r.param("minri", ingestMinRI)
	r.param("rps", ingestRPS)
	r.param("remine_every", remineEvery.String())
	seedPath, taxPath := r.path("seed.txt"), r.path("taxonomy.txt")
	dict, err := ingestSeed.write(r.seed, seedPath, taxPath)
	if err != nil {
		return err
	}
	tax, err := parseTaxonomy(taxPath)
	if err != nil {
		return err
	}
	cfg := traffic(0, r.seconds, ingestRPS, true)
	// Reserves the tracer items, so the background never draws them.
	cfg.Tracers, cfg.MinSupport = tracerCount, ingestMinSup
	ops, err := loadsim.Script(cfg, dict)
	if err != nil {
		return err
	}
	tracers, err := loadsim.ChooseTracers(dict, tracerCount)
	if err != nil {
		return err
	}
	plants := planTracers(tracers, ops, ingestSeed.txns, r.seconds)

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	var daemon *proc
	var snapDir string
	boot := 0
	setup, err := r.repeatSetup(func() error {
		if daemon != nil {
			daemon.stop()
		}
		boot++
		snapDir = r.path(fmt.Sprintf("snaps-%d", boot))
		daemon, err = r.startDaemon("negmined", "negmined", addr,
			"-ingest-dir", r.path(fmt.Sprintf("log-%d", boot)), "-snapshot-dir", snapDir,
			"-data", seedPath, "-tax", taxPath,
			"-minsup", fmt.Sprint(ingestMinSup), "-minri", fmt.Sprint(ingestMinRI),
			"-remine-every", remineEvery.String())
		return err
	})
	if err != nil {
		return err
	}
	r.metric("setup_s", setup, "s")

	target := "http://" + addr
	tc := &tracerRun{target: target, plants: plants}
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		tc.run(ctx, r.seconds+tracerDeadline)
	}()
	lr := openLoop(ctx, target, ops, conns, nil)
	<-done

	var m struct {
		Ingest struct {
			SealedTxns int   `json:"sealedTxns"`
			ActiveTxns int   `json:"activeTxns"`
			Refreshes  int64 `json:"refreshes"`
		} `json:"ingest"`
	}
	if _, err := getJSON(ctx, statusClient, target+"/metrics", &m); err != nil {
		return err
	}
	daemon.stop()

	r.checkLoad("serve-ingest load", lr)
	acked := 0
	for i, o := range lr.out {
		if ops[i].Kind == loadsim.OpIngest && o.ok() {
			acked += ops[i].Txns
		}
	}
	visible := tc.visible()
	r.attempted += len(plants)
	r.failed += len(plants) - len(visible)
	r.check("tracer plants: zero 5xx", tc.serverErrors == 0, true, "%d 5xx", tc.serverErrors)
	r.check("every tracer becomes visible", len(visible) == len(plants), true, "%d of %d", len(visible), len(plants))
	want := ingestSeed.txns + acked + tc.ackedTxns
	got := m.Ingest.SealedTxns + m.Ingest.ActiveTxns
	r.check("daemon transaction count = seed + acknowledged baskets", got == want, true,
		"daemon %d, seed %d + load %d + tracers %d = %d", got, ingestSeed.txns, acked, tc.ackedTxns, want)

	// Printed, not gated: the read and ingest latencies. The tails are set
	// by the few requests that meet each run's five refresh bursts, and the
	// fsync-bound ingest p50 moved 1.0–2.1 ms between runs in slow spells.
	scoreP50, rulesP50 := r.reportReads(lr)
	ingest := lr.latencies(loadsim.OpIngest)
	ingest.name = "ingest"
	r.infoPcts(ingest, "ingest", "ms", 50, 99)
	fresh := dist{name: "freshness", xs: visible}
	// Every tracer must be visible for the p50 to have its 10 samples
	// beyond it; when one is missing the visibility check above has failed
	// and the metric is left out.
	freshP50, err := fresh.pct(50)
	if err != nil {
		r.note("%v", err)
		freshP50 = math.NaN()
	}
	// The headline: ingest acknowledgement → rule visible, the time a
	// re-mine takes to reach readers.
	r.metricN("latency_ms", 1000*freshP50, "ms", len(visible))

	if !r.traced {
		return nil
	}
	// The mine each refresh repeats: the seed, traced in process.
	ip, err := tracedMine(r.tr, ingestSpec, seedPath, taxPath, r.path("inproc.json"), r.path("inproc.nsnap"))
	if err != nil {
		return fmt.Errorf("in-process mine: %w", err)
	}
	reportMineLayers(r, ip, 0)
	r.lagMetric(lr)
	r.metric("incr.refreshes", float64(m.Ingest.Refreshes), "count")
	snap, err := latestSnapshot(snapDir)
	if err != nil {
		return err
	}
	inScore, inRules, err := r.queryLayer(snap, cfg, dict)
	if err != nil {
		return err
	}
	r.metric("http.score_overhead_ms", scoreP50-inScore, "ms")
	r.metric("http.rules_overhead_ms", rulesP50-inRules, "ms")
	if err := r.appendLayer(tax, cfg, dict); err != nil {
		return err
	}
	compute, err := r.refreshLayer(tax, seedPath, ops, plants)
	if err != nil {
		return err
	}
	r.metric("freshness.compute_s", compute, "s")
	r.metric("freshness.wait_s", freshP50-compute, "s")
	return nil
}

// plant is one tracer's injection: at offset at, k baskets {A, X} and k
// baskets {B} in one /ingest request.
type plant struct {
	tr loadsim.Tracer
	at time.Duration
	k  int
}

// baskets returns the plant's /ingest baskets, the two sides interleaved.
func (p plant) baskets() [][]string {
	out := make([][]string, 0, 2*p.k)
	for i := 0; i < p.k; i++ {
		out = append(out, []string{p.tr.Antecedent, p.tr.Partner}, []string{p.tr.Consequent})
	}
	return out
}

// planTracers spreads the tracers evenly over the first 70% of the run and
// sizes each so that {A,X} and {B} stay large at the refresh that covers
// the plant. That refresh starts within one re-mine interval of the plant
// and ends within another, so k covers margin·minsup of every transaction
// written up to two intervals after the plant: the seed, the script's
// ingests (known in advance) and every plant in that span, its own
// included. A plant's size depends on later plants' sizes, so the sizes are
// raised together until none changes.
func planTracers(tracers []loadsim.Tracer, ops []loadsim.Op, seedTxns int, run time.Duration) []plant {
	plants := make([]plant, len(tracers))
	step := time.Duration(float64(run) * 0.7 / float64(len(tracers)))
	for i, tr := range tracers {
		plants[i] = plant{tr: tr, at: step/2 + time.Duration(i)*step}
	}
	ms := tracerMargin * ingestMinSup
	for changed := true; changed; {
		changed = false
		for i := range plants {
			horizon := plants[i].at + 2*remineEvery
			n := seedTxns
			for _, op := range ops {
				if op.At <= horizon {
					n += op.Txns
				}
			}
			for j, q := range plants {
				if j != i && q.at <= horizon {
					n += 2 * q.k
				}
			}
			// k ≥ m·s·(n + 2k), so k = m·s·n / (1 − 2·m·s).
			if k := int(math.Ceil(ms * float64(n) / (1 - 2*ms))); k > plants[i].k {
				plants[i].k = k
				changed = true
			}
		}
	}
	return plants
}

// tracerRun plants the tracers on schedule over its own connection and
// polls /rules until each tracer's rule is served.
type tracerRun struct {
	target string
	plants []plant

	ackedAt      []time.Time // zero = not acknowledged
	visibleAfter []float64   // seconds from ack to first poll serving the rule; <0 = not yet
	ackedTxns    int
	serverErrors int
}

func (tc *tracerRun) run(ctx context.Context, deadline time.Duration) {
	client := &http.Client{Timeout: 15 * time.Second}
	tc.ackedAt = make([]time.Time, len(tc.plants))
	tc.visibleAfter = make([]float64, len(tc.plants))
	for i := range tc.visibleAfter {
		tc.visibleAfter[i] = -1
	}
	base := time.Now()
	next := 0
	for time.Since(base) < deadline {
		if next < len(tc.plants) && time.Since(base) >= tc.plants[next].at {
			tc.plant(ctx, client, next)
			next++
			continue
		}
		pending := 0
		for i := 0; i < next; i++ {
			if tc.ackedAt[i].IsZero() || tc.visibleAfter[i] >= 0 {
				continue
			}
			pending++
			if tc.ruleVisible(ctx, client, tc.plants[i].tr) {
				tc.visibleAfter[i] = time.Since(tc.ackedAt[i]).Seconds()
				pending--
			}
		}
		if next == len(tc.plants) && pending == 0 {
			return
		}
		wait := tracerPoll
		if next < len(tc.plants) {
			wait = min(wait, tc.plants[next].at-time.Since(base))
		}
		if wait > 0 {
			time.Sleep(wait)
		}
	}
}

func (tc *tracerRun) plant(ctx context.Context, client *http.Client, i int) {
	b, _ := json.Marshal(struct { // a [][]string always marshals
		Baskets [][]string `json:"baskets"`
	}{tc.plants[i].baskets()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, tc.target+"/ingest", bytes.NewReader(b))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		tc.serverErrors++
	}
	if resp.StatusCode/100 == 2 {
		tc.ackedAt[i] = time.Now()
		tc.ackedTxns += 2 * tc.plants[i].k
	}
}

// ruleVisible asks for the tracer antecedent's rules and looks for A ⇒ ¬B.
func (tc *tracerRun) ruleVisible(ctx context.Context, client *http.Client, tr loadsim.Tracer) bool {
	var doc struct {
		Rules []struct {
			Antecedent []string `json:"antecedent"`
			Consequent []string `json:"consequent"`
		} `json:"rules"`
	}
	code, err := getJSON(ctx, client, tc.target+"/rules?item="+url.QueryEscape(tr.Antecedent), &doc)
	if err != nil || code != http.StatusOK {
		if code >= 500 {
			tc.serverErrors++
		}
		return false
	}
	for _, rule := range doc.Rules {
		if has(rule.Antecedent, tr.Antecedent) && has(rule.Consequent, tr.Consequent) {
			return true
		}
	}
	return false
}

// visible returns the freshness samples of the tracers that became visible.
func (tc *tracerRun) visible() []float64 {
	var out []float64
	for _, v := range tc.visibleAfter {
		if v >= 0 {
			out = append(out, v)
		}
	}
	return out
}

func has(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// itemsets resolves basket names against the taxonomy, as negmined's
// /ingest handler does.
func itemsets(tax *taxonomy.Taxonomy, baskets [][]string) ([]item.Itemset, error) {
	dict := tax.Dictionary()
	sets := make([]item.Itemset, len(baskets))
	for i, b := range baskets {
		items := make([]item.Item, len(b))
		for j, name := range b {
			id, ok := dict.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown item %q", name)
			}
			items[j] = id
		}
		sets[i] = item.New(items...)
	}
	return sets, nil
}

// ingestBaskets decodes an /ingest op's body.
func ingestBaskets(op loadsim.Op) ([][]string, error) {
	var body struct {
		Baskets [][]string `json:"baskets"`
	}
	err := json.Unmarshal(op.Body, &body)
	return body.Baskets, err
}

// appendLayer sends replayScript's ingest batches through seglog's
// Log.AppendBatch on a temporary log, one span per append, and reports
// seglog.append_p50_us and seglog.append_p99_us.
func (r *run) appendLayer(tax *taxonomy.Taxonomy, cfg loadsim.Config, dict loadsim.Dict) error {
	ops, err := replayScript(cfg, dict, loadsim.OpIngest)
	if err != nil {
		return err
	}
	dir := r.path("seglog-replay")
	log, err := seglog.Open(dir, seglog.Options{DedupWindow: 4096})
	if err != nil {
		return err
	}
	defer log.Close()
	d := dist{name: "seglog.append"}
	root := r.tr.begin("seglog.replay", 0)
	for i, op := range ops {
		if op.Kind != loadsim.OpIngest {
			continue
		}
		baskets, err := ingestBaskets(op)
		if err != nil {
			return err
		}
		sets, err := itemsets(tax, baskets)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = log.AppendBatch(seglog.Batch{Baskets: sets, Epoch: -1})
		t1 := time.Now()
		if err != nil {
			return err
		}
		r.tr.add("seglog.append", root, int64(i+1), t0, t1)
		d.xs = append(d.xs, float64(t1.Sub(t0))/float64(time.Microsecond))
	}
	r.tr.end(root)
	return r.reportPcts(d, "seglog.append", "us", nil)
}

// refreshLayer replays the run's writes into a temporary log in refresh-
// interval waves and refreshes an incr.Miner after each, timing what one
// daemon refresh computes: incr.Refresh, the rule store and snapshot build,
// and the .nsnap persist. It reports incr.refresh_s and incr.count_scans
// (medians over waves) and returns the median compute time per refresh.
func (r *run) refreshLayer(tax *taxonomy.Taxonomy, seedPath string, ops []loadsim.Op, plants []plant) (float64, error) {
	log, err := seglog.Open(r.path("incr-replay"), seglog.Options{})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	f, err := os.Open(seedPath)
	if err != nil {
		return 0, err
	}
	seed, err := txdb.ReadBaskets(f, tax.Dictionary())
	f.Close()
	if err != nil {
		return 0, err
	}
	// Seeded as negmined seeds its log: sealed segments of 4,096 baskets.
	txs := seed.Transactions()
	for lo := 0; lo < len(txs); lo += 4096 {
		var sets []item.Itemset
		for _, tx := range txs[lo:min(lo+4096, len(txs))] {
			sets = append(sets, tx.Items)
		}
		if _, _, err := log.Append(sets); err != nil {
			return 0, err
		}
		if err := log.Seal(); err != nil {
			return 0, err
		}
	}

	opt := negative.Options{
		MinSupport: ingestMinSup, MinRI: ingestMinRI,
		Gen: gen.Options{MinSupport: ingestMinSup, Algorithm: gen.Cumulate},
	}
	mem := govern.DefaultBudget() // negmined's default -mem-budget auto
	opt.Count.Mem, opt.Gen.Count.Mem = mem, mem
	miner := incr.New(tax, opt)

	// Waves: everything written in each refresh interval of the run.
	type write struct {
		at      time.Duration
		baskets [][]string
	}
	var writes []write
	for _, op := range ops {
		if op.Kind == loadsim.OpIngest {
			b, err := ingestBaskets(op)
			if err != nil {
				return 0, err
			}
			writes = append(writes, write{op.At, b})
		}
	}
	for _, p := range plants {
		writes = append(writes, write{p.at, p.baskets()})
	}
	sort.SliceStable(writes, func(i, j int) bool { return writes[i].at < writes[j].at })

	var refresh, compute, scans []float64
	root := r.tr.begin("incr.replay", 0)
	wave := func() error {
		t0 := time.Now()
		res, err := miner.Refresh(log)
		t1 := time.Now()
		if err != nil {
			return err
		}
		r.tr.add("incr.refresh", root, 0, t0, t1)
		st := rulestore.FromReport(report.BuildNegative(res, ingestMinSup, ingestMinRI, tax.Name))
		snap := serve.BuildSnapshot(st, tax, serve.Meta{MinSupport: ingestMinSup, MinRI: ingestMinRI})
		t2 := time.Now()
		r.tr.add("serve.snapshot_build", root, 0, t1, t2)
		if err := serve.WriteSnapshotFile(r.path("incr-replay.nsnap"), snap, 1); err != nil {
			return err
		}
		t3 := time.Now()
		r.tr.add("snapfmt.persist", root, 0, t2, t3)
		refresh = append(refresh, t1.Sub(t0).Seconds())
		compute = append(compute, t3.Sub(t0).Seconds())
		scans = append(scans, float64(miner.LastStats().CountScans))
		return nil
	}
	if err := wave(); err != nil { // the boot-time mine of the seed
		return 0, err
	}
	next := 0
	for end := remineEvery; next < len(writes); end += remineEvery {
		appended := false
		for ; next < len(writes) && writes[next].at < end; next++ {
			sets, err := itemsets(tax, writes[next].baskets)
			if err != nil {
				return 0, err
			}
			if _, err := log.AppendBatch(seglog.Batch{Baskets: sets, Epoch: -1}); err != nil {
				return 0, err
			}
			appended = true
		}
		if appended {
			if err := wave(); err != nil {
				return 0, err
			}
		}
	}
	r.tr.end(root)
	r.metricN("incr.refresh_s", median(refresh), "s", len(refresh))
	r.metricN("incr.count_scans", median(scans), "count", len(scans))
	return median(compute), nil
}
