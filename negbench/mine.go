package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"negmine/internal/atomicio"
	"negmine/internal/count"
	"negmine/internal/gen"
	"negmine/internal/govern"
	"negmine/internal/item"
	"negmine/internal/loadsim"
	"negmine/internal/negative"
	"negmine/internal/report"
	"negmine/internal/rulestore"
	"negmine/internal/serve"
	"negmine/internal/snapfmt"
	"negmine/internal/taxonomy"
	"negmine/internal/txdb"
)

// mineSpec is one batch-mining configuration: the dataset and the negmine
// flags the workload runs it with.
type mineSpec struct {
	data     dataset
	minSup   float64
	minRI    float64
	parallel int
}

// args is the negmine command line for spec over the given files.
func (m mineSpec) args(basketPath, taxPath, reportPath, snapPath string) []string {
	return []string{"-data", basketPath, "-tax", taxPath,
		"-minsup", strconv.FormatFloat(m.minSup, 'g', -1, 64),
		"-minri", strconv.FormatFloat(m.minRI, 'g', -1, 64),
		"-parallel", strconv.Itoa(m.parallel),
		"-format", "json", "-o", reportPath, "-snap", snapPath}
}

// mineOutput is what one mine produced, as the checks see it.
type mineOutput struct {
	digest string
	rules  int
}

// rulesDigest is the SHA-256 of the canonical JSON encoding of a report's
// rule list: equal digests mean the same rules, in the same order, with
// the same numbers.
func rulesDigest(rules []report.NegativeRuleRecord) (string, error) {
	b, err := json.Marshal(rules)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// readMineOutput digests a negmine JSON report and verifies its .nsnap with
// snapfmt.Check (every section checksum plus structural validation).
func readMineOutput(reportPath, snapPath string) (mineOutput, error) {
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		return mineOutput{}, err
	}
	var rep report.NegativeReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return mineOutput{}, fmt.Errorf("%s: %w", reportPath, err)
	}
	out := mineOutput{rules: len(rep.Rules)}
	if out.digest, err = rulesDigest(rep.Rules); err != nil {
		return out, err
	}
	if snapPath == "" {
		return out, nil
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		return out, err
	}
	chk, err := snapfmt.Check(data)
	if err != nil {
		return out, fmt.Errorf("%s: %w", snapPath, err)
	}
	if !chk.OK {
		return out, fmt.Errorf("%s: snapfmt.Check failed: %s", snapPath, chk.Structural)
	}
	return out, nil
}

// mineWorkload is mine-tall: negmine turns basket text into a JSON report
// plus a .nsnap, repeatedly for the run's duration.
func mineWorkload(r *run, spec mineSpec) error {
	r.param("dataset", spec.data.String())
	r.param("minsup", spec.minSup)
	r.param("minri", spec.minRI)
	r.param("parallel", spec.parallel)
	baskets, tax := r.path("baskets.txt"), r.path("taxonomy.txt")
	var dict loadsim.Dict
	setup, err := r.repeatSetup(func() (err error) {
		dict, err = spec.data.write(r.seed, baskets, tax)
		return err
	})
	if err != nil {
		return err
	}
	r.metric("setup_s", setup, "s")

	const (
		exits   = "negmine exits 0"
		output  = "report parses and its .nsnap passes snapfmt.Check"
		same    = "rule digest identical across runs of the seed"
		nonzero = "rule count > 0"
	)
	var walls, rss []float64
	var first mineOutput
	t0 := time.Now()
	for i := 0; i < 2 || time.Since(t0) < r.seconds; i++ {
		r.attempted++
		rep, snap := r.path("report.json"), r.path("rules.nsnap")
		wall, mb, err := runTimed(&r.ps, "negmine", r.path(fmt.Sprintf("negmine-%d.log", i)), r.binary("negmine"),
			spec.args(baskets, tax, rep, snap)...)
		if err != nil {
			r.failed++
			r.check(exits, false, true, "%v", err)
			continue
		}
		out, err := readMineOutput(rep, snap)
		if err != nil {
			r.failed++
			r.check(output, false, true, "%v", err)
			continue
		}
		walls = append(walls, wall.Seconds())
		rss = append(rss, mb)
		if first.digest == "" {
			first = out
		} else if out.digest != first.digest {
			r.failed++
			r.check(same, false, true, "run %d: %s, first: %s", i, out.digest, first.digest)
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("no negmine run succeeded")
	}
	r.check(exits, true, true, "%d runs", len(walls))
	r.check(output, true, true, "%d runs", len(walls))
	r.check(same, true, true, "%d runs, %s", len(walls), first.digest[:16])
	r.check(nonzero, first.rules > 0, true, "%d rules", first.rules)
	r.metricN("latency_ms", 1000*median(walls), "ms", len(walls))
	// Printed, not gated: the peak depends on where collections fall and
	// moved 141–198 MiB between runs on Short, 50,000 baskets, in slow
	// spells.
	r.info("mine_peak_rss_mb", median(rss), "MiB", len(rss))

	// The in-process mine: the same pipeline called package by package,
	// each call wrapped in a span. Its digest must equal the CLI's.
	ip, err := tracedMine(r.tr, spec, baskets, tax, r.path("inproc.json"), r.path("inproc.nsnap"))
	if err != nil {
		return fmt.Errorf("in-process mine: %w", err)
	}
	r.check("CLI rule digest equals in-process digest", ip.digest == first.digest, true, "cli %s, in-process %s", first.digest[:16], ip.digest[:16])

	r.nmtxCheck()

	if !r.traced {
		return nil
	}
	reportMineLayers(r, ip, median(walls))
	// The reads a daemon serving this mine would answer, against the
	// .nsnap the in-process mine wrote.
	snap, err := serve.OpenSnapshotFile(r.path("inproc.nsnap"), 0)
	if err != nil {
		return err
	}
	_, _, err = r.queryLayer(snap, traffic(0, r.seconds, ingestRPS, false), dict)
	return err
}

// mineLayers is what the traced in-process mine measured.
type mineLayers struct {
	digest        string
	root          int // span id of the whole mine
	negSpan       int
	passes        float64
	txnsScanned   int64
	large         int
	candidates    int
	negatives     int
	rules         int
	countCalls    int
	candAllocMB   float64
	candMallocs   uint64
	snapshotBytes int64
}

// tracedMine runs negmine's batch pipeline in process, one span per layer:
//
//	mine
//	├── taxonomy.parse
//	├── txdb.parse
//	├── gen.stage1                (gen.Mine)
//	├── negative                  (negative.MineWithCounts)
//	│   ├── negative.candgen      call → first CountFunc entry
//	│   ├── count                 each CountFunc call (count.MultiTransformed)
//	│   └── negative.rulegen      last CountFunc return → call return
//	├── report.build              (report.BuildNegative)
//	├── report.write              (JSON encode, atomic write)
//	├── serve.snapshot_build      (serve.BuildSnapshot)
//	└── snapfmt.persist           (serve.WriteSnapshotFile)
//
// The CLI's auto counting backend picks bitmap for an in-memory database,
// but only by its concrete type, which txdb.Instrumented hides; the bitmap
// backend is therefore named explicitly so both runs count alike.
func tracedMine(tr *tracer, spec mineSpec, basketPath, taxPath, reportPath, snapPath string) (*mineLayers, error) {
	ml := &mineLayers{}
	ml.root = tr.begin("mine", 0)
	defer tr.end(ml.root)

	sp := tr.begin("taxonomy.parse", ml.root)
	tf, err := os.Open(taxPath)
	if err != nil {
		return nil, err
	}
	tax, err := taxonomy.Parse(tf)
	tf.Close()
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("txdb.parse", ml.root)
	bf, err := os.Open(basketPath)
	if err != nil {
		return nil, err
	}
	mem, err := txdb.ReadBaskets(bf, tax.Dictionary())
	bf.Close()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	db := txdb.Instrument(mem)

	opt := negative.Options{
		MinSupport: spec.minSup,
		MinRI:      spec.minRI,
		Gen:        gen.Options{MinSupport: spec.minSup, Algorithm: gen.Cumulate},
	}
	budget := govern.DefaultBudget()
	for _, c := range []*count.Options{&opt.Count, &opt.Gen.Count} {
		c.Parallelism = spec.parallel
		c.Backend = count.BackendBitmap
		c.Mem = budget
	}

	sp = tr.begin("gen.stage1", ml.root)
	large, err := gen.Mine(db, tax, opt.Gen)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ml.large = len(large.Large())

	// Candidate generation is everything MineWithCounts does before it first
	// asks for counts, rule generation everything after the last count.
	var ms0, ms1 runtime.MemStats
	var candEnd, lastCount time.Time
	ml.negSpan = tr.begin("negative", ml.root)
	negStart := time.Now()
	runtime.ReadMemStats(&ms0)
	countFn := func(groups [][]item.Itemset, transforms []count.TransformInto) ([][]int, error) {
		start := time.Now()
		if candEnd.IsZero() {
			runtime.ReadMemStats(&ms1)
			candEnd = time.Now()
			tr.add("negative.candgen", ml.negSpan, 0, negStart, candEnd)
			start = candEnd
			for _, g := range groups {
				ml.candidates += len(g)
			}
		}
		cnt := opt.Count
		cnt.Tax = tax
		counts, err := count.MultiTransformed(db, groups, transforms, cnt)
		lastCount = time.Now()
		tr.add("count", ml.negSpan, 0, start, lastCount)
		ml.countCalls++
		return counts, err
	}
	res, err := negative.MineWithCounts(large, tax, opt, countFn)
	negEnd := time.Now()
	if err != nil {
		tr.end(ml.negSpan)
		return nil, err
	}
	if candEnd.IsZero() { // no candidates: nothing was counted
		runtime.ReadMemStats(&ms1)
		tr.add("negative.candgen", ml.negSpan, 0, negStart, negEnd)
	} else {
		tr.add("negative.rulegen", ml.negSpan, 0, lastCount, negEnd)
	}
	tr.end(ml.negSpan)
	ml.candAllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	ml.candMallocs = ms1.Mallocs - ms0.Mallocs
	ml.negatives, ml.rules = len(res.Negatives), len(res.Rules)
	// A set of ScanShard calls covering all shards is one pass; every pass
	// of a MemDB visits every transaction.
	ml.passes = float64(db.Passes()) + float64(db.ShardScans())/float64(spec.parallel)
	ml.txnsScanned = int64(ml.passes * float64(mem.Count()))

	sp = tr.begin("report.build", ml.root)
	rep := report.BuildNegative(res, spec.minSup, spec.minRI, tax.Name)
	tr.end(sp)
	if ml.digest, err = rulesDigest(rep.Rules); err != nil {
		return nil, err
	}

	sp = tr.begin("report.write", ml.root)
	err = atomicio.WriteFile(reportPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("serve.snapshot_build", ml.root)
	meta := serve.Meta{Source: "mined " + basketPath, MinSupport: spec.minSup, MinRI: spec.minRI}
	snap := serve.BuildSnapshot(rulestore.New(res, tax.Name), tax, meta)
	tr.end(sp)

	sp = tr.begin("snapfmt.persist", ml.root)
	err = serve.WriteSnapshotFile(snapPath, snap, 1)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(snapPath); err == nil {
		ml.snapshotBytes = fi.Size()
	}
	return ml, nil
}

// reportMineLayers turns the traced mine into per-layer metrics and checks
// that the stage spans account for their parents. trace.overhead_s compares
// the traced mine with cliMedian, the median wall time of negmine on the
// same input, when there is one (cliMedian > 0).
func reportMineLayers(r *run, ml *mineLayers, cliMedian float64) {
	spans := r.tr.snapshot()
	sec := func(name string) float64 { return sumSelfUnder(spans, ml.root, name).Seconds() }
	total := spans[ml.root-1].dur().Seconds()

	r.metric("txdb.parse_s", sec("txdb.parse"), "s")
	r.metric("txdb.scans", ml.passes, "count")
	r.metric("txdb.txns_scanned", float64(ml.txnsScanned), "count")
	r.metric("gen.stage1_s", sec("gen.stage1"), "s")
	r.metric("gen.large_itemsets", float64(ml.large), "count")
	r.metric("negative.candgen_s", sec("negative.candgen"), "s")
	r.metric("negative.candidates", float64(ml.candidates), "count")
	r.metric("negative.candgen_alloc_mb", ml.candAllocMB, "MiB")
	r.metric("negative.candgen_mallocs", float64(ml.candMallocs), "count")
	r.metric("negative.rulegen_s", sec("negative.rulegen"), "s")
	r.metric("negative.negatives", float64(ml.negatives), "count")
	r.metric("negative.rules", float64(ml.rules), "count")
	yield := 0.0
	if ml.candidates > 0 {
		yield = float64(ml.rules) / float64(ml.candidates)
	}
	r.metric("negative.yield", yield, "ratio")
	r.metric("count.s", sec("count"), "s")
	r.metric("count.calls", float64(ml.countCalls), "count")
	r.metric("report.build_s", sec("report.build"), "s")
	r.metric("report.write_s", sec("report.write"), "s")
	r.metric("serve.snapshot_build_s", sec("serve.snapshot_build"), "s")
	r.metric("snapfmt.persist_s", sec("snapfmt.persist"), "s")
	r.metric("snapfmt.bytes", float64(ml.snapshotBytes), "bytes")
	if cliMedian > 0 {
		r.metric("trace.overhead_s", total-cliMedian, "s")
	}

	for _, parent := range []int{ml.root, ml.negSpan} {
		p := spans[parent-1]
		gap := selfTime(spans, parent).Seconds() / p.dur().Seconds()
		r.check(fmt.Sprintf("%s stage spans cover their parent within 5%%", p.Name), gap <= 0.05, true,
			"uncovered %.2f%% of %.3fs", 100*gap, p.dur().Seconds())
	}
	share := sec("negative.candgen") / total
	r.note("negative.candgen self time share of the traced mine: %.1f%% of %.3fs", 100*share, total)
}

// nmtxCheck is the named check for the .nmtx item-id defect: the README's
// path (datagen -out data.nmtx, then negmine -data data.nmtx) must mine the
// same rules as the same baskets given as text. It mines serve-ingest's
// seed — Short, 5,000 baskets, datagen seed 1 — once per invocation,
// outside the timed runs, and never gates the result. Each program gets at
// most a minute, since a mis-mapped database can mine very differently.
func (r *run) nmtxCheck() {
	const name = "nmtx path mines the same rules as the text path"
	dir := r.path("nmtx")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.check(name, false, false, "%v", err)
		return
	}
	tax := filepath.Join(dir, "tax.txt")
	digest := func(data string) (mineOutput, error) {
		gen := []string{"-preset", "short", "-txs", fmt.Sprint(ingestSeed.txns), "-seed", fmt.Sprint(ingestSeed.modelSeed),
			"-out", filepath.Join(dir, data), "-taxout", tax}
		if err := r.runBounded("datagen", filepath.Join(dir, data+".gen.log"), gen...); err != nil {
			return mineOutput{}, err
		}
		rep := filepath.Join(dir, data+".json")
		args := []string{"-data", filepath.Join(dir, data), "-tax", tax,
			"-minsup", "0.01", "-minri", "0.5", "-backend", "bitmap", "-format", "json", "-o", rep}
		if err := r.runBounded("negmine", filepath.Join(dir, data+".log"), args...); err != nil {
			return mineOutput{}, err
		}
		return readMineOutput(rep, "")
	}
	bin, err := digest("data.nmtx")
	if err != nil {
		r.check(name, false, false, "%v", err)
		return
	}
	txt, err := digest("data.txt")
	if err != nil {
		r.check(name, false, false, "%v", err)
		return
	}
	r.check(name, bin.digest == txt.digest, false, ".nmtx %d rules (%s), text %d rules (%s); Short, 5000 baskets, minsup 1%%",
		bin.rules, bin.digest[:16], txt.rules, txt.digest[:16])
}

// runBounded runs one of the binaries to completion, killing it after a
// minute.
func (r *run) runBounded(bin, logPath string, args ...string) error {
	p, err := r.ps.start(bin, logPath, r.binary(bin), args...)
	if err != nil {
		return err
	}
	defer r.ps.forget(p)
	select {
	case <-p.done:
	case <-time.After(time.Minute):
		p.stop()
		return fmt.Errorf("%s did not finish within a minute", bin)
	}
	if p.err != nil {
		return fmt.Errorf("%s: %w (see %s)", bin, p.err, logPath)
	}
	return nil
}
