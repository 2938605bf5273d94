// Command negbench is negmine's benchmark. It runs one named workload
// against the real binaries (negmine, negmined, negrouter), checks every
// output, and prints each metric by name and unit, ending with one JSON
// result line:
//
//	bash negbench/run.sh --workload mine-tall --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json gives why each exists):
//
//	mine-tall     negmine on Tall (5,000 baskets, minsup 2%)
//	serve-ingest  one streaming negmined under /score, /rules and /ingest
//	              load, with tracer itemsets timing ingest → rule visible
//	serve-routed  negrouter over two negmined shards, reads only, then a
//	              fixed rate ladder for capacity
//
// Every workload reports the same metrics, the ones BENCHMARK.json names.
// With --trace 0 the result carries the end-to-end metrics: setup_s, and
// latency_ms, the median of the workload's headline operation — one
// negmine run for mine-tall, ingest acknowledgement → rule visible for
// serve-ingest, a /rules read through the router for serve-routed. Lines
// marked info (read and ingest percentiles, tails, peak RSS, capacity) are
// printed but kept out of the result: either they belong to one workload
// only, or they do not hold steady on the two-vCPU machine the workloads
// are sized for. With --trace 1 the result carries the per-layer metrics
// every workload shares: the layers of the mine that produced the rules
// the workload uses (traced in process on its dataset) and in-process
// reads against the snapshot it serves or wrote. The workload's own layers
// (HTTP, router, cluster merge, seglog, incr, freshness, load generator)
// are printed as info lines. Layers are measured from the benchmark's
// side of each package boundary: spans (name, start, end, parent, request
// id) are kept in memory around calls into each package's exported
// functions and written to .bench_build/traces when the run ends. A
// layer's self time is its span minus the part its child spans cover.
//
// Percentiles are nearest-rank, ⌈p·n/100⌉, printed with their n; a
// distribution percentile needs at least 10 samples beyond it or it is not
// reported. Medians of repeated runs (a mine's latency_ms, setup_s) use the
// same rule.
//
// Load is open loop: the request stream is loadsim.Script's with the
// simulator's documented traffic model (see traffic), the same model
// requests for every seed under that seed's item names, sent at its
// scripted times over at most two connections (the machine's core count
// the benchmark is sized for), and each request is timed from its due time.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its body.
var workloads = map[string]func(*run) error{
	"mine-tall": func(r *run) error {
		return mineWorkload(r, mineSpec{data: dataset{"tall", 5000, 1}, minSup: 0.02, minRI: 0.5, parallel: 2})
	},
	"serve-ingest": ingestWorkload,
	"serve-routed": routedWorkload,
}

func main() {
	code, err := mainErr()
	if err != nil {
		fmt.Fprintln(os.Stderr, "negbench:", err)
	}
	os.Exit(code)
}

func mainErr() (int, error) {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measurement length in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin      = flag.String("bin", "", "directory holding the built binaries")
		work     = flag.String("work", "", "scratch directory for the run")
	)
	flag.Parse()
	body, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 {
		flag.Usage()
		return 2, fmt.Errorf("unknown workload %q or missing -bin/-work", *workload)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		bin:      *bin,
		work:     filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		tr:       newTracer(),
		params:   map[string]any{},
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return 1, err
	}
	err := body(r)
	r.ps.stopAll()
	if err != nil {
		return 1, fmt.Errorf("%s: %w (scratch kept in %s)", r.workload, err, r.work)
	}
	traces := filepath.Join(filepath.Dir(*work), "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return 1, err
	}
	if err := r.tr.write(filepath.Join(traces, fmt.Sprintf("%s-seed%d-trace%d.jsonl", r.workload, r.seed, *trace))); err != nil {
		return 1, err
	}
	correct, err := r.print(os.Stdout)
	if err != nil {
		return 1, err
	}
	if !correct {
		fmt.Fprintf(os.Stderr, "negbench: a check failed; scratch kept in %s\n", r.work)
		return 0, nil
	}
	return 0, os.RemoveAll(r.work)
}

// run is one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	bin      string
	work     string
	ps       procs
	tr       *tracer
	params   map[string]any

	attempted, failed int
	checks            []check
	metrics           []metric
	notes             []string
}

type check struct {
	name   string
	ok     bool
	gating bool // a failing gating check makes the result incorrect
	detail string
}

type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value; 0 = a single measurement or count
}

func (r *run) path(name string) string   { return filepath.Join(r.work, name) }
func (r *run) binary(name string) string { return filepath.Join(r.bin, name) }
func (r *run) param(k string, v any)     { r.params[k] = v }

// check records a named output check. A failed check of the same name
// replaces an earlier pass.
func (r *run) check(name string, ok, gating bool, format string, args ...any) {
	c := check{name: name, ok: ok, gating: gating, detail: fmt.Sprintf(format, args...)}
	for i := range r.checks {
		if r.checks[i].name == name {
			if r.checks[i].ok {
				r.checks[i] = c
			}
			return
		}
	}
	r.checks = append(r.checks, c)
}

func (r *run) metric(name string, v float64, unit string) { r.metricN(name, v, unit, 0) }

// metricN records a metric measured over n samples. A value that could not
// be measured (NaN, derived from a missing percentile) is left out with a
// note; the check that found the shortfall has already failed the run.
func (r *run) metricN(name string, v float64, unit string, n int) {
	if math.IsNaN(v) {
		r.note("%s not measured", name)
		return
	}
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, n: n})
}

// info records a metric that is printed for information only: its name is
// in neither endToEnd nor perLayer, so the result line never carries it.
func (r *run) info(name string, v float64, unit string, n int) { r.metricN(name, v, unit, n) }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer name the metrics the result line carries, the
// end_to_end and per_layer lists of BENCHMARK.json: every workload reports
// all of one kind. Any other metric is printed for information only.
var (
	endToEnd = []string{"setup_s", "latency_ms"}
	perLayer = []string{
		"txdb.parse_s", "txdb.scans", "txdb.txns_scanned",
		"gen.stage1_s", "gen.large_itemsets",
		"negative.candgen_s", "negative.candidates", "negative.candgen_alloc_mb", "negative.candgen_mallocs",
		"negative.rulegen_s", "negative.negatives", "negative.rules", "negative.yield",
		"count.s", "count.calls",
		"report.build_s", "report.write_s",
		"serve.snapshot_build_s", "snapfmt.persist_s", "snapfmt.bytes",
		"serve.score_p50_us", "serve.score_p99_us", "serve.query_p50_us", "serve.query_p99_us",
		"serve.rules_returned", "serve.cache_hit_rate",
	}
)

// repeatSetup runs setup at least three times and until a second of set-up
// time has accumulated (at most 15 times), and returns the median wall
// time: a set-up of tens of milliseconds gets enough repeats to be steady.
func (r *run) repeatSetup(setup func() error) (float64, error) {
	var ts []float64
	total := 0.0
	for len(ts) < 3 || (total < 1 && len(ts) < 15) {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
		total += ts[len(ts)-1]
	}
	return median(ts), nil
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the header, every metric, every check and note, and then
// the result line, and returns the result's correct flag.
func (r *run) print(w io.Writer) (bool, error) {
	hdr := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"trace":      r.traced,
		"commit":     sourceHash(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
	}
	for k, v := range r.params {
		hdr[k] = v
	}
	b, err := json.Marshal(hdr)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "header %s\n", b)

	want := endToEnd
	if r.traced {
		want = perLayer
	}
	res := result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultItem{}}
	for _, m := range r.metrics {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf(" (n=%d)", m.n)
		}
		kind := "info"
		switch {
		case slices.Contains(endToEnd, m.name):
			kind = "end-to-end"
		case slices.Contains(perLayer, m.name):
			kind = "layer"
		}
		fmt.Fprintf(w, "%-10s %-28s %14.6g %s%s\n", kind, m.name, m.value, m.unit, n)
		if slices.Contains(want, m.name) {
			res.Metrics[m.name] = resultItem{Value: m.value, Unit: m.unit}
		}
	}
	var missing []string
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	r.check("every metric of the result measured", len(missing) == 0, true, "%d of %d, missing %v", len(want)-len(missing), len(want), missing)
	for _, c := range r.checks {
		status := "pass"
		if !c.ok {
			status = "FAIL"
			if c.gating {
				res.Correct = false
			} else {
				status = "FAIL (reported, does not gate)"
			}
		}
		fmt.Fprintf(w, "check %s: %s — %s\n", c.name, status, c.detail)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	b, err = json.Marshal(res)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return res.Correct, err
}

// sourceHash identifies the commit that was built by its source tree: the
// SHA-256 of every .go and go.mod file under the working directory, by
// path. The benchmark runs from a checkout that need not be a git
// repository, so the tree stands in for the commit id.
func sourceHash() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the identifier
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
