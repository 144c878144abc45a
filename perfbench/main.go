// Command perfbench is the repository benchmark. It starts the Datalog
// query server (internal/service) in-process behind a loopback listener,
// drives one seeded workload over real HTTP, checks every answer against an
// oracle of its own, and prints the workload's metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics
// of a traced run. README.md describes the workloads, the metrics and which
// layer metric should move which end-to-end metric.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload read|churn|optimize --seed N --seconds S --trace 0|1
//	perfbench --report K --seed N --seconds S
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets up a fresh server; setup_s is
// the median, and the last set-up serves the timed window.
const setupRepeats = 15

// run is the HTTP leg of one workload on one set-up server.
type run interface {
	// op performs client c's i-th operation, checks its answers against the
	// oracle and returns their digest. Clients call op concurrently with
	// distinct c; each client calls it with i = 0, 1, 2, … in order.
	op(c, i int) (uint64, error)
	// verify checks the state set-up produced, outside the set-up timing.
	verify() error
	// counters returns workload-specific per-layer counters.
	counters() map[string]float64
	close()
}

// replayer replays a workload's operations through the layers' public
// functions, one span per layer call.
type replayer interface {
	op(c, i int, t opTrace) (uint64, error)
}

// opTrace records the layer spans of one replayed operation.
type opTrace struct {
	tr         *recorder
	op, parent int64
}

func (t opTrace) around(name string, f func()) { t.tr.around(name, t.op, t.parent, f) }

// workloadDef is one seeded traffic mix.
type workloadDef struct {
	name    string
	clients int
	// headline names the latency samples behind latency_p50_ms and
	// latency_p90_ms: the request a user of this workload waits on.
	headline string
	// batches is set when every operation is one mutation batch, which the
	// per-batch layer metrics count by.
	batches bool
	setup   func(h *harness, seed int64) (run, error)
	replay  func(seed int64) (replayer, error)
}

var workloads = []workloadDef{
	{name: "read", clients: readClients, headline: "eval", setup: setupRead, replay: replayRead},
	{name: "churn", clients: 1, headline: "feed_lag", batches: true, setup: setupChurn, replay: replayChurn},
	{name: "optimize", clients: 1, headline: "minimize", setup: setupOptimize, replay: replayOptimize},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opID identifies client c's i-th operation in spans.
func opID(c, i int) int64 { return int64(c)<<32 | int64(i) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user of the server sees
// them. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_kb_per_op", "kB"},
}

// perLayer are the metrics of a traced run. A metric of a layer that a
// workload does not call reads 0 on that workload.
var perLayer = []metricDef{
	{"service.eval_ms", "ms"},
	{"service.facts_ms", "ms"},
	{"service.minimize_ms", "ms"},
	{"service.compare_ms", "ms"},
	{"service.glue_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"parser.facts_ms", "ms"},
	{"parser.program_ms", "ms"},
	{"parser.query_ms", "ms"},
	{"db.snapshot_ms", "ms"},
	{"db.match_ms", "ms"},
	{"db.relations_frozen_per_batch", "count"},
	{"db.freeze_skipped_ratio", "ratio"},
	{"db.retained_kb_per_batch", "kB"},
	{"eval.fixpoint_ms", "ms"},
	{"eval.rounds_per_eval", "count"},
	{"eval.firings_per_eval", "count"},
	{"eval.added_per_firing", "ratio"},
	{"eval.maintain_ms", "ms"},
	{"eval.count_adjusted_per_batch", "count"},
	{"eval.overdeleted_per_batch", "count"},
	{"eval.rederived_per_overdeleted", "ratio"},
	{"eval.prepare_ms", "ms"},
	{"eval.plan_cache_hit_ratio", "ratio"},
	{"minimize.program_ms", "ms"},
	{"minimize.atoms_removed_per_program", "count"},
	{"minimize.rules_removed_per_program", "count"},
	{"chase.compare_ms", "ms"},
	{"chase.verdicts_subsumed_ratio", "ratio"},
	{"chase.verdict_store_hit_ratio", "ratio"},
	{"analysis.vet_ms", "ms"},
	{"ast.render_ms", "ms"},
	{"runtime.alloc_kb_per_op", "kB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_per_1k_ops", "count"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.retained_kb_per_op", "kB"},
}

// layerSpans are the replay span names reported as <name>_ms: the mean
// self time of one call.
var layerSpans = []string{
	"parser.facts", "parser.program", "parser.query", "db.snapshot", "db.match",
	"eval.fixpoint", "eval.maintain", "eval.prepare", "minimize.program",
	"chase.compare", "analysis.vet", "ast.render",
}

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
}

// outcome is what one measured run produced.
type outcome struct {
	attempted, failed int64
	ops               int
	counts            []int      // operations completed by each client
	digests           [][]uint64 // per client, per operation
	e2e               map[string]float64
	table             []tableRow // route-level numbers, printed for people
	layer             map[string]float64
	httpSpans         []span
}

type tableRow struct {
	name  string
	value float64
	unit  string
}

// memSample is the process's allocation and CPU counters at one instant.
type memSample struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	cpu                 time.Duration
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return memSample{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC, cpu: cpu}
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measure sets the workload up setupRepeats times, drives the last set-up
// server for cfg.seconds and gathers the run's numbers. wrap adds
// middleware around the server's handler (the trace middleware, or a
// test's answer-corrupting one). A wrong answer returns an error.
func measure(cfg config, wl *workloadDef, wrap ...middleware) (*outcome, error) {
	if cfg.trace {
		wrap = append(wrap, traceMiddleware)
	}
	var (
		h      *harness
		r      run
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if h != nil {
			r.close()
			h.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if h, err = startHarness(wrap...); err != nil {
			return nil, err
		}
		if r, err = wl.setup(h, cfg.seed); err != nil {
			h.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer h.close()
	defer r.close()
	if err := r.verify(); err != nil {
		return nil, err
	}

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		h.tr.Store(rec)
	}
	before, err := h.statz()
	if err != nil {
		return nil, err
	}
	heap0 := liveHeap()
	m0 := readMem()
	h.open()
	out := &outcome{counts: make([]int, wl.clients), digests: make([][]uint64, wl.clients)}
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		errMu sync.Mutex
		first error
	)
	deadline := h.opened.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for c := 0; c < wl.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load() && time.Now().Before(deadline); i++ {
				t0 := time.Now()
				d, err := r.op(c, i)
				if err != nil && !errors.Is(err, errRequest) {
					errMu.Lock()
					if first == nil {
						first = fmt.Errorf("client %d operation %d: %w", c, i, err)
					}
					errMu.Unlock()
					stop.Store(true)
					return
				}
				h.sample("op", time.Since(t0))
				out.digests[c] = append(out.digests[c], d)
				out.counts[c] = i + 1
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(h.opened).Seconds()
	h.timing.Store(false)
	m1 := readMem()
	if first != nil {
		return nil, first
	}
	after, err := h.statz()
	if err != nil {
		return nil, err
	}
	heap1 := liveHeap()

	for _, n := range out.counts {
		out.ops += n
	}
	if out.ops == 0 {
		return nil, fmt.Errorf("no operation completed in %.1fs", cfg.seconds)
	}
	out.attempted, out.failed = h.attempted.Load(), h.failed.Load()
	ops := float64(out.ops)
	h.mu.Lock()
	samples := h.samples
	h.mu.Unlock()
	head := samples[wl.headline]
	allocKB := float64(m1.totalAlloc-m0.totalAlloc) / 1024 / ops
	retainedKB := (float64(heap1) - float64(heap0)) / 1024 / ops
	rate := slicedRate(samples["op"], elapsed)
	out.e2e = map[string]float64{
		"setup_s":         median(setups),
		"latency_p50_ms":  slicedPercentile(head, elapsed, 0.5),
		"latency_p90_ms":  slicedPercentile(head, elapsed, 0.9),
		"ops_per_s":       rate,
		"alloc_kb_per_op": allocKB,
	}
	out.table = routeTable(wl.name, samples, elapsed, rate, retainedKB, out)

	if cfg.trace {
		batches := 0.0
		if wl.batches {
			batches = ops
		}
		out.httpSpans = rec.finished()
		out.layer = httpLayerMetrics(out.httpSpans, h, before, after, batches)
		for k, v := range r.counters() {
			out.layer[k] = v
		}
		out.layer["db.retained_kb_per_batch"] = ratio(retainedKB*ops, batches)
		out.layer["runtime.retained_kb_per_op"] = retainedKB
		out.layer["runtime.alloc_kb_per_op"] = allocKB
		out.layer["runtime.allocs_per_op"] = float64(m1.mallocs-m0.mallocs) / ops
		out.layer["runtime.gc_per_1k_ops"] = float64(m1.numGC-m0.numGC) / ops * 1000
		out.layer["runtime.cpu_ms_per_op"] = float64((m1.cpu - m0.cpu).Nanoseconds()) / 1e6 / ops
	}
	return out, nil
}

// routeTable lists each workload's route-level numbers under the names the
// benchmark's design uses (eval_p50_ms, feed_lag_p90_ms, ...).
func routeTable(wl string, samples map[string][]sample, elapsed, rate, retainedKB float64, out *outcome) []tableRow {
	var rows []tableRow
	lat := func(name, key string, qs ...float64) {
		for _, q := range qs {
			rows = append(rows, tableRow{fmt.Sprintf("%s_p%d_ms", name, int(q*100)), slicedPercentile(samples[key], elapsed, q), "ms"})
		}
	}
	switch wl {
	case "read":
		lat("eval", "eval", 0.5, 0.9)
		rows = append(rows, tableRow{"evals_per_s", rate, "1/s"})
	case "churn":
		lat("eval", "eval", 0.5, 0.9)
		lat("mutate", "facts", 0.5, 0.9)
		lat("feed_lag", "feed_lag", 0.5, 0.9)
		rows = append(rows, tableRow{"batches_per_s", rate, "1/s"})
	case "optimize":
		lat("minimize", "minimize", 0.5, 0.9)
		lat("compare", "compare", 0.5)
		rows = append(rows, tableRow{"programs_per_s", rate, "1/s"})
	}
	rows = append(rows,
		tableRow{"retained_kb_per_op", retainedKB, "kB"},
		tableRow{"failed_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio"})
	return rows
}

// httpLayerMetrics derives the per-layer numbers the HTTP leg alone gives:
// handler and transport times from its spans, and counters from /statz
// deltas and /eval answers.
func httpLayerMetrics(spans []span, h *harness, before, after statz, batches float64) map[string]float64 {
	m := make(map[string]float64)
	total, calls := layerTotals(spans)
	for _, route := range []string{"eval", "facts", "minimize", "compare"} {
		m["service."+route+"_ms"] = ratio(float64(total["service."+route]), float64(calls["service."+route])) / 1e6
	}
	var clientNS, clientN float64
	for name, ns := range total {
		if strings.HasPrefix(name, "client.") {
			clientNS += float64(ns)
			clientN += float64(calls[name])
		}
	}
	m["http.transport_ms"] = ratio(clientNS, clientN) / 1e6

	d := func(a, b float64) float64 { return a - b }
	bt, at := before.Eval.Totals, after.Eval.Totals
	frozen, skipped := d(at.RelationsFrozen, bt.RelationsFrozen), d(at.FreezeSkipped, bt.FreezeSkipped)
	m["db.relations_frozen_per_batch"] = ratio(frozen, batches)
	m["db.freeze_skipped_ratio"] = ratio(skipped, frozen+skipped)
	over := d(at.Overdeleted, bt.Overdeleted)
	m["eval.count_adjusted_per_batch"] = ratio(d(at.CountAdjusted, bt.CountAdjusted), batches)
	m["eval.overdeleted_per_batch"] = ratio(over, batches)
	m["eval.rederived_per_overdeleted"] = ratio(d(at.Rederived, bt.Rederived), over)
	hits := d(after.PlanCache.Hits, before.PlanCache.Hits)
	m["eval.plan_cache_hit_ratio"] = ratio(hits, hits+d(after.PlanCache.Misses, before.PlanCache.Misses))
	sub := d(at.VerdictsSubsumed, bt.VerdictsSubsumed)
	m["chase.verdicts_subsumed_ratio"] = ratio(sub, sub+d(at.VerdictsReused, bt.VerdictsReused)+d(at.VerdictsRecomputed, bt.VerdictsRecomputed))
	m["chase.verdict_store_hit_ratio"] = ratio(d(after.VerdictStore.Hits, before.VerdictStore.Hits), d(after.VerdictStore.Lookups, before.VerdictStore.Lookups))
	evals, firings := float64(h.evals.Load()), float64(h.firings.Load())
	m["eval.rounds_per_eval"] = ratio(float64(h.rounds.Load()), evals)
	m["eval.firings_per_eval"] = ratio(firings, evals)
	m["eval.added_per_firing"] = ratio(float64(h.added.Load()), firings)
	return m
}

// replayResult is what the replay leg hands back to the traced run.
type replayResult struct {
	Digests [][]uint64 `json:"digests"`
	Spans   []span     `json:"spans"`
}

// replayLeg replays counts[c] operations of each client through the
// layers' public functions, sequentially, one root span per operation.
func replayLeg(wl *workloadDef, seed int64, counts []int) (*replayResult, error) {
	rp, err := wl.replay(seed)
	if err != nil {
		return nil, fmt.Errorf("replay set-up: %w", err)
	}
	rec := newRecorder()
	res := &replayResult{Digests: make([][]uint64, len(counts))}
	for c, n := range counts {
		for i := 0; i < n; i++ {
			root := rec.begin("replay.op", opID(c, i), 0)
			d, err := rp.op(c, i, opTrace{tr: rec, op: root.Op, parent: root.ID})
			rec.end(root)
			if err != nil {
				return nil, fmt.Errorf("replaying client %d operation %d: %w", c, i, err)
			}
			res.Digests[c] = append(res.Digests[c], d)
		}
	}
	res.Spans = rec.finished()
	return res, nil
}

// checkReplay reports the first operation whose replayed answers differ
// from the HTTP leg's. A zero HTTP digest marks an operation whose request
// failed, which has no answer to compare.
func checkReplay(http, replay [][]uint64) error {
	for c := range http {
		if c >= len(replay) || len(replay[c]) != len(http[c]) {
			return fmt.Errorf("replay of client %d ran a different number of operations", c)
		}
		for i := range http[c] {
			if http[c][i] != 0 && http[c][i] != replay[c][i] {
				return fmt.Errorf("replay of client %d operation %d answered differently from the server", c, i)
			}
		}
	}
	return nil
}

// replayLayerMetrics adds the replay leg's per-call layer times and the
// glue time: handler time per operation not spent in a replayed layer call.
func replayLayerMetrics(m map[string]float64, httpSpans, replaySpans []span, ops int) {
	total, calls := layerTotals(replaySpans)
	var layersNS float64
	for _, name := range layerSpans {
		m[name+"_ms"] = ratio(float64(total[name]), float64(calls[name])) / 1e6
		layersNS += float64(total[name])
	}
	var handlerNS float64
	for _, s := range httpSpans {
		if s.Op >= 0 && strings.HasPrefix(s.Name, "service.") {
			handlerNS += float64(s.End - s.Start)
		}
	}
	m["service.glue_ms"] = (handlerNS - layersNS) / float64(ops) / 1e6
}

// traced completes a traced run: it replays the HTTP leg's operations in a
// child process, whose plan cache and verdict store start as cold as the
// server's did, checks the replay answered the same, derives the per-layer
// metrics and writes every span to the trace file.
func traced(cfg config, wl *workloadDef, out *outcome) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	base := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d", wl.name, cfg.seed))
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own executable: %w", err)
	}
	counts := make([]string, len(out.counts))
	for i, n := range out.counts {
		counts[i] = strconv.Itoa(n)
	}
	cmd := exec.Command(exe, "--workload", wl.name, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--replay", strings.Join(counts, ","), "--out", base+"-replay.json")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("replay leg: %w", err)
	}
	data, err := os.ReadFile(base + "-replay.json")
	if err != nil {
		return fmt.Errorf("reading replay result: %w", err)
	}
	var res replayResult
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("decoding replay result: %w", err)
	}
	if err := checkReplay(out.digests, res.Digests); err != nil {
		return err
	}
	replayLayerMetrics(out.layer, out.httpSpans, res.Spans, out.ops)
	spans, err := json.Marshal(map[string][]span{"http": out.httpSpans, "replay": res.Spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(base+".json", spans, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace: %s.json (%d HTTP spans, %d replay spans)\n", base, len(out.httpSpans), len(res.Spans))
	return nil
}

// metricJSON is one metric on the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func metricsOf(defs []metricDef, values map[string]float64) map[string]metricJSON {
	m := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		m[d.name] = metricJSON{Value: values[d.name], Unit: d.unit}
	}
	return m
}

// printRun prints a run's numbers for people, then its result line.
func printRun(wl *workloadDef, cfg config, out *outcome) error {
	fmt.Printf("workload %s seed %d: %d operations, %d requests, %d failed\n", wl.name, cfg.seed, out.ops, out.attempted, out.failed)
	for _, r := range out.table {
		fmt.Printf("  %-26s %14.4f %s\n", r.name, r.value, r.unit)
	}
	e2e, err := json.Marshal(metricsOf(endToEnd, out.e2e))
	if err != nil {
		return err
	}
	// The end-to-end numbers on their own line let the steadiness report
	// compare traced with untraced runs.
	fmt.Printf("e2e: %s\n", e2e)
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: metricsOf(endToEnd, out.e2e)}
	if cfg.trace {
		names := make([]string, 0, len(perLayer))
		for _, d := range perLayer {
			names = append(names, d.name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-36s %14.4f\n", n, out.layer[n])
		}
		res.Metrics = metricsOf(perLayer, out.layer)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: read, churn or optimize")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Float64("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 for a traced run printing the per-layer metrics")
		report  = flag.Int("report", 0, "steadiness report: runs per workload and seed")
		replay  = flag.String("replay", "", "replay leg of a traced run: operations per client (internal)")
		outPath = flag.String("out", "", "replay leg's result file (internal)")
	)
	flag.Parse()
	if *report > 0 {
		if err := steadiness(*report, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *replay != "" {
		if err := replayMain(wl, *seed, *replay, *outPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: filepath.Join(".bench_build", "traces")}
	out, err := measure(cfg, wl)
	if err == nil && cfg.trace {
		err = traced(cfg, wl, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printRun(wl, cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// replayMain is the child process of a traced run.
func replayMain(wl *workloadDef, seed int64, countList, outPath string) error {
	var counts []int
	for _, s := range strings.Split(countList, ",") {
		n, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("bad --replay count %q", s)
		}
		counts = append(counts, n)
	}
	res, err := replayLeg(wl, seed, counts)
	if err != nil {
		return err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}
