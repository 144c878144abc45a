package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which judges the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSlicedFigures(t *testing.T) {
	// A 20 s window is cut into four 5 s slices: the first is disturbed,
	// the third is the quietest, and the second holds fewer samples.
	var xs []sample
	for k, c := range []struct {
		ms float64
		n  int
	}{{50, 10}, {12, 8}, {10, 10}, {11, 10}} {
		for i := 0; i < c.n; i++ {
			xs = append(xs, sample{at: float64(k)*5 + float64(i)*0.5, ms: c.ms + float64(i)})
		}
	}
	if got, want := slicedPercentile(xs, 20, 0.5), 14.5; !near(got, want) {
		t.Errorf("slicedPercentile p50 = %v, want %v", got, want)
	}
	if got, want := slicedPercentile(xs, 20, 0.9), 18.1; !near(got, want) {
		t.Errorf("slicedPercentile p90 = %v, want %v", got, want)
	}
	if got, want := slicedRate(xs, 20), 2.0; !near(got, want) {
		t.Errorf("slicedRate = %v, want %v", got, want)
	}
	xs = append(xs, sample{at: 21, ms: 1}, sample{at: 22, ms: 1}) // stragglers past the window land in the last slice
	if got, want := slicedRate(xs, 20), 2.4; !near(got, want) {
		t.Errorf("slicedRate with stragglers = %v, want %v", got, want)
	}
	if got := slicedPercentile(nil, 20, 0.5); got != 0 {
		t.Errorf("slicedPercentile of no samples = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
		{ID: 6, Name: "lone", Start: 200, End: 230},
	}
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20 - 10, 3: 30, 4: 30, 5: 10, 6: 30}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestLayerTotalsSkipsUntimedOperations(t *testing.T) {
	spans := []span{
		{ID: 1, Op: -1, Name: "x", Start: 0, End: 50},
		{ID: 2, Op: 0, Name: "x", Start: 0, End: 10},
		{ID: 3, Op: 1, Name: "x", Start: 0, End: 30},
	}
	total, calls := layerTotals(spans)
	if total["x"] != 40 || calls["x"] != 2 {
		t.Errorf("layerTotals = %d ns over %d calls, want 40 over 2", total["x"], calls["x"])
	}
}

func TestReadOracle(t *testing.T) {
	g := digraph{{1}, {2}, {1}, {}} // 0 → 1 ⇄ 2, 3 isolated
	if err := g.checkRead(0, [][]string{{"0", "2"}, {"0", "1"}}); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	if err := g.checkRead(0, [][]string{{"0", "1"}}); err == nil {
		t.Error("answer missing a row accepted")
	}
	if err := g.checkRead(3, [][]string{{"3", "3"}}); err == nil {
		t.Error("answer with an extra row accepted")
	}
}

func TestChurnOracle(t *testing.T) {
	m := newAuthz(1)
	b := m.next()
	if len(b.added) == 0 || len(b.removed) == 0 {
		t.Fatalf("a batch of moves changed nothing: %+v", b)
	}
	if err := b.checkFrame(frame{Added: b.added, Removed: b.removed}); err != nil {
		t.Errorf("right frame rejected: %v", err)
	}
	if err := b.checkFrame(frame{Added: b.added[1:], Removed: b.removed}); err == nil {
		t.Error("frame missing an added fact accepted")
	}
	if err := b.checkFrame(frame{Added: b.added, Removed: append([]string{"Member(0, 10000)"}, b.removed...)}); err == nil {
		t.Error("frame with an extra removed fact accepted")
	}
	if err := b.checkRows(0, b.rows[0]); err != nil {
		t.Errorf("right rows rejected: %v", err)
	}
	if err := b.checkRows(0, append(b.rows[0], []string{"0", "39999"})); err == nil {
		t.Error("rows with an extra document accepted")
	}
}

func TestOptimizeOracle(t *testing.T) {
	minimized := "P(x, y) :- A(x, y).\nQ(x, y) :- P(x, z), B(z, y).\n"
	injected := "P(x, y) :- A(x, y), A(x, red0).\nQ(x, y) :- P(x, z), B(z, y).\n"
	good := optResult{Program: minimized, Equivalent: true}
	if err := good.check(injected); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	for name, bad := range map[string]optResult{
		"not equivalent":  {Program: minimized},
		"nothing removed": {Program: injected, Equivalent: true},
		"more rules":      {Program: minimized + "Q(x, y) :- B(x, y).\n", Equivalent: true},
		"not minimal":     {Program: minimized, Equivalent: true, AgainAtoms: 1},
		"vet errors":      {Program: minimized, Equivalent: true, VetErrors: true},
	} {
		if err := bad.check(injected); err == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
}

// tamper corrupts the nth answer on route inside the timed window.
func tamper(route string, nth int32, edit func(map[string]any)) middleware {
	var n atomic.Int32
	return func(h *harness, next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if routeOf(r.URL.Path) != route || !h.timing.Load() || n.Add(1) != nth {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				panic(err)
			}
			edit(body)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			_ = json.NewEncoder(w).Encode(body)
		})
	}
}

// frameTamper drops the first added fact of the first diff frame it
// streams.
type frameTamper struct {
	http.ResponseWriter
	done *atomic.Bool
}

func (f frameTamper) Write(p []byte) (int, error) {
	var fr map[string]any
	if !f.done.Load() && json.Unmarshal(p, &fr) == nil {
		if added, ok := fr["added"].([]any); ok && len(added) > 0 {
			f.done.Store(true)
			fr["added"] = added[1:]
			q, _ := json.Marshal(fr)
			_, err := f.ResponseWriter.Write(append(q, '\n'))
			return len(p), err
		}
	}
	return f.ResponseWriter.Write(p)
}

func (f frameTamper) Flush() { f.ResponseWriter.(http.Flusher).Flush() }

func tamperFrames() middleware {
	var done atomic.Bool
	return func(h *harness, next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if routeOf(r.URL.Path) == "subscriptions" {
				w = frameTamper{ResponseWriter: w, done: &done}
			}
			next.ServeHTTP(w, r)
		})
	}
}

func dropLastRow(body map[string]any) {
	rows := body["rows"].([]any)
	body["rows"] = rows[:len(rows)-1]
}

// TestWrongAnswersFailTheRun corrupts one server answer per oracle and
// checks that the run stops with a wrong-answer error, while the same run
// uncorrupted passes.
func TestWrongAnswersFailTheRun(t *testing.T) {
	cfg := config{seed: 3, seconds: 0.5}
	for _, c := range []struct {
		workload string
		wrap     middleware
	}{
		{"read", tamper("eval", 3, dropLastRow)},
		{"churn", tamperFrames()},
		{"churn", tamper("eval", 2, dropLastRow)},
		{"optimize", tamper("compare", 2, func(b map[string]any) { b["equivalent"] = false })},
		{"optimize", tamper("minimize", 2, func(b map[string]any) { b["rules_removed"] = 1 })}, // v2's re-minimization
	} {
		wl, err := findWorkload(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := measure(cfg, wl, c.wrap); err == nil || !strings.Contains(err.Error(), "wrong") {
			t.Errorf("%s with a corrupted answer: err = %v, want a wrong-answer error", c.workload, err)
		}
	}
	for _, wl := range workloads {
		out, err := measure(cfg, &wl)
		if err != nil {
			t.Errorf("%s: %v", wl.name, err)
			continue
		}
		if out.failed != 0 || out.ops == 0 {
			t.Errorf("%s: %d operations, %d failed requests", wl.name, out.ops, out.failed)
		}
	}
}

// TestReplayMatchesHTTP replays each workload's HTTP operations through the
// layers' public functions and checks both legs answered the same.
func TestReplayMatchesHTTP(t *testing.T) {
	for _, wl := range workloads {
		out, err := measure(config{seed: 5, seconds: 0.5}, &wl)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		res, err := replayLeg(&wl, 5, out.counts)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if err := checkReplay(out.digests, res.Digests); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
		if _, calls := layerTotals(res.Spans); calls["replay.op"] != out.ops {
			t.Errorf("%s: %d replay.op spans for %d operations", wl.name, calls["replay.op"], out.ops)
		}
		res.Digests[0][0]++
		if err := checkReplay(out.digests, res.Digests); err == nil {
			t.Errorf("%s: a differing replay answer went unnoticed", wl.name)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metric
// lists the program prints in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
}
