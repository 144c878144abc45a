package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// maxConns caps the client's connections to the server: two request loops
// at most, or one loop plus one changefeed, on the two cores the benchmark
// is sized for.
const maxConns = 2

// spanHeader carries "<op>.<client span id>" so the server-side timing
// middleware can parent its handler span under the client's request span.
const spanHeader = "X-Perfbench-Span"

// errRequest marks a failed request — a non-2xx status, a transport error
// or a dropped changefeed. Failures are counted, not fatal; any other error
// from an operation is a wrong answer and aborts the run.
var errRequest = errors.New("request failed")

// harness is one in-process server behind a loopback listener plus the
// HTTP client that drives it, with the latency samples and failure counts
// of the timed window.
type harness struct {
	srv    *http.Server
	base   string
	client *http.Client
	done   chan struct{} // closed when Serve returns

	tr     atomic.Pointer[recorder] // set for the timed window of a traced run
	opened time.Time                // when the timed window opened; written before timing is set
	timing atomic.Bool              // samples and counts are kept only while set

	mu      sync.Mutex
	samples map[string][]sample // latency samples by route or metric family

	attempted, failed             atomic.Int64
	evals, rounds, firings, added atomic.Int64
}

// middleware wraps the server's handler; a traced run adds its timing
// middleware here and tests add answer-corrupting ones.
type middleware func(h *harness, next http.Handler) http.Handler

// startHarness starts a fresh server, with a plan cache of its own so every
// set-up prepares cold like a new process, and connects a client to it.
func startHarness(wrap ...middleware) (*harness, error) {
	h := &harness{samples: make(map[string][]sample), done: make(chan struct{})}
	var handler http.Handler = service.New(core.SessionOptions{PlanCache: core.NewPlanCache(0)}).Handler()
	for _, m := range wrap {
		handler = m(h, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	h.base = "http://" + ln.Addr().String()
	h.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	go func() {
		defer close(h.done)
		_ = h.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return h, nil
}

// close shuts the server and the client down and waits for Serve to return.
func (h *harness) close() {
	h.client.CloseIdleConnections()
	_ = h.srv.Close() // the listener's close error changes nothing here
	<-h.done
}

// open starts the timed window.
func (h *harness) open() {
	h.opened = time.Now()
	h.timing.Store(true)
}

// sample records one latency under key while the window is open.
func (h *harness) sample(key string, d time.Duration) {
	if !h.timing.Load() {
		return
	}
	h.mu.Lock()
	h.samples[key] = append(h.samples[key], sample{at: time.Since(h.opened).Seconds(), ms: float64(d.Nanoseconds()) / 1e6})
	h.mu.Unlock()
}

// fail counts one failure while the window is open and returns errRequest.
func (h *harness) fail(format string, args ...any) error {
	if h.timing.Load() {
		h.failed.Add(1)
	}
	return fmt.Errorf("%w: %s", errRequest, fmt.Sprintf(format, args...))
}

// post sends one JSON request for operation op and decodes the JSON answer
// into out. route names the request in samples and spans.
func (h *harness) post(op int64, route, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("encoding %s request: %w", route, err)
	}
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("building %s request: %w", route, err)
	}
	tr := h.tr.Load()
	sp := tr.begin("client."+route, op, 0)
	if tr != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d.%d", op, sp.ID))
	}
	if h.timing.Load() {
		h.attempted.Add(1)
	}
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return h.fail("%s: %v", route, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return h.fail("%s: reading answer: %v", route, err)
	}
	if resp.StatusCode/100 != 2 {
		return h.fail("%s: status %d: %s", route, resp.StatusCode, bytes.TrimSpace(data))
	}
	h.sample(route, time.Since(start))
	tr.end(sp)
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s: malformed answer: %w", route, err)
	}
	return nil
}

// evalStats is the part of an /eval answer's stats the per-layer metrics use.
type evalStats struct {
	Rounds  int `json:"rounds"`
	Firings int `json:"firings"`
	Added   int `json:"added"`
}

// countEval folds one /eval answer's stats into the window's totals.
func (h *harness) countEval(st evalStats) {
	if !h.timing.Load() {
		return
	}
	h.evals.Add(1)
	h.rounds.Add(int64(st.Rounds))
	h.firings.Add(int64(st.Firings))
	h.added.Add(int64(st.Added))
}

// statz is the part of /v1/statz the per-layer metrics use.
type statz struct {
	Eval struct {
		Totals struct {
			VerdictsReused     float64 `json:"verdicts_reused"`
			VerdictsRecomputed float64 `json:"verdicts_recomputed"`
			VerdictsSubsumed   float64 `json:"verdicts_subsumed"`
			CountAdjusted      float64 `json:"count_adjusted"`
			Overdeleted        float64 `json:"overdeleted"`
			Rederived          float64 `json:"rederived"`
			RelationsFrozen    float64 `json:"relations_frozen"`
			FreezeSkipped      float64 `json:"freeze_skipped"`
		} `json:"totals"`
	} `json:"eval"`
	PlanCache struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"plan_cache"`
	VerdictStore struct {
		Lookups float64 `json:"lookups"`
		Hits    float64 `json:"hits"`
	} `json:"verdict_store"`
}

// statz reads the server's counters; it is not a timed operation.
func (h *harness) statz() (statz, error) {
	var s statz
	resp, err := h.client.Get(h.base + "/v1/statz")
	if err != nil {
		return s, fmt.Errorf("reading statz: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("decoding statz: %w", err)
	}
	return s, nil
}

// traceMiddleware times every handler call from outside the server and
// parents it under the client span named in the request header.
func traceMiddleware(h *harness, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := h.tr.Load()
		opStr, parentStr, ok := strings.Cut(r.Header.Get(spanHeader), ".")
		if tr == nil || !ok {
			next.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(opStr, 10, 64)
		parent, _ := strconv.ParseInt(parentStr, 10, 64)
		sp := tr.begin("service."+routeOf(r.URL.Path), op, parent)
		next.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// routeOf names a request path's route: the segment after the program
// name, or "register" for the program path itself.
func routeOf(path string) string {
	rest := strings.TrimPrefix(path, "/v1/programs/")
	if _, r, ok := strings.Cut(rest, "/"); ok {
		return r
	}
	return "register"
}

// frame is one changefeed frame as the client receives it.
type frame struct {
	Seq       uint64   `json:"seq"`
	DBVersion int      `json:"db_version"`
	Snapshot  bool     `json:"snapshot"`
	Facts     []string `json:"facts"`
	Added     []string `json:"added"`
	Removed   []string `json:"removed"`
	Error     string   `json:"error"`

	at time.Time // when the client decoded it
}

// feed is an open changefeed subscription read by its own goroutine.
type feed struct {
	frames chan frame
	cancel context.CancelFunc
	done   chan struct{}
}

// subscribe opens a changefeed and starts reading it. Frames arrive on
// f.frames, which is closed when the stream ends.
func (h *harness) subscribe(path string, in any) (*feed, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("encoding subscription: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, fmt.Errorf("building subscription: %w", err)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribing: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribing: status %d", resp.StatusCode)
	}
	// The client waits for each batch's frame before sending the next, so
	// at most one frame is ever queued; the buffer matches the server's
	// per-subscriber buffer so the reader never holds the stream back.
	f := &feed{frames: make(chan frame, 16), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer close(f.frames)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<30)
		for sc.Scan() {
			var fr frame
			if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
				fr.Error = "malformed_frame"
			}
			fr.at = time.Now()
			f.frames <- fr
		}
	}()
	return f, nil
}

// close ends the subscription and waits for its reader to exit.
func (f *feed) close() {
	f.cancel()
	for range f.frames {
	}
	<-f.done
}
