package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

// newOracleSession prepares a program exactly as a one-shot library caller
// would.
func newOracleSession(p *ast.Program) (*eval.Prepared, error) {
	return eval.Prepare(p, eval.Options{})
}

const authzProgram = `
	Member(u, g) :- Direct(u, g).
	Member(u, g) :- Member(u, h), Subgroup(h, g).
	HasRole(u, r) :- Member(u, g), Grant(g, r).
	CanRead(u, d) :- HasRole(u, r), Allows(r, d).
`

const tenantAFacts = `
	Direct("ann", "eng").
	Subgroup("eng", "staff").
	Grant("staff", "viewer").
	Allows("viewer", "handbook").
`

const tenantAFacts2 = `
	Grant("eng", "editor").
	Allows("editor", "designdoc").
`

const tenantBFacts = `
	Direct("bob", "ops").
	Subgroup("ops", "staff").
	Grant("staff", "viewer").
	Allows("viewer", "runbook").
`

// post issues a JSON request and decodes the JSON response.
func post(t *testing.T, ts *httptest.Server, path string, body any) (int, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, out
}

// oracleRows computes, through one-shot library calls, the formatted sorted
// rows the service must return for query over program+facts — parsing
// program then fact sets in the same order the service did, so symbols
// intern to the same constants.
func oracleRows(t *testing.T, program string, factSets []string, query string) []string {
	t.Helper()
	syms := ast.NewSymbolTable()
	res, err := parser.ParseWithSymbols(program, syms)
	if err != nil {
		t.Fatal(err)
	}
	d := db.New()
	for _, fs := range factSets {
		fres, err := parser.ParseWithSymbols(fs, syms)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fres.Facts {
			d.AddTuple(f.Pred, f.Args)
		}
	}
	atom, err := parser.ParseAtomWithSymbols(query, syms)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := newOracleSession(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(d, atom)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = ast.FormatConst(c, syms)
		}
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return out
}

// respRows flattens a JSON rows payload to "a,b" strings (already sorted by
// the server).
func respRows(t *testing.T, resp map[string]any) []string {
	t.Helper()
	raw, ok := resp["rows"].([]any)
	if !ok {
		t.Fatalf("response has no rows: %v", resp)
	}
	out := make([]string, len(raw))
	for i, r := range raw {
		cells := r.([]any)
		parts := make([]string, len(cells))
		for j, c := range cells {
			parts[j] = c.(string)
		}
		out[i] = strings.Join(parts, ",")
	}
	return out
}

// TestServeE2ETwoTenants is the acceptance scenario: two tenants issue
// concurrent eval, minimize and compare requests over frozen snapshots of
// different database versions of one named program, and every result is
// byte-identical to a one-shot library call. Run under -race in CI.
func TestServeE2ETwoTenants(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram})
	if code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	// A redundant second version for compare: duplicate atom in HasRole.
	redundant := strings.Replace(authzProgram, "Grant(g, r).", "Grant(g, r), Grant(g, r).", 1)
	code, resp = post(t, ts, "/v1/programs/authz", map[string]any{"source": redundant})
	if code != 200 || resp["version"].(float64) != 2 {
		t.Fatalf("register v2: %d %v", code, resp)
	}

	if code, resp = post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "facts": tenantAFacts}); code != 200 {
		t.Fatalf("facts acme: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "facts": tenantAFacts2}); code != 200 {
		t.Fatalf("facts acme v2: %d %v", code, resp)
	}
	if v := resp["db_version"].(float64); v != 2 {
		t.Fatalf("acme db_version = %v, want 2", v)
	}
	if code, resp = post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "globex", "facts": tenantBFacts}); code != 200 {
		t.Fatalf("facts globex: %d %v", code, resp)
	}

	query := "CanRead(u, d)"
	wantAcmeV1 := oracleRows(t, authzProgram, []string{tenantAFacts}, query)
	wantAcmeV2 := oracleRows(t, authzProgram, []string{tenantAFacts, tenantAFacts2}, query)
	// globex facts intern after acme's in the shared entry table; the
	// oracle mirrors that by interning all fact sets, building only globex's.
	wantGlobex := oracleRowsSubset(t, authzProgram, []string{tenantAFacts, tenantAFacts2}, tenantBFacts, query)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 4 {
				case 0: // acme, pinned old snapshot version
					code, resp := post(t, ts, "/v1/programs/authz/eval",
						map[string]any{"tenant": "acme", "query": query, "db_version": 1})
					if code != 200 {
						errs <- fmt.Sprintf("eval acme v1: %d %v", code, resp)
						return
					}
					if got := respRows(t, resp); !equalStrings(got, wantAcmeV1) {
						errs <- fmt.Sprintf("acme v1 rows = %v, want %v", got, wantAcmeV1)
					}
				case 1: // acme, latest
					code, resp := post(t, ts, "/v1/programs/authz/eval",
						map[string]any{"tenant": "acme", "query": query})
					if code != 200 {
						errs <- fmt.Sprintf("eval acme: %d %v", code, resp)
						return
					}
					if got := respRows(t, resp); !equalStrings(got, wantAcmeV2) {
						errs <- fmt.Sprintf("acme rows = %v, want %v", got, wantAcmeV2)
					}
				case 2: // globex
					code, resp := post(t, ts, "/v1/programs/authz/eval",
						map[string]any{"tenant": "globex", "query": query})
					if code != 200 {
						errs <- fmt.Sprintf("eval globex: %d %v", code, resp)
						return
					}
					if got := respRows(t, resp); !equalStrings(got, wantGlobex) {
						errs <- fmt.Sprintf("globex rows = %v, want %v", got, wantGlobex)
					}
				case 3: // minimize v2 and compare v1 vs v2
					code, resp := post(t, ts, "/v1/programs/authz/minimize",
						map[string]any{"program_version": 2})
					if code != 200 {
						errs <- fmt.Sprintf("minimize: %d %v", code, resp)
						return
					}
					if removed := resp["atoms_removed"].(float64); removed < 1 {
						errs <- fmt.Sprintf("minimize removed %v atoms, want ≥ 1", removed)
					}
					code, resp = post(t, ts, "/v1/programs/authz/compare",
						map[string]any{"version_a": 1, "version_b": 2})
					if code != 200 {
						errs <- fmt.Sprintf("compare: %d %v", code, resp)
						return
					}
					if eq := resp["equivalent"].(bool); !eq {
						errs <- "compare: v1 and v2 not equivalent"
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// statz reflects the traffic and the shared stores.
	code, stz := get(t, ts, "/v1/statz")
	if code != 200 {
		t.Fatalf("statz: %d %v", code, stz)
	}
	if reqs := stz["requests"].(map[string]any)["total"].(float64); reqs < 10 {
		t.Fatalf("statz total requests = %v, want ≥ 10", reqs)
	}
}

// oracleRowsSubset is oracleRows with warm-up fact sets interned first (to
// mirror the server's shared symbol table) but only the final set loaded.
func oracleRowsSubset(t *testing.T, program string, warm []string, load string, query string) []string {
	t.Helper()
	syms := ast.NewSymbolTable()
	res, err := parser.ParseWithSymbols(program, syms)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range warm {
		if _, err := parser.ParseWithSymbols(fs, syms); err != nil {
			t.Fatal(err)
		}
	}
	fres, err := parser.ParseWithSymbols(load, syms)
	if err != nil {
		t.Fatal(err)
	}
	d := db.New()
	for _, f := range fres.Facts {
		d.AddTuple(f.Pred, f.Args)
	}
	atom, err := parser.ParseAtomWithSymbols(query, syms)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := newOracleSession(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(d, atom)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = ast.FormatConst(c, syms)
		}
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeBudgetAndDeadline exercises the typed error mapping: an expired
// deadline returns 504 deadline_exceeded, an exhausted derived-fact budget
// returns 422 budget_exhausted — and neither poisons the shared stores: the
// same request re-issued without the budget succeeds with correct rows.
func TestServeBudgetAndDeadline(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A chain program whose closure is quadratic in the chain length —
	// enough derived facts for budgets and deadlines to bite.
	prog := "T(x,y) :- E(x,y).\nT(x,z) :- E(x,y), T(y,z).\n"
	var facts strings.Builder
	for i := 0; i < 220; i++ {
		fmt.Fprintf(&facts, "E(%d,%d).\n", i, i+1)
	}
	if code, resp := post(t, ts, "/v1/programs/chain", map[string]any{"source": prog}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/chain/facts", map[string]any{"tenant": "t1", "facts": facts.String()}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}

	// Derived-fact budget: the closure needs ~24k facts; 100 cannot do.
	code, resp := post(t, ts, "/v1/programs/chain/eval",
		map[string]any{"tenant": "t1", "budget": map[string]any{"max_derived": 100}})
	if code != 422 {
		t.Fatalf("budget eval: code %d (%v), want 422", code, resp)
	}
	if resp["error"] != "budget_exhausted" {
		t.Fatalf("budget error code = %v, want budget_exhausted", resp["error"])
	}

	// Deadline: 0 < timeout < closure time. A 1ms budget expires during
	// the fixpoint (the closure takes well over 1ms on any hardware this
	// runs on).
	code, resp = post(t, ts, "/v1/programs/chain/eval",
		map[string]any{"tenant": "t1", "query": "T(0, x)", "budget": map[string]any{"timeout_ms": 1}})
	if code != 504 && code != 499 {
		t.Fatalf("deadline eval: code %d (%v), want 504/499", code, resp)
	}

	// No poisoning: the same query without a budget returns the full
	// closure from the same shared plan cache.
	code, resp = post(t, ts, "/v1/programs/chain/eval",
		map[string]any{"tenant": "t1", "query": "T(0, x)"})
	if code != 200 {
		t.Fatalf("clean eval after cancellation: %d %v", code, resp)
	}
	if rows := respRows(t, resp); len(rows) != 220 {
		t.Fatalf("clean eval rows = %d, want 220", len(rows))
	}
}

// TestStatzReportsInjectedCache pins /statz to the plan cache the server's
// sessions actually prepare through: a server constructed over an injected
// cache must report that cache's counters, not the process-wide default's.
func TestStatzReportsInjectedCache(t *testing.T) {
	cache := core.NewPlanCache(16)
	s := New(core.SessionOptions{PlanCache: cache})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "facts": tenantAFacts}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/minimize", map[string]any{}); code != 200 {
		t.Fatalf("minimize: %d %v", code, resp)
	}

	want := cache.Stats()
	if want.Entries == 0 || want.Misses == 0 {
		t.Fatalf("injected cache saw no traffic: %+v", want)
	}
	code, stz := get(t, ts, "/v1/statz")
	if code != 200 {
		t.Fatalf("statz: %d %v", code, stz)
	}
	pc := stz["plan_cache"].(map[string]any)
	if got := int(pc["entries"].(float64)); got != want.Entries {
		t.Fatalf("statz plan_cache entries = %d, want %d (the injected cache's)", got, want.Entries)
	}
	if got := uint64(pc["misses"].(float64)); got != want.Misses {
		t.Fatalf("statz plan_cache misses = %d, want %d (the injected cache's)", got, want.Misses)
	}
	if got := uint64(pc["hits"].(float64)); got != want.Hits {
		t.Fatalf("statz plan_cache hits = %d, want %d (the injected cache's)", got, want.Hits)
	}
}

// TestServeErrors pins the 404/400 envelope.
func TestServeErrors(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp := post(t, ts, "/v1/programs/nope/eval", map[string]any{"tenant": "t"})
	if code != 404 || resp["error"] != "unknown_program" {
		t.Fatalf("unknown program: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p", map[string]any{"source": "T(x :-"}); code != 400 || resp["error"] != "parse_error" {
		t.Fatalf("parse error: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p", map[string]any{"source": "T(x,y) :- E(x,y). E(1,2)."}); code != 400 || resp["error"] != "facts_in_program" {
		t.Fatalf("facts in program: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p", map[string]any{"source": "T(x,y) :- E(x,y)."}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p/facts", map[string]any{"tenant": "t", "facts": "T(x,y) :- E(x,y)."}); code != 400 || resp["error"] != "rules_in_facts" {
		t.Fatalf("rules in facts: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p/eval", map[string]any{"tenant": "ghost"}); code != 404 || resp["error"] != "unknown_tenant" {
		t.Fatalf("unknown tenant: %d %v", code, resp)
	}
}

// TestServeVetAndExplain covers the two read-side endpoints.
func TestServeVetAndExplain(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "facts": tenantAFacts}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}

	code, resp := post(t, ts, "/v1/programs/authz/vet", map[string]any{})
	if code != 200 {
		t.Fatalf("vet: %d %v", code, resp)
	}
	if resp["errors"].(bool) {
		t.Fatalf("vet reported errors on a clean program: %v", resp)
	}
	if _, has := resp["termination_class"]; has {
		t.Fatalf("tgd-free program reported a termination class: %v", resp)
	}

	// A tgd-bearing source additionally reports the set's termination class
	// and every diagnostic names its pass.
	if code, resp := post(t, ts, "/v1/programs/terminating", map[string]any{
		"source": "Out(y) :- Q(y).\nP(x, y) -> Q(y).\nQ(y) -> R(y, z).",
	}); code != 200 {
		t.Fatalf("register tgds: %d %v", code, resp)
	}
	code, resp = post(t, ts, "/v1/programs/terminating/vet", map[string]any{})
	if code != 200 {
		t.Fatalf("vet tgds: %d %v", code, resp)
	}
	if got := resp["termination_class"]; got != "weakly-acyclic" {
		t.Fatalf("termination_class = %v, want weakly-acyclic", got)
	}
	for _, dj := range resp["diagnostics"].([]any) {
		d := dj.(map[string]any)
		if d["pass"] == "" {
			t.Fatalf("diagnostic without a pass name: %v", d)
		}
	}

	code, resp = post(t, ts, "/v1/programs/authz/explain",
		map[string]any{"tenant": "acme", "fact": `CanRead("ann", "handbook")`})
	if code != 200 {
		t.Fatalf("explain: %d %v", code, resp)
	}
	if !resp["found"].(bool) {
		t.Fatalf("explain did not find the derivation: %v", resp)
	}
	der := resp["derivation"].(string)
	if !strings.Contains(der, "CanRead") || !strings.Contains(der, "Member") {
		t.Fatalf("derivation missing expected atoms:\n%s", der)
	}

	code, resp = post(t, ts, "/v1/programs/authz/explain",
		map[string]any{"tenant": "acme", "fact": "CanRead(u, d)"})
	if code != 400 || resp["error"] != "fact_not_ground" {
		t.Fatalf("non-ground explain: %d %v", code, resp)
	}
}

// statField reads one integer stats field out of a decoded JSON payload.
func statField(t *testing.T, stats map[string]any, key string) int {
	t.Helper()
	v, ok := stats[key].(float64)
	if !ok {
		t.Fatalf("stats payload missing %q: %v", key, stats)
	}
	return int(v)
}

// TestStatzShardTotalsTwoTenants drives sharded and unsharded eval requests
// from two tenants, sums the per-request stats payloads, and asserts the
// /v1/statz eval totals match the sum exactly — the shard counters
// (shard_rounds, delta_exchanged, shard_imbalance) included. Run under
// -race in CI: the per-session accounting and the statz read race against
// each other in production.
func TestStatzShardTotalsTwoTenants(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "facts": tenantAFacts}); code != 200 {
		t.Fatalf("facts acme: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "globex", "facts": tenantBFacts}); code != 200 {
		t.Fatalf("facts globex: %d %v", code, resp)
	}

	keys := []string{"rounds", "firings", "added", "shard_rounds", "delta_exchanged", "shard_imbalance"}
	sum := make(map[string]int)
	requests := 0
	wantRows := oracleRows(t, authzProgram, []string{tenantAFacts}, "CanRead(u, d)")
	for _, req := range []map[string]any{
		{"tenant": "acme", "query": "CanRead(u, d)", "budget": map[string]any{"shards": 4, "workers": 2}},
		{"tenant": "globex", "budget": map[string]any{"shards": 2}},
		{"tenant": "acme", "query": "CanRead(u, d)"},
		{"tenant": "globex", "query": "Member(u, g)", "budget": map[string]any{"shards": 8, "max_derived": 1000}},
	} {
		code, resp := post(t, ts, "/v1/programs/authz/eval", req)
		if code != 200 {
			t.Fatalf("eval %v: %d %v", req, code, resp)
		}
		stats, ok := resp["stats"].(map[string]any)
		if !ok {
			t.Fatalf("eval %v: no stats in %v", req, resp)
		}
		for _, k := range keys {
			sum[k] += statField(t, stats, k)
		}
		requests++
		if req["tenant"] == "acme" && req["query"] == "CanRead(u, d)" {
			if got := respRows(t, resp); !sliceEq(got, wantRows) {
				t.Fatalf("sharded rows diverge from oracle: got %v want %v", got, wantRows)
			}
		}
	}
	if sum["shard_rounds"] == 0 {
		t.Fatal("no request exercised the sharded executor")
	}

	code, resp := get(t, ts, "/v1/statz")
	if code != 200 {
		t.Fatalf("statz: %d %v", code, resp)
	}
	ev, ok := resp["eval"].(map[string]any)
	if !ok {
		t.Fatalf("statz has no eval section: %v", resp)
	}
	if got := int(ev["requests"].(float64)); got != requests {
		t.Fatalf("statz eval requests = %d, want %d", got, requests)
	}
	totals, ok := ev["totals"].(map[string]any)
	if !ok {
		t.Fatalf("statz eval has no totals: %v", ev)
	}
	for _, k := range keys {
		if got := statField(t, totals, k); got != sum[k] {
			t.Fatalf("statz totals[%q] = %d, want the per-request sum %d", k, got, sum[k])
		}
	}
}

func sliceEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOversizedBodyRejected posts a /facts body past the request-body cap:
// the server answers a typed 413 without buffering it and keeps serving.
func TestOversizedBodyRejected(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	facts := strings.Repeat(`Direct("u", "g"). `, maxBodyBytes/18+1)
	code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": facts})
	if code != http.StatusRequestEntityTooLarge || resp["error"] != "body_too_large" {
		t.Fatalf("oversized facts: %d %v, want 413 body_too_large", code, resp)
	}
	if code, resp := get(t, ts, "/v1/healthz"); code != 200 {
		t.Fatalf("healthz after oversized body: %d %v", code, resp)
	}
}
