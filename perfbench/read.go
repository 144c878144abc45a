package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/parser"
)

// The read workload: two closed-loop clients send /eval with
// Reach(<random node>, y) against one tenant's frozen digraph. Every request
// runs a full recursive semi-naive fixpoint with no writes and no view
// maintenance, so it isolates the round executor, its join kernels and the
// db.MatchAtom row filter.
//
// The graph's shape is fixed and only its node labels come from the seed,
// so every seed asks the engine for the same work: the same closure size,
// the same number of rounds, the same firings. The shape is a strongly
// connected core (a cycle through a permutation plus random chords) with
// chains hanging off it, drawn once from readShapeSeed. The seed relabels
// the nodes and picks the queried ones.
const (
	readShapeSeed = 1
	readCore      = 160
	readChords    = 200
	readChains    = 10
	readChainLen  = 4
	readNodes     = readCore + readChains*readChainLen
	readClients   = 2
)

const reachProgram = `Reach(x, y) :- E(x, y).
Reach(x, z) :- E(x, y), Reach(y, z).
`

// digraph is the read workload's edge set: succ[a] lists a's successors.
type digraph [][]int

// readGraph builds the seeded graph (400 edges over 200 nodes).
func readGraph(seed int64) digraph {
	rng := rand.New(rand.NewSource(readShapeSeed))
	label := rand.New(rand.NewSource(seed)).Perm(readNodes)
	g := make(digraph, readNodes)
	edge := func(a, b int) {
		a, b = label[a], label[b]
		for _, x := range g[a] {
			if x == b {
				return
			}
		}
		g[a] = append(g[a], b)
	}
	perm := rng.Perm(readCore)
	for i := range perm {
		edge(perm[i], perm[(i+1)%readCore])
	}
	for k := 0; k < readChords; k++ {
		edge(rng.Intn(readCore), rng.Intn(readCore))
	}
	for c := 0; c < readChains; c++ {
		head := readCore + c*readChainLen
		edge(rng.Intn(readCore), head)
		for j := 1; j < readChainLen; j++ {
			edge(head+j-1, head+j)
		}
	}
	return g
}

// facts renders the graph as E facts.
func (g digraph) facts() string {
	var b strings.Builder
	for a, succ := range g {
		for _, s := range succ {
			fmt.Fprintf(&b, "E(%d, %d).\n", a, s)
		}
	}
	return b.String()
}

// reachable is the oracle: the nodes reachable from q in one or more steps,
// by breadth-first search.
func (g digraph) reachable(q int) []int {
	seen := make([]bool, len(g))
	queue := append([]int(nil), g[q]...)
	for _, s := range queue {
		seen[s] = true
	}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, s := range g[a] {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	var out []int
	for n, ok := range seen {
		if ok {
			out = append(out, n)
		}
	}
	return out
}

// checkRead compares an answer's rows for Reach(q, y) with the oracle.
func (g digraph) checkRead(q int, rows [][]string) error {
	var want []string
	for _, n := range g.reachable(q) {
		want = append(want, strconv.Itoa(q)+" "+strconv.Itoa(n))
	}
	got := make([]string, len(rows))
	for i, r := range rows {
		got[i] = strings.Join(r, " ")
	}
	return sameSet("Reach("+strconv.Itoa(q)+", y)", got, want)
}

// sameSet reports, as a wrong-answer error, any difference between two
// string sets (duplicates count).
func sameSet(what string, got, want []string) error {
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		return fmt.Errorf("wrong answer for %s: %d items, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("wrong answer for %s: got %q, want %q", what, g[i], w[i])
		}
	}
	return nil
}

// readQueries draws each client's queried nodes.
type readQueries []*rand.Rand

func newReadQueries(seed int64) readQueries {
	q := make(readQueries, readClients)
	for c := range q {
		q[c] = rand.New(rand.NewSource(seed*31 + int64(c) + 1))
	}
	return q
}

func (q readQueries) next(c int) int { return q[c].Intn(readNodes) }

// readRun is the HTTP leg of the read workload.
type readRun struct {
	h *harness
	g digraph
	q readQueries
}

func setupRead(h *harness, seed int64) (run, error) {
	r := &readRun{h: h, g: readGraph(seed), q: newReadQueries(seed)}
	var reg, loaded map[string]any
	if err := h.post(-1, "register", "/v1/programs/reach", map[string]any{"source": reachProgram}, &reg); err != nil {
		return nil, err
	}
	if err := h.post(-1, "facts", "/v1/programs/reach/facts", map[string]any{"tenant": "t", "assert": r.g.facts()}, &loaded); err != nil {
		return nil, err
	}
	return r, nil
}

type rowsAnswer struct {
	DBVersion int        `json:"db_version"`
	Rows      [][]string `json:"rows"`
	Stats     evalStats  `json:"stats"`
}

func (r *readRun) op(c, i int) (uint64, error) {
	q := r.q.next(c)
	var ans rowsAnswer
	err := r.h.post(opID(c, i), "eval", "/v1/programs/reach/eval",
		map[string]any{"tenant": "t", "query": fmt.Sprintf("Reach(%d, y)", q)}, &ans)
	if err != nil {
		return 0, err
	}
	r.h.countEval(ans.Stats)
	if err := r.g.checkRead(q, ans.Rows); err != nil {
		return 0, err
	}
	return rowsDigest(ans.Rows), nil
}

func (r *readRun) verify() error                { return nil }
func (r *readRun) counters() map[string]float64 { return nil }
func (r *readRun) close()                       {}

func rowsDigest(rows [][]string) uint64 {
	b, _ := json.Marshal(rows) // [][]string always encodes
	return digest(b)
}

// readReplay is the replay leg: the same queries through the layers'
// public functions, mirroring the /eval handler.
type readReplay struct {
	syms *ast.SymbolTable
	sess *core.Session
	snap *db.Snapshot
	q    readQueries
}

func replayRead(seed int64) (replayer, error) {
	syms := ast.NewSymbolTable()
	sess, err := openProgram(core.NewService(core.SessionOptions{PlanCache: core.NewPlanCache(0)}), reachProgram, syms)
	if err != nil {
		return nil, err
	}
	snap, err := loadFacts(readGraph(seed).facts(), syms)
	if err != nil {
		return nil, err
	}
	return &readReplay{syms: syms, sess: sess, snap: snap, q: newReadQueries(seed)}, nil
}

func (r *readReplay) op(c, i int, t opTrace) (uint64, error) {
	rows, err := replayQuery(t, r.sess, r.snap, r.syms, fmt.Sprintf("Reach(%d, y)", r.q.next(c)))
	if err != nil {
		return 0, err
	}
	return rowsDigest(rows), nil
}

// openProgram parses src under syms and opens its session, as program
// registration does.
func openProgram(svc *core.Service, src string, syms *ast.SymbolTable) (*core.Session, error) {
	res, err := parser.ParseWithSymbols(src, syms)
	if err != nil {
		return nil, fmt.Errorf("parsing program: %w", err)
	}
	return svc.Open(res.Program)
}

// loadFacts parses a fact source under syms into a frozen snapshot, as the
// first mutation batch of a tenant does.
func loadFacts(src string, syms *ast.SymbolTable) (*db.Snapshot, error) {
	res, err := parser.ParseWithSymbols(src, syms)
	if err != nil {
		return nil, fmt.Errorf("parsing facts: %w", err)
	}
	w := db.New()
	for _, g := range res.Facts {
		w.Add(g)
	}
	return w.Freeze(), nil
}

// replayQuery answers one query the way the /eval handler does, one span
// per layer call: parse the atom, evaluate, filter the output, render.
func replayQuery(t opTrace, sess *core.Session, snap *db.Snapshot, syms *ast.SymbolTable, query string) ([][]string, error) {
	var (
		atom ast.Atom
		out  *core.Database
		err  error
	)
	t.around("parser.query", func() { atom, err = parser.ParseAtomWithSymbols(query, syms) })
	if err != nil {
		return nil, fmt.Errorf("parsing query: %w", err)
	}
	t.around("eval.fixpoint", func() { out, _, err = sess.EvalWith(context.Background(), snap.DB(), core.EvalRequestOptions{}) })
	if err != nil {
		return nil, fmt.Errorf("evaluating: %w", err)
	}
	var tuples [][]ast.Const
	t.around("db.match", func() {
		b := ast.Binding{}
		db.MatchAtom(out, atom, db.AllRounds, b, func() bool {
			tuples = append(tuples, append([]ast.Const(nil), atom.MustGround(b).Args...))
			return true
		})
	})
	var rows [][]string
	t.around("ast.render", func() {
		rows = make([][]string, len(tuples))
		for i, tu := range tuples {
			rows[i] = make([]string, len(tu))
			for j, c := range tu {
				rows[i][j] = ast.FormatConst(c, syms)
			}
		}
		sortRows(rows)
		_, err = json.Marshal(map[string]any{"rows": rows})
	})
	return rows, err
}

// sortRows orders rows the way the server's wire format does: element-wise
// lexicographically, shorter first on a tie.
func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
