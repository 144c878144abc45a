package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/parser"
)

// The churn workload: an authorization program (recursive Member over a
// group tree, then HasRole, then CanRead) over churnUsers users, with one
// changefeed subscription holding a maintained view. One closed-loop client
// repeats: send a /facts batch of churnMoves membership moves, wait for
// that batch's diff frame, then read CanRead(<user>, d) churnReads times
// against the new database version. Every write runs counting/DRed
// maintenance, fact parsing and a copy-on-write snapshot; every read
// evaluates a fresh version beside the writes.
//
// Cost does not depend on the seed: the group tree is a fixed complete
// binary tree, all groups at one depth grant the same role, roles allow
// disjoint sets of docsPerRole documents, and users start spread evenly
// over the groups. A user's output size then depends only on the depth of
// their group; the seed picks the role of each depth, the documents of each
// role, which user starts where, and the moves.
const (
	churnUsers  = 2000
	churnGroups = 64 // group g's parent is (g-1)/2
	churnRoles  = 8  // one per depth of the tree, with one to spare
	churnDocs   = churnRoles * docsPerRole
	docsPerRole = 4
	churnMoves  = 20
	churnReads  = 2

	groupBase, roleBase, docBase = 10000, 20000, 30000
)

const authzProgram = `Member(u, g) :- Direct(u, g).
Member(u, g) :- Member(u, h), Subgroup(h, g).
HasRole(u, r) :- Member(u, g), Grant(g, r).
CanRead(u, d) :- HasRole(u, r), Allows(r, d).
`

// authz is the churn oracle: the benchmark's own membership model. It
// derives every user's output facts from group-tree ancestors, then grants,
// then allows, without the engine.
type authz struct {
	rng    *rand.Rand
	grant  [churnGroups]int
	allows [churnRoles][]int
	direct []int // each user's one direct group
}

func newAuthz(seed int64) *authz {
	m := &authz{rng: rand.New(rand.NewSource(seed)), direct: make([]int, churnUsers)}
	roleOfDepth := m.rng.Perm(churnRoles)
	for g := range m.grant {
		depth := 0
		for a := g; a > 0; a = (a - 1) / 2 {
			depth++
		}
		m.grant[g] = roleOfDepth[depth]
	}
	docs := m.rng.Perm(churnDocs)
	for r := range m.allows {
		m.allows[r] = docs[r*docsPerRole : (r+1)*docsPerRole]
	}
	for i, u := range m.rng.Perm(churnUsers) {
		m.direct[u] = i % churnGroups
	}
	return m
}

// staticFacts are the input facts no batch changes.
func (m *authz) staticFacts() []string {
	var out []string
	for g := 1; g < churnGroups; g++ {
		out = append(out, fmt.Sprintf("Subgroup(%d, %d)", groupBase+g, groupBase+(g-1)/2))
	}
	for g, r := range m.grant {
		out = append(out, fmt.Sprintf("Grant(%d, %d)", groupBase+g, roleBase+r))
	}
	for r, docs := range m.allows {
		for _, d := range docs {
			out = append(out, fmt.Sprintf("Allows(%d, %d)", roleBase+r, docBase+d))
		}
	}
	return out
}

// docs returns the documents a member of group g can read, sorted.
func (m *authz) docs(g int) []int {
	roles := map[int]bool{}
	for a := g; ; a = (a - 1) / 2 {
		roles[m.grant[a]] = true
		if a == 0 {
			break
		}
	}
	set := map[int]bool{}
	for r := range roles {
		for _, d := range m.allows[r] {
			set[d] = true
		}
	}
	out := make([]int, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// userFacts are user u's output facts while u is directly in group g.
func (m *authz) userFacts(u, g int) []string {
	out := []string{fmt.Sprintf("Direct(%d, %d)", u, groupBase+g)}
	roles := map[int]bool{}
	for a := g; ; a = (a - 1) / 2 {
		out = append(out, fmt.Sprintf("Member(%d, %d)", u, groupBase+a))
		roles[m.grant[a]] = true
		if a == 0 {
			break
		}
	}
	for r := range roles {
		out = append(out, fmt.Sprintf("HasRole(%d, %d)", u, roleBase+r))
	}
	for _, d := range m.docs(g) {
		out = append(out, fmt.Sprintf("CanRead(%d, %d)", u, docBase+d))
	}
	return out
}

// output is the full materialized output: every input and derived fact.
func (m *authz) output() []string {
	out := m.staticFacts()
	for u, g := range m.direct {
		out = append(out, m.userFacts(u, g)...)
	}
	return out
}

// input is the initial database: the static facts and every user's
// direct group. Every later version has as many facts.
func (m *authz) input() []string {
	facts := m.staticFacts()
	for u, g := range m.direct {
		facts = append(facts, fmt.Sprintf("Direct(%d, %d)", u, groupBase+g))
	}
	return facts
}

// factSource renders facts as a parseable fact source.
func factSource(facts []string) string {
	if len(facts) == 0 {
		return ""
	}
	return strings.Join(facts, ".\n") + ".\n"
}

// batch is one churn iteration: a mutation batch, its exact expected diff,
// and the users read afterwards with their expected CanRead rows.
type batch struct {
	assert, retract []string
	added, removed  []string
	readers         []int
	rows            [][][]string
}

// next draws the next batch, moving churnMoves distinct users to another
// group, and advances the model past it.
func (m *authz) next() batch {
	var b batch
	moved := map[int]bool{}
	for len(moved) < churnMoves {
		u := m.rng.Intn(churnUsers)
		if moved[u] {
			continue
		}
		moved[u] = true
		from := m.direct[u]
		to := m.rng.Intn(churnGroups - 1)
		if to >= from {
			to++
		}
		b.retract = append(b.retract, fmt.Sprintf("Direct(%d, %d)", u, groupBase+from))
		b.assert = append(b.assert, fmt.Sprintf("Direct(%d, %d)", u, groupBase+to))
		before, after := setOf(m.userFacts(u, from)), setOf(m.userFacts(u, to))
		for f := range after {
			if !before[f] {
				b.added = append(b.added, f)
			}
		}
		for f := range before {
			if !after[f] {
				b.removed = append(b.removed, f)
			}
		}
		m.direct[u] = to
	}
	for k := 0; k < churnReads; k++ {
		u := m.rng.Intn(churnUsers)
		var rows [][]string
		for _, d := range m.docs(m.direct[u]) {
			rows = append(rows, []string{fmt.Sprint(u), fmt.Sprint(docBase + d)})
		}
		b.readers = append(b.readers, u)
		b.rows = append(b.rows, rows)
	}
	return b
}

func setOf(xs []string) map[string]bool {
	s := make(map[string]bool, len(xs))
	for _, x := range xs {
		s[x] = true
	}
	return s
}

// checkFrame compares a diff frame with the batch's expected diff.
func (b batch) checkFrame(fr frame) error {
	if err := sameSet("frame added", fr.Added, b.added); err != nil {
		return err
	}
	return sameSet("frame removed", fr.Removed, b.removed)
}

// checkRows compares the k-th read's rows with the model's.
func (b batch) checkRows(k int, rows [][]string) error {
	got := make([]string, len(rows))
	for i, r := range rows {
		got[i] = strings.Join(r, " ")
	}
	want := make([]string, len(b.rows[k]))
	for i, r := range b.rows[k] {
		want[i] = strings.Join(r, " ")
	}
	return sameSet(fmt.Sprintf("CanRead(%d, d)", b.readers[k]), got, want)
}

// churnDigest fingerprints one iteration's answers: the frame's diff in the
// server's order and every read's rows.
func churnDigest(added, removed []string, reads [][][]string) uint64 {
	b, _ := json.Marshal([]any{added, removed, reads}) // strings always encode
	return digest(b)
}

// churnRun is the HTTP leg of the churn workload.
type churnRun struct {
	h    *harness
	m    *authz
	feed *feed
	snap frame // the subscription's first frame
	seq  uint64
	size int // input facts in every database version
}

func setupChurn(h *harness, seed int64) (run, error) {
	r := &churnRun{h: h, m: newAuthz(seed)}
	var reg, loaded map[string]any
	if err := h.post(-1, "register", "/v1/programs/authz", map[string]any{"source": authzProgram}, &reg); err != nil {
		return nil, err
	}
	facts := r.m.input()
	r.size = len(facts)
	if err := h.post(-1, "facts", "/v1/programs/authz/facts", map[string]any{"tenant": "t", "assert": factSource(facts)}, &loaded); err != nil {
		return nil, err
	}
	f, err := h.subscribe("/v1/programs/authz/subscriptions", map[string]any{"tenant": "t"})
	if err != nil {
		return nil, err
	}
	r.feed = f
	snap, ok := <-f.frames
	if !ok || !snap.Snapshot {
		f.close()
		return nil, fmt.Errorf("changefeed: no snapshot frame")
	}
	r.snap, r.seq = snap, snap.Seq
	return r, nil
}

// verify checks the subscription's snapshot frame against the model.
func (r *churnRun) verify() error {
	return sameSet("snapshot frame", r.snap.Facts, r.m.output())
}

func (r *churnRun) op(c, i int) (uint64, error) {
	b := r.m.next()
	op := opID(c, i)
	var ack struct {
		DBVersion int `json:"db_version"`
		Size      int `json:"size"`
	}
	start := time.Now()
	err := r.h.post(op, "facts", "/v1/programs/authz/facts", map[string]any{
		"tenant": "t", "assert": factSource(b.assert), "retract": factSource(b.retract)}, &ack)
	if err != nil {
		return 0, err
	}
	if ack.Size != r.size {
		return 0, fmt.Errorf("wrong answer for /facts: database size %d, want %d", ack.Size, r.size)
	}
	fr, ok := <-r.feed.frames
	if !ok || fr.Error != "" {
		return 0, r.h.fail("changefeed dropped: %q", fr.Error)
	}
	r.h.sample("feed_lag", fr.at.Sub(start))
	r.seq++
	if fr.Seq != r.seq || fr.DBVersion != ack.DBVersion {
		return 0, fmt.Errorf("wrong frame: seq %d at db_version %d, want seq %d at %d", fr.Seq, fr.DBVersion, r.seq, ack.DBVersion)
	}
	if err := b.checkFrame(fr); err != nil {
		return 0, err
	}
	reads := make([][][]string, len(b.readers))
	for k, u := range b.readers {
		var ans rowsAnswer
		err := r.h.post(op, "eval", "/v1/programs/authz/eval", map[string]any{
			"tenant": "t", "query": fmt.Sprintf("CanRead(%d, d)", u), "db_version": ack.DBVersion}, &ans)
		if err != nil {
			return 0, err
		}
		r.h.countEval(ans.Stats)
		if ans.DBVersion != ack.DBVersion {
			return 0, fmt.Errorf("wrong answer: read at db_version %d, want %d", ans.DBVersion, ack.DBVersion)
		}
		if err := b.checkRows(k, ans.Rows); err != nil {
			return 0, err
		}
		reads[k] = ans.Rows
	}
	return churnDigest(fr.Added, fr.Removed, reads), nil
}

func (r *churnRun) counters() map[string]float64 { return nil }

func (r *churnRun) close() {
	if r.feed != nil {
		r.feed.close()
	}
}

// churnReplay is the replay leg: the same batches and reads through the
// layers' public functions, mirroring the /facts handler's mutation path
// and the changefeed's view maintenance.
type churnReplay struct {
	syms *ast.SymbolTable
	sess *core.Session
	snap *db.Snapshot
	view *core.View
	m    *authz
	// versions keeps every snapshot, as the server's tenant version chain
	// does, so the replay's heap, and with it the garbage collector's
	// share of each call, grows as the server's does.
	versions []*db.Snapshot
}

func replayChurn(seed int64) (replayer, error) {
	m := newAuthz(seed)
	syms := ast.NewSymbolTable()
	sess, err := openProgram(core.NewService(core.SessionOptions{PlanCache: core.NewPlanCache(0)}), authzProgram, syms)
	if err != nil {
		return nil, err
	}
	snap, err := loadFacts(factSource(m.input()), syms)
	if err != nil {
		return nil, err
	}
	view, _, err := sess.Materialize(context.Background(), snap.DB(), core.MaintainOptions{})
	if err != nil {
		return nil, fmt.Errorf("materializing: %w", err)
	}
	return &churnReplay{syms: syms, sess: sess, snap: snap, view: view, m: m, versions: []*db.Snapshot{snap}}, nil
}

func (r *churnReplay) op(c, i int, t opTrace) (uint64, error) {
	b := r.m.next()
	var asserts, retracts []ast.GroundAtom
	var err error
	t.around("parser.facts", func() {
		var a, d *parser.Result
		if a, err = parser.ParseWithSymbols(factSource(b.assert), r.syms); err != nil {
			return
		}
		if d, err = parser.ParseWithSymbols(factSource(b.retract), r.syms); err != nil {
			return
		}
		asserts, retracts = a.Facts, d.Facts
	})
	if err != nil {
		return 0, fmt.Errorf("parsing batch: %w", err)
	}
	t.around("db.snapshot", func() {
		w := r.snap.Thaw()
		inAssert := make(map[string]bool, len(asserts))
		for _, g := range asserts {
			inAssert[g.Key()] = true
		}
		removed := false
		for _, g := range retracts {
			if !inAssert[g.Key()] && w.Remove(g) {
				removed = true
			}
		}
		if removed {
			w.Compact()
		}
		for _, g := range asserts {
			w.Add(g)
		}
		r.snap = w.Freeze()
		r.versions = append(r.versions, r.snap)
	})
	var diff core.DatabaseDiff
	t.around("eval.maintain", func() {
		diff, _, err = r.view.Apply(context.Background(), core.DatabaseDelta{Assert: asserts, Retract: retracts})
	})
	if err != nil {
		return 0, fmt.Errorf("maintaining view: %w", err)
	}
	var added, removed []string
	t.around("ast.render", func() {
		added, removed = formatAtoms(diff.Added, r.syms), formatAtoms(diff.Removed, r.syms)
		_, err = json.Marshal(map[string]any{"added": added, "removed": removed})
	})
	if err != nil {
		return 0, err
	}
	reads := make([][][]string, len(b.readers))
	for k, u := range b.readers {
		if reads[k], err = replayQuery(t, r.sess, r.snap, r.syms, fmt.Sprintf("CanRead(%d, d)", u)); err != nil {
			return 0, err
		}
	}
	return churnDigest(added, removed, reads), nil
}

func formatAtoms(gs []ast.GroundAtom, syms *ast.SymbolTable) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Format(syms)
	}
	return out
}
