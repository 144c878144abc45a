package eval

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/db"
)

// Fact-level incremental view maintenance: a Maintained view keeps
// out = P(input) up to date under mixed assert/retract batches without
// re-evaluating from scratch.
//
// The planner's per-unit streamable/recursive split picks the algorithm:
//
//   - Counting, for streamable units (no rule reads the unit's own heads —
//     the non-recursive strata): every tuple of a unit head predicate
//     carries a derivation count in the relation's count column
//     (db.Relation counts): the number of rule firings deriving it plus one
//     external support when the tuple is an input fact. A batch adjusts
//     counts by enumerating exactly the lost firings (valid before, invalid
//     after) and the gained firings (valid after, invalid before) — each
//     firing counted once via the least-changed-position discipline — and a
//     tuple leaves the view precisely when its count reaches zero.
//
//   - DRed (delete-rederive), for the recursive units, where counts would
//     have to track unbounded derivation multiplicities: over-delete every
//     fact with a derivation through a retracted support (transitively, to
//     fixpoint, joined against the old frozen output), restore the
//     over-deleted facts that keep alternative support (input membership or
//     a one-step derivation from the surviving view), then run the ordinary
//     semi-naive insertion loop for the asserted side.
//
// Both phases process schedule units in producer-first order and hand each
// unit the exact net diff of everything below it, which is what makes
// stratified negation work: an assertion below can retract facts above
// (lost firings / over-deletions driven by the negated atom's delta) and a
// retraction below can assert facts above (gained firings driven by the
// negated atom's removal).
//
// Determinism: retraction-side work is sequential, and every batch of
// staged facts is committed in canonical (predicate, arguments) order; the
// insertion side reuses the shared round executor (rounds.go) through
// maintInsertLoop, so the Workers × Shards byte-identity contract of the
// evaluator carries over to maintained views — the maintained database is
// byte-identical across worker and shard counts.
//
// A Maintained view is not safe for concurrent use; callers serialize
// Apply (core.Session wraps views behind its own lock). A failed Apply
// (context cancellation) leaves the view on its previous snapshot.

// Delta is one batch of fact-level input mutations, set-semantics:
// retracting an absent fact and asserting a present one are no-ops, and a
// fact both retracted and asserted in one batch nets to "present". Only
// input (extensional) facts can be retracted; retracting a derived-only
// fact is a no-op — the derivations keep it in the view.
type Delta struct {
	Assert  []ast.GroundAtom
	Retract []ast.GroundAtom
}

// Empty reports whether the delta carries no mutations.
func (d Delta) Empty() bool { return len(d.Assert) == 0 && len(d.Retract) == 0 }

// Diff is the exact net output change of one Apply: facts that entered and
// left the materialized view, each in canonical (predicate, arguments)
// order.
type Diff struct {
	Added   []ast.GroundAtom
	Removed []ast.GroundAtom
}

// Empty reports whether the diff is empty.
func (d Diff) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// MaintainOptions configures a maintained view.
type MaintainOptions struct {
	// ForceDRed runs delete-rederive on every unit, including the
	// non-recursive ones counting would normally handle — the ablation knob
	// the maintenance oracle grid uses to exercise both algorithms on the
	// same programs.
	ForceDRed bool
}

// Maintained is a materialized output kept incrementally consistent with
// its input database under Apply batches.
type Maintained struct {
	pr    *Prepared
	opts  Options
	mo    MaintainOptions
	in    *db.Snapshot // current input EDB
	snap  *db.Snapshot // current maintained output P(input)
	units []maintUnit
	owner map[string]int // head predicate → unit index
}

type maintUnit struct {
	rules    []ast.Rule
	heads    map[string]bool
	counting bool
}

// Materialize evaluates the prepared program on input and wraps the result
// as a maintained view. The input is not modified; the view keeps private
// copy-on-write snapshots of both input and output. Plans prepared with a
// goal or a derived-fact budget are rejected — a maintained view is by
// definition the full materialization — as is NoSCCOrder combined with
// negation (maintenance needs the stratified schedule's producer-first
// order).
func (pr *Prepared) Materialize(ctx context.Context, input *db.Database, mo MaintainOptions) (*Maintained, Stats, error) {
	if pr.opts.Goal != nil || pr.opts.MaxDerived > 0 {
		return nil, Stats{}, fmt.Errorf("eval: Materialize requires a full-materialization plan (no goal, no derived-fact budget)")
	}
	if pr.opts.NoSCCOrder && pr.prog.HasNegation() {
		return nil, Stats{}, fmt.Errorf("eval: Materialize with negation requires the stratified schedule (NoSCCOrder is set)")
	}
	out, _, stats, err := pr.run(ctx, input, nil, 0, nil)
	if err != nil {
		return nil, stats, err
	}
	m := &Maintained{
		pr:    pr,
		opts:  pr.opts,
		mo:    mo,
		owner: make(map[string]int),
	}
	in := input.Clone()
	for ui, u := range pr.units {
		mu := maintUnit{
			rules:    u.rules,
			heads:    make(map[string]bool),
			counting: u.streamable && !mo.ForceDRed,
		}
		for _, r := range u.rules {
			mu.heads[r.Head.Pred] = true
			m.owner[r.Head.Pred] = ui
		}
		m.units = append(m.units, mu)
	}
	// Seed the derivation counts of every counting unit: firings over the
	// final output (the unit's body predicates are complete there) plus one
	// external support per input fact of a unit head predicate.
	for _, u := range m.units {
		if !u.counting {
			continue
		}
		for _, r := range u.rules {
			cs := make([]matchPos, len(r.Body))
			for i, a := range r.Body {
				cs[i] = matchPos{atom: a, src: out}
			}
			b := ast.Binding{}
			matchChain(cs, b, func() bool {
				for _, na := range r.NegBody {
					if out.Has(na.MustGround(b)) {
						return true
					}
				}
				stats.Firings++
				out.BumpCount(r.Head.Pred, r.Head.MustGround(b).Args, 1)
				return true
			})
		}
		for pred := range u.heads {
			rel := in.Relation(pred)
			if rel == nil {
				continue
			}
			for i := 0; i < rel.Len(); i++ {
				out.BumpCount(pred, rel.Tuple(i), 1)
			}
		}
	}
	m.in = in.Freeze()
	m.snap = out.Freeze()
	return m, stats, nil
}

// Output returns the current materialized output as a frozen database.
// Callers must not mutate it; it stays valid (as that version) across later
// Applies.
func (m *Maintained) Output() *db.Database { return m.snap.DB() }

// Input returns the view's current input EDB as a frozen database.
func (m *Maintained) Input() *db.Database { return m.in.DB() }

// Program returns the maintained program.
func (m *Maintained) Program() *ast.Program { return m.pr.Program() }

// Apply absorbs one mutation batch: the input gains delta.Assert and loses
// delta.Retract, the materialized output is maintained in place, and the
// exact net output diff is returned in canonical order. On error (context
// cancellation) the view is left on its previous input/output snapshots.
func (m *Maintained) Apply(ctx context.Context, delta Delta) (Diff, Stats, error) {
	var stats Stats
	stats.Applies++
	if err := CtxErr(ctx); err != nil {
		return Diff{}, stats, err
	}
	old := m.snap.DB()
	if err := m.validateArities(delta); err != nil {
		return Diff{}, stats, err
	}

	// Normalize to net set mutations: batch-dedup, assert wins over retract
	// of the same fact, retracts restricted to present input facts, asserts
	// to absent ones.
	inPrev := m.in.DB()
	aSet, rSet := db.New(), db.New()
	for _, g := range delta.Assert {
		aSet.Add(g)
	}
	for _, g := range delta.Retract {
		if !aSet.Has(g) {
			rSet.Add(g)
		}
	}
	var asserts, retracts []ast.GroundAtom
	for _, g := range delta.Assert {
		if !inPrev.Has(g) && aSet.Remove(g) {
			asserts = append(asserts, g)
		}
	}
	for _, g := range delta.Retract {
		if inPrev.Has(g) && rSet.Remove(g) {
			retracts = append(retracts, g)
		}
	}
	if len(asserts) == 0 && len(retracts) == 0 {
		return Diff{}, stats, nil
	}
	sortFacts(asserts)
	sortFacts(retracts)

	input := m.in.Thaw()
	for _, g := range retracts {
		input.Remove(g)
	}
	input.Compact()
	for _, g := range asserts {
		input.Add(g)
	}

	cur := m.snap.Thaw()
	deltaMin := cur.BeginRound()
	addedDB, remDB := db.New(), db.New()

	// Extensional-only predicates (no unit owns them) pass through: their
	// output facts are exactly their input facts.
	for _, g := range retracts {
		if _, owned := m.owner[g.Pred]; !owned && cur.Remove(g) {
			remDB.Add(g)
		}
	}
	cur.Compact()
	for _, g := range asserts {
		if _, owned := m.owner[g.Pred]; !owned && cur.Add(g) {
			addedDB.Add(g)
		}
	}

	for i := range m.units {
		if err := CtxErr(ctx); err != nil {
			return Diff{}, stats, err
		}
		u := &m.units[i]
		if u.counting {
			m.countingUnit(u, old, cur, input, asserts, retracts, addedDB, remDB, &stats)
		} else if err := m.dredUnit(ctx, u, old, cur, input, asserts, retracts, addedDB, remDB, deltaMin, &stats); err != nil {
			return Diff{}, stats, err
		}
	}

	// The dirty-set freeze only compacts-and-shares relations the batch
	// actually wrote; count both sides so maintenance stats prove how much
	// re-freeze work the write-epoch check skipped for untouched relations.
	stats.RelationsFrozen += input.DirtyRelations() + cur.DirtyRelations()
	stats.FreezeSkipped += (input.RelationCount() - input.DirtyRelations()) +
		(cur.RelationCount() - cur.DirtyRelations())
	m.in = input.Freeze()
	m.snap = cur.Freeze()
	return Diff{Added: sortedFacts(addedDB), Removed: sortedFacts(remDB)}, stats, nil
}

// validateArities rejects batch facts whose arity contradicts an existing
// relation — AddTuple would panic deep inside a half-applied batch.
func (m *Maintained) validateArities(delta Delta) error {
	check := func(g ast.GroundAtom) error {
		for _, d := range []*db.Database{m.in.DB(), m.snap.DB()} {
			if rel := d.Relation(g.Pred); rel != nil && rel.Arity() != len(g.Args) {
				return fmt.Errorf("eval: Apply: %s has arity %d, relation %s has arity %d", g, len(g.Args), g.Pred, rel.Arity())
			}
		}
		return nil
	}
	for _, g := range delta.Assert {
		if err := check(g); err != nil {
			return err
		}
	}
	for _, g := range delta.Retract {
		if err := check(g); err != nil {
			return err
		}
	}
	return nil
}

// countingUnit maintains one streamable unit by derivation counting. old is
// the pre-Apply output (frozen), cur the in-progress successor with every
// lower unit already final; addedDB/remDB hold the exact net diff of the
// strata below (plus the extensional passthrough) and gain this unit's net
// diff before returning.
func (m *Maintained) countingUnit(u *maintUnit, old, cur, input *db.Database, asserts, retracts []ast.GroundAtom, addedDB, remDB *db.Database, stats *Stats) {
	type countAdj struct {
		g ast.GroundAtom
		d int32
	}
	adj := make(map[string]*countAdj)
	bump := func(g ast.GroundAtom, d int32) {
		k := g.Key()
		e := adj[k]
		if e == nil {
			e = &countAdj{g: g}
			adj[k] = e
		}
		e.d += d
	}
	// External support: input facts of this unit's head predicates count as
	// one derivation.
	for _, g := range asserts {
		if u.heads[g.Pred] {
			bump(g, 1)
		}
	}
	for _, g := range retracts {
		if u.heads[g.Pred] {
			bump(g, -1)
		}
	}
	// Lost firings: valid against the old output, invalidated by a removed
	// positive support or an added negated fact.
	changedFirings(u.rules, old, remDB, addedDB, stats, func(g ast.GroundAtom) { bump(g, -1) })
	// Gained firings: valid against the new state of the lower strata,
	// enabled by an added positive support or a removed negated fact.
	changedFirings(u.rules, cur, addedDB, remDB, stats, func(g ast.GroundAtom) { bump(g, 1) })

	list := make([]ast.GroundAtom, 0, len(adj))
	byKey := make(map[string]*countAdj, len(adj))
	for k, e := range adj {
		if e.d == 0 {
			continue
		}
		list = append(list, e.g)
		byKey[k] = e
	}
	sortFacts(list)
	cur.BeginRound()
	var removals []ast.GroundAtom
	for _, g := range list {
		e := byKey[g.Key()]
		stats.CountAdjusted++
		if cur.Has(g) {
			if n, _ := cur.BumpCount(g.Pred, g.Args, e.d); n <= 0 {
				removals = append(removals, g)
			}
			continue
		}
		if e.d > 0 {
			cur.Add(g)
			cur.BumpCount(g.Pred, g.Args, e.d)
			addedDB.Add(g)
		}
	}
	for _, g := range removals {
		cur.Remove(g)
		remDB.Add(g)
	}
	cur.Compact()
}

// dredUnit maintains one recursive unit by delete-rederive.
func (m *Maintained) dredUnit(ctx context.Context, u *maintUnit, old, cur, input *db.Database, asserts, retracts []ast.GroundAtom, addedDB, remDB *db.Database, deltaMin int32, stats *Stats) error {
	// Over-delete: transitively collect every head fact with a derivation
	// (against the old output) through a removed support — a retracted or
	// lower-removed positive atom, an added negated atom, or a fact this
	// loop already over-deleted.
	deletedSet := db.New()
	var deleted []ast.GroundAtom
	fr := db.New()
	fr.AddAll(remDB)
	for _, g := range retracts {
		if u.heads[g.Pred] && old.Has(g) {
			deletedSet.Add(g)
			deleted = append(deleted, g)
			fr.Add(g)
		}
	}
	first := true
	for {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		var negD *db.Database
		if first {
			negD = addedDB // lower-stratum additions can invalidate negated atoms once
		}
		next := db.New()
		changedFirings(u.rules, old, fr, negD, stats, func(g ast.GroundAtom) {
			if old.Has(g) && !deletedSet.Has(g) {
				deletedSet.Add(g)
				deleted = append(deleted, g)
				next.Add(g)
			}
		})
		first = false
		if next.Len() == 0 {
			break
		}
		fr = next
	}

	// Remove the over-deletion, then restore candidates with surviving
	// support: input membership or a one-step derivation from what remains.
	// Facts only derivable through other restored facts come back in the
	// insertion loop below — restored facts carry fresh round stamps, so the
	// delta windows reach them.
	stats.Overdeleted += len(deleted)
	sortFacts(deleted)
	for _, g := range deleted {
		cur.Remove(g)
	}
	cur.Compact()
	cur.BeginRound()
	for _, g := range deleted {
		if input.Has(g) || oneStepDerivable(u, cur, g) {
			cur.Add(g)
			stats.Rederived++
		}
	}

	// Insertion side: stage input asserts of this unit's heads and the
	// firings a removed negated fact enabled, then close semi-naively over
	// everything stamped in this Apply — lower-unit additions, restored
	// facts and the staged batch alike — through the shared round executor.
	staged := db.New()
	var stagedList []ast.GroundAtom
	for _, g := range asserts {
		if u.heads[g.Pred] && !cur.Has(g) && staged.Add(g) {
			stagedList = append(stagedList, g)
		}
	}
	changedFirings(u.rules, cur, nil, remDB, stats, func(g ast.GroundAtom) {
		if !cur.Has(g) && staged.Add(g) {
			stagedList = append(stagedList, g)
		}
	})
	sortFacts(stagedList)
	for _, g := range stagedList {
		cur.Add(g)
	}
	if err := maintInsertLoop(ctx, cur, u.rules, deltaMin, m.opts, stats); err != nil {
		return err
	}

	// Net unit diff: everything stamped in this Apply that the old output
	// lacked entered the view; over-deleted facts that never came back left
	// it.
	for pred := range u.heads {
		rel := cur.Relation(pred)
		if rel == nil {
			continue
		}
		for i := rel.LenAt(deltaMin - 1); i < rel.Len(); i++ {
			t := rel.Tuple(i)
			if !old.HasTuple(pred, t) {
				addedDB.AddTuple(pred, t)
			}
		}
	}
	for _, g := range deleted {
		if !cur.Has(g) {
			remDB.Add(g)
		}
	}
	return nil
}

// oneStepDerivable reports whether some unit rule derives g in one step
// from d.
func oneStepDerivable(u *maintUnit, d *db.Database, g ast.GroundAtom) bool {
	for _, r := range u.rules {
		if r.Head.Pred != g.Pred {
			continue
		}
		b := ast.Binding{}
		if _, ok := r.Head.MatchGround(g.Pred, g.Args, b); !ok {
			continue
		}
		cs := make([]matchPos, len(r.Body))
		for i, a := range r.Body {
			cs[i] = matchPos{atom: a, src: d}
		}
		found := false
		matchChain(cs, b, func() bool {
			for _, na := range r.NegBody {
				if d.Has(na.MustGround(b)) {
					return true
				}
			}
			found = true
			return false
		})
		if found {
			return true
		}
	}
	return false
}

// matchPos is one position of a maintenance join: atom matched against src,
// skipping matches present in excl (nil = no exclusion).
type matchPos struct {
	atom ast.Atom
	src  *db.Database
	excl *db.Database
}

// matchChain is the nested-loops join over matchPos constraints; f runs
// with the shared binding fully extended and may return false to stop.
func matchChain(cs []matchPos, b ast.Binding, f func() bool) bool {
	if len(cs) == 0 {
		return f()
	}
	c := cs[0]
	return db.MatchAtom(c.src, c.atom, db.AllRounds, b, func() bool {
		if c.excl != nil && c.excl.Has(c.atom.MustGround(b)) {
			return true
		}
		return matchChain(cs[1:], b, f)
	})
}

// changedFirings enumerates, exactly once each, the rule firings valid
// against base that involve the change sets: firings with at least one
// positive body atom in posDelta (counted at their least such position,
// earlier positions matching base minus posDelta), plus — for firings with
// no positive atom in posDelta — those whose least negated atom in negDelta
// flips the negation. Every emitted firing satisfies the rule's negations
// against base. Either delta set may be nil.
func changedFirings(rules []ast.Rule, base, posDelta, negDelta *db.Database, stats *Stats, emit func(ast.GroundAtom)) {
	for _, r := range rules {
		if posDelta != nil && posDelta.Len() > 0 {
			for i := range r.Body {
				cs := make([]matchPos, 0, len(r.Body))
				cs = append(cs, matchPos{atom: r.Body[i], src: posDelta})
				for j, a := range r.Body {
					if j == i {
						continue
					}
					mp := matchPos{atom: a, src: base}
					if j < i {
						mp.excl = posDelta
					}
					cs = append(cs, mp)
				}
				b := ast.Binding{}
				matchChain(cs, b, func() bool {
					for _, na := range r.NegBody {
						if base.Has(na.MustGround(b)) {
							return true
						}
					}
					stats.Firings++
					emit(r.Head.MustGround(b))
					return true
				})
			}
		}
		if negDelta != nil && negDelta.Len() > 0 && len(r.NegBody) > 0 {
			for k := range r.NegBody {
				cs := make([]matchPos, 0, len(r.Body)+1)
				cs = append(cs, matchPos{atom: r.NegBody[k], src: negDelta})
				for _, a := range r.Body {
					cs = append(cs, matchPos{atom: a, src: base, excl: posDelta})
				}
				b := ast.Binding{}
				matchChain(cs, b, func() bool {
					for j, na := range r.NegBody {
						g := na.MustGround(b)
						if base.Has(g) {
							return true
						}
						if j < k && negDelta.Has(g) {
							return true // counted at the earlier flipped position
						}
					}
					stats.Firings++
					emit(r.Head.MustGround(b))
					return true
				})
			}
		}
	}
}

// maintInsertLoop is the insertion side of maintenance: semi-naive
// propagation through the shared round executor, with a first round whose
// delta window spans every round of the current Apply ([deltaMin, prev]) —
// lower-unit additions, DRed-restored facts and staged asserts all carry
// stamps in that span — and ordinary single-round delta windows after that.
// The view's database is closed under the rules before the Apply, so every
// new derivation uses at least one delta fact and delta variants alone are
// complete; any body position can hold the delta (asserts may be
// extensional). opts are the view's prepared (normalized) options, so
// Workers and Shards keep the evaluator's determinism disciplines.
func maintInsertLoop(ctx context.Context, d *db.Database, rules []ast.Rule, deltaMin int32, opts Options, stats *Stats) error {
	opts.Context = ctx
	opts.Goal = nil
	opts.MaxDerived = 0
	ordered := make([]ast.Rule, len(rules))
	compiled := make([]*compiledRule, len(rules))
	for i, r := range rules {
		ordered[i] = r.Clone()
		if !opts.NoReorder {
			ordered[i].Body = db.OrderForJoin(r.Body, nil)
		}
		if !opts.NoCompile {
			compiled[i] = compileRule(ordered[i])
		}
	}
	needs := indexNeeds(ordered)
	rr := roundRules{ordered: ordered, compiled: compiled, partCol: partitionCols(rules)}
	if opts.Shards > 1 {
		var extra []indexNeed
		rr.swapped, extra = buildSwapped(ordered, func(string) bool { return true })
		needs = append(needs, extra...)
	}
	env := &roundEnv{ctx: opts.Context, d: d, opts: opts, stats: stats, baseLen: d.Len()}
	first := true
	for {
		prev := d.Round()
		round := d.BeginRound()
		stats.Rounds++
		for _, n := range needs {
			d.EnsureIndex(n.pred, n.cols)
		}
		var variants []variant
		for idx := range ordered {
			for i := range ordered[idx].Body {
				ws := deltaWindows(len(ordered[idx].Body), i, prev)
				if first {
					ws = wideDeltaWindows(len(ordered[idx].Body), i, deltaMin, prev)
				}
				if deltaEmptyAt(d, ordered[idx].Body[i].Pred, ws[i]) {
					continue
				}
				variants = append(variants, variant{idx, i, ws})
			}
		}
		if err := env.runRound(rr, variants); err != nil {
			return err
		}
		first = false
		if !anyAddedIn(d, round) {
			return nil
		}
	}
}

// deltaEmptyAt reports whether the window admits no tuple of pred. A variant
// whose delta position is empty cannot fire, so the insertion loop skips it
// before join ever scans the variant's earlier (full-window) positions —
// maintenance deltas are tiny, and without this check every round would pay
// a full relation scan per trailing-delta variant. Round stamps are
// non-decreasing with tuple id, so the window's population is an id-range
// length, O(1) via LenAt.
func deltaEmptyAt(d *db.Database, pred string, w db.RoundWindow) bool {
	rel := d.Relation(pred)
	if rel == nil {
		return true
	}
	lo := 0
	if w.Min > 0 {
		lo = rel.LenAt(w.Min - 1)
	}
	return rel.LenAt(w.Max) <= lo
}

// wideDeltaWindows is deltaWindows with the delta spanning [deltaMin, prev]
// instead of the single previous round: position i takes the whole span,
// earlier positions strictly pre-span facts, later positions anything up to
// prev — the standard least-delta-position discipline over a multi-round
// delta.
func wideDeltaWindows(n, i int, deltaMin, prev int32) []db.RoundWindow {
	ws := make([]db.RoundWindow, n)
	for j := range ws {
		switch {
		case j < i:
			ws[j] = db.RoundWindow{Min: 0, Max: deltaMin - 1}
		case j == i:
			ws[j] = db.RoundWindow{Min: deltaMin, Max: prev}
		default:
			ws[j] = db.RoundWindow{Min: 0, Max: prev}
		}
	}
	return ws
}

func factLess(a, b ast.GroundAtom) bool {
	if a.Pred != b.Pred {
		return a.Pred < b.Pred
	}
	for i := range a.Args {
		if i >= len(b.Args) {
			return false
		}
		if a.Args[i] != b.Args[i] {
			return a.Args[i] < b.Args[i]
		}
	}
	return len(a.Args) < len(b.Args)
}

func sortFacts(fs []ast.GroundAtom) {
	sort.Slice(fs, func(i, j int) bool { return factLess(fs[i], fs[j]) })
}

func sortedFacts(d *db.Database) []ast.GroundAtom {
	fs := d.Facts()
	sortFacts(fs)
	return fs
}
