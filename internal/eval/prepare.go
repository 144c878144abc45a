package eval

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
)

// The prepared layer caches everything about a program that does not depend
// on the input database: validation, the dependence graph, the stratum/SCC
// schedule, and — per join order actually encountered — the compiled rules
// and the index column sets their probes need. Every decision procedure in
// the paper (the frozen-body containment test of Section VI, the Fig. 1/2
// minimization loops, the Section X–XI pipeline) evaluates the same program
// against many small databases; preparing once amortizes the per-call
// analysis they all used to repeat.

// errGoal is the internal sentinel a fixpoint returns when Options.Goal was
// derived; Prepared.run converts it into a successful early return.
var errGoal = errors.New("eval: goal reached")

// Prepared is a program analyzed and compiled for repeated evaluation:
// Prepare once, then Eval against many input databases. The schedule
// (strata / strongly connected components) is computed at Prepare time; the
// compiled form of each rule is cached per join order, so steady-state
// rounds and repeat evaluations skip recompilation entirely. A Prepared is
// safe for concurrent use.
type Prepared struct {
	prog  *ast.Program
	opts  Options
	units []*unit
	// unitIdxs[i] lists the program rule indexes of units[i].rules, in the
	// same order. It belongs to this Prepared, not to the unit: Derive
	// shares unchanged units between plans whose programs index the same
	// rules differently, so each owner keeps its own mapping. It is what
	// lets the provenance path translate a unit-local firing into a program
	// rule index.
	unitIdxs [][]int

	// One-step application of the whole program in a fixed order, built on
	// first use by NonRecursive / IsClosed. A one-step pass never feeds
	// derivations back, so it is pipeline-shaped for every rule — recursive
	// or not — and nonrecStreams carries the streaming plans alongside the
	// materializing fallback.
	nonrecOnce    sync.Once
	nonrec        []*compiledRule
	nonrecNeeds   []indexNeed
	nonrecStreams []*streamPlan
}

// unit is one fixpoint of the evaluation schedule: a stratum (under
// negation) or one group of mutually recursive rules (SCC schedule), with
// the dynamic predicates its delta machinery tracks.
type unit struct {
	rules   []ast.Rule
	dynamic map[string]bool
	// streamable marks a unit none of whose rules read the unit's own head
	// predicates (positively or under negation): its fixpoint is one full
	// application, so the planner may run it on the streaming operator
	// pipeline instead of the materializing kernel.
	streamable bool
	// partCol is the planner-chosen partition column per predicate of the
	// unit's rules (see partitionCols), consulted by the sharded executor.
	partCol map[string]int

	mu     sync.Mutex
	static *roundSetup            // NoReorder: the order never changes
	cache  map[string]*roundSetup // keyed by the packed join-order perms
	keyBuf []byte
}

// roundSetup is everything a round needs for one join order of the unit's
// rules: the reordered rules, their compiled forms, and the index column
// sets the round's probes will touch. Setups are immutable once built and
// shared across rounds, evaluations, and goroutines.
type roundSetup struct {
	ordered  []ast.Rule
	compiled []*compiledRule
	// swapped holds the delta-first compilations the sharded executor
	// substitutes for delta-at-position-1 variants (see buildSwapped); nil
	// when the options run unsharded or a rule is ineligible.
	swapped []*compiledRule
	needs   []indexNeed
	// streams holds the pipeline plans (same order as compiled) when the
	// unit is streamable and the options permit streaming; nil otherwise.
	streams []*streamPlan
}

// Prepare validates p and builds its evaluation schedule under opts. The
// program is cloned, so later mutation of p (the minimization loops rewrite
// rules in place) cannot corrupt the prepared state. Options.Context is a
// per-call concern and is stripped here: a Prepared outlives any request and
// is shared through the plan cache, so a plan must never retain a context.
func Prepare(p *ast.Program, opts Options) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = normalize(opts)
	opts.Context = nil
	pr := &Prepared{prog: p.Clone(), opts: opts}
	groups, err := scheduleGroups(pr.prog, opts)
	if err != nil {
		return nil, err
	}
	for _, group := range groups {
		pr.units = append(pr.units, newUnit(pr.prog, group))
		pr.unitIdxs = append(pr.unitIdxs, group)
	}
	return pr, nil
}

// scheduleGroups computes the evaluation schedule of p under opts as groups
// of rule indexes, one group per fixpoint unit, in evaluation order: SCC
// groups (producer-first) for pure programs, strata for programs with
// negation, a single group under NoSCCOrder. Empty groups are not emitted.
func scheduleGroups(p *ast.Program, opts Options) ([][]int, error) {
	if !p.HasNegation() {
		if opts.NoSCCOrder {
			all := make([]int, len(p.Rules))
			for i := range all {
				all[i] = i
			}
			return [][]int{all}, nil
		}
		return sccRuleGroups(p), nil
	}
	// Stratified negation: one unit per stratum; by stratification a negated
	// predicate is complete before any rule reading it runs.
	strata, err := depgraph.Strata(p)
	if err != nil {
		return nil, err
	}
	var groups [][]int
	for _, stratum := range strata {
		inStratum := make(map[string]bool, len(stratum))
		for _, pred := range stratum {
			inStratum[pred] = true
		}
		var group []int
		for ri, r := range p.Rules {
			if inStratum[r.Head.Pred] {
				group = append(group, ri)
			}
		}
		if len(group) > 0 {
			groups = append(groups, group)
		}
	}
	return groups, nil
}

// newUnit builds the fixpoint unit for one schedule group of p. The unit's
// dynamic set is the head predicates of its own rules: for an SCC group
// that is the component's mutually recursive predicates, for a stratum the
// stratum's intentional predicates, and for the NoSCCOrder whole-program
// group exactly p.IDBPredicates().
func newUnit(p *ast.Program, group []int) *unit {
	rules := make([]ast.Rule, len(group))
	dyn := make(map[string]bool)
	for j, ri := range group {
		rules[j] = p.Rules[ri]
		dyn[p.Rules[ri].Head.Pred] = true
	}
	u := &unit{rules: rules, dynamic: dyn, partCol: partitionCols(rules)}
	u.streamable = true
	for _, r := range rules {
		for _, a := range r.Body {
			if dyn[a.Pred] {
				u.streamable = false
			}
		}
		for _, a := range r.NegBody {
			if dyn[a.Pred] {
				u.streamable = false
			}
		}
	}
	return u
}

// idxKey packs a rule-index list into a map key.
func idxKey(idxs []int) string {
	b := make([]byte, 0, 4*len(idxs))
	for _, i := range idxs {
		b = append(b, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
	}
	return string(b)
}

// Derive builds the plan for the program obtained from the prepared one by
// a single-rule delta — deleting rule ruleIdx (newRule nil) or replacing it
// (newRule non-nil) — without re-running the full preparation. A one-rule
// change only perturbs the schedule units whose rule sets actually change:
// the schedule is recomputed (cheap graph work), but every group that maps
// onto an identical group of the old plan shares the old unit pointer, and
// with it the unit's compiled rules and join-order caches. Units are
// internally synchronized, so sharing them between plans is safe; the
// rules inside are treated as immutable by the whole package.
func (pr *Prepared) Derive(ruleIdx int, newRule *ast.Rule) (*Prepared, error) {
	if ruleIdx < 0 || ruleIdx >= len(pr.prog.Rules) {
		return nil, fmt.Errorf("eval: Derive: rule index %d out of range (%d rules)", ruleIdx, len(pr.prog.Rules))
	}
	np := ast.NewProgram()
	np.Rules = make([]ast.Rule, 0, len(pr.prog.Rules))
	for i, r := range pr.prog.Rules {
		switch {
		case i == ruleIdx && newRule == nil:
			continue
		case i == ruleIdx:
			np.Rules = append(np.Rules, newRule.Clone())
		default:
			np.Rules = append(np.Rules, r)
		}
	}
	if err := np.Validate(); err != nil {
		return nil, err
	}
	groups, err := scheduleGroups(np, pr.opts)
	if err != nil {
		return nil, err
	}
	// Old units by their rule-index lists; a new group is the same unit iff
	// its rules map to exactly that list (same rules, same order).
	oldUnits := make(map[string]*unit, len(pr.units))
	for ui, idxs := range pr.unitIdxs {
		oldUnits[idxKey(idxs)] = pr.units[ui]
	}
	toOld := func(newIdx int) int {
		if newRule == nil && newIdx >= ruleIdx {
			return newIdx + 1
		}
		return newIdx
	}
	out := &Prepared{prog: np, opts: pr.opts}
	mapped := make([]int, 0, len(np.Rules))
	for _, group := range groups {
		reuse := true
		mapped = mapped[:0]
		for _, ni := range group {
			oi := toOld(ni)
			mapped = append(mapped, oi)
			if newRule != nil && oi == ruleIdx {
				// The replaced rule lives in this group; its unit holds the
				// old rule's compiled form and must be rebuilt.
				reuse = false
			}
		}
		var u *unit
		if reuse {
			u = oldUnits[idxKey(mapped)]
		}
		if u == nil {
			u = newUnit(np, group)
		}
		out.units = append(out.units, u)
		out.unitIdxs = append(out.unitIdxs, group)
	}
	return out, nil
}

// Program returns the prepared program (the clone taken at Prepare time).
// Callers must not mutate it.
func (pr *Prepared) Program() *ast.Program { return pr.prog }

// Eval computes P(input) exactly like the package-level Eval, reusing the
// prepared schedule and compile caches. If Options.Goal is set, evaluation
// stops as soon as the goal atom is derived (it is then present in the
// returned database).
func (pr *Prepared) Eval(input *db.Database) (*db.Database, Stats, error) {
	out, _, stats, err := pr.run(nil, input, pr.opts.Goal, pr.opts.MaxDerived, nil)
	return out, stats, err
}

// EvalCtx is Eval under a per-call context: cancellation or deadline expiry
// aborts the evaluation with an error wrapping ErrCanceled, checked at round
// boundaries and on the emit path. A nil ctx is Eval. The context belongs to
// the call, not the plan, so one Prepared concurrently serves requests with
// independent deadlines.
func (pr *Prepared) EvalCtx(ctx context.Context, input *db.Database) (*db.Database, Stats, error) {
	out, _, stats, err := pr.run(ctx, input, pr.opts.Goal, pr.opts.MaxDerived, nil)
	return out, stats, err
}

// EvalGoal evaluates toward a per-call goal atom under a per-call
// derived-fact budget (0 = the prepared Options' budget semantics do not
// apply; unlimited). It reports whether the goal was reached — the moment
// it is derived, evaluation halts, which is what makes the frozen-body
// containment test of Section VI cheap: the test only asks whether the
// frozen head is derivable, never for the full fixpoint. A nil goal
// saturates fully and reports false.
func (pr *Prepared) EvalGoal(input *db.Database, goal *ast.GroundAtom, maxDerived int) (*db.Database, bool, Stats, error) {
	return pr.run(nil, input, goal, maxDerived, nil)
}

// EvalGoalCtx is EvalGoal under a per-call context (see EvalCtx).
func (pr *Prepared) EvalGoalCtx(ctx context.Context, input *db.Database, goal *ast.GroundAtom, maxDerived int) (*db.Database, bool, Stats, error) {
	return pr.run(ctx, input, goal, maxDerived, nil)
}

// EvalGoalProv is EvalGoal additionally recording rule provenance: every
// program rule that derived at least one new fact before evaluation halted
// is added to prov (indexes into Program().Rules). The recorded set is a
// superset of the rules used by any derivation present in the output — in
// particular, of some witnessing derivation of the goal when it is reached
// — which is exactly the conservative guarantee the containment layer needs
// to keep a memoized verdict across a rule deletion: if a deleted rule is
// not in prov, no derivation the evaluation produced could have used it.
func (pr *Prepared) EvalGoalProv(input *db.Database, goal *ast.GroundAtom, maxDerived int, prov *RuleSet) (*db.Database, bool, Stats, error) {
	return pr.run(nil, input, goal, maxDerived, prov)
}

// EvalGoalProvCtx is EvalGoalProv under a per-call context (see EvalCtx).
func (pr *Prepared) EvalGoalProvCtx(ctx context.Context, input *db.Database, goal *ast.GroundAtom, maxDerived int, prov *RuleSet) (*db.Database, bool, Stats, error) {
	return pr.run(ctx, input, goal, maxDerived, prov)
}

func (pr *Prepared) run(ctx context.Context, input *db.Database, goal *ast.GroundAtom, maxDerived int, prov *RuleSet) (*db.Database, bool, Stats, error) {
	var stats Stats
	if err := CtxErr(ctx); err != nil {
		return nil, false, stats, err
	}
	d := input.Clone()
	if goal != nil && d.Has(*goal) {
		return d, true, stats, nil
	}
	opts := pr.opts
	opts.MaxDerived = maxDerived
	baseLen := input.Len()
	for ui, u := range pr.units {
		var ruleIdxs []int
		if prov != nil {
			ruleIdxs = pr.unitIdxs[ui]
		}
		if err := u.fixpoint(ctx, d, opts, &stats, baseLen, goal, prov, ruleIdxs); err != nil {
			if errors.Is(err, errGoal) {
				return d, true, stats, nil
			}
			return nil, false, stats, err
		}
	}
	return d, false, stats, nil
}

// Query evaluates the prepared program on input and returns the tuples
// matching the query atom, like the package-level Query.
func (pr *Prepared) Query(input *db.Database, query ast.Atom) ([][]ast.Const, error) {
	out, _, err := pr.Eval(input)
	if err != nil {
		return nil, err
	}
	var tuples [][]ast.Const
	b := ast.Binding{}
	db.MatchAtom(out, query, db.AllRounds, b, func() bool {
		g := query.MustGround(b)
		t := make([]ast.Const, len(g.Args))
		copy(t, g.Args)
		tuples = append(tuples, t)
		return true
	})
	return tuples, nil
}

// ensureNonRec compiles the one-step application of the whole program in
// the static join order (no live cardinalities exist for a one-shot pass).
func (pr *Prepared) ensureNonRec() {
	pr.nonrecOnce.Do(func() {
		ordered := make([]ast.Rule, len(pr.prog.Rules))
		pr.nonrec = make([]*compiledRule, len(pr.prog.Rules))
		for i, r := range pr.prog.Rules {
			or := r.Clone()
			or.Body = db.OrderForJoin(or.Body, nil)
			ordered[i] = or
			pr.nonrec[i] = compileRule(or)
		}
		pr.nonrecNeeds = indexNeeds(ordered)
		if !pr.opts.NoStream {
			pr.nonrecStreams = make([]*streamPlan, len(pr.nonrec))
			for i, cr := range pr.nonrec {
				pr.nonrecStreams[i] = compileStream(cr)
			}
		}
	})
}

// NonRecursive computes Pⁿ(d) (Section IX) through the prepared compiled
// rules; it is equivalent to the package-level NonRecursive. d gains the
// hash indexes the compiled joins probe but no facts.
func (pr *Prepared) NonRecursive(d *db.Database) *db.Database {
	if pr.opts.NoCompile {
		return NonRecursive(pr.prog, d)
	}
	pr.ensureNonRec()
	for _, n := range pr.nonrecNeeds {
		d.EnsureIndex(n.pred, n.cols)
	}
	out := db.New()
	var st Stats
	if pr.nonrecStreams != nil {
		// A one-step pass never feeds derivations back, so every rule is
		// pipeline-shaped here regardless of recursion in the program.
		ss := getStreamState(pr.nonrecStreams)
		defer putStreamState(ss)
		sink := &nonrecSink{out: out}
		top := d.Round()
		for _, sp := range pr.nonrecStreams {
			sp.run(d, top, ss, &st, sink)
		}
		return out
	}
	emit := func(pred string, args []ast.Const) bool { return out.AddTuple(pred, args) }
	for _, cr := range pr.nonrec {
		cr.fire(d, fullWindows(len(cr.body), d.Round()), &st, emit, nil)
	}
	return out
}

// IsClosed reports whether d is a model of the prepared program
// (Section IV): no rule application derives an atom outside d. It is
// IsModel with the compiled one-step pass, aborting at the first
// counterexample.
func (pr *Prepared) IsClosed(d *db.Database) bool {
	if pr.opts.NoCompile {
		return IsModel(pr.prog, d)
	}
	pr.ensureNonRec()
	for _, n := range pr.nonrecNeeds {
		d.EnsureIndex(n.pred, n.cols)
	}
	var st Stats
	if pr.nonrecStreams != nil {
		ss := getStreamState(pr.nonrecStreams)
		defer putStreamState(ss)
		sink := &closedSink{d: d}
		top := d.Round()
		for _, sp := range pr.nonrecStreams {
			sp.run(d, top, ss, &st, sink)
			if sink.open {
				return false
			}
		}
		return true
	}
	closed := true
	emit := func(pred string, args []ast.Const) bool {
		if d.HasTuple(pred, args) {
			return false
		}
		closed = false
		return true // count as "new" so the stop hook fires immediately
	}
	stop := func() bool { return !closed }
	for _, cr := range pr.nonrec {
		cr.fire(d, fullWindows(len(cr.body), d.Round()), &st, emit, stop)
		if !closed {
			return false
		}
	}
	return true
}

// setupFor returns the evaluation setup for the unit's rules under the
// current relation sizes, reusing a cached compilation when some earlier
// round already saw the same greedy join order. The cache is the heart of
// the prepared layer: steady-state fixpoint rounds and repeat evaluations
// hit it, so rule cloning and compilation happen once per distinct order
// rather than once per round.
func (u *unit) setupFor(d *db.Database, opts Options) *roundSetup {
	u.mu.Lock()
	defer u.mu.Unlock()
	if opts.NoReorder {
		if u.static == nil {
			u.static = u.build(nil, opts)
		}
		return u.static
	}
	sizeOf := func(pred string) int {
		if rel := d.Relation(pred); rel != nil {
			return rel.Len()
		}
		return 0
	}
	perms := make([][]int, len(u.rules))
	key := u.keyBuf[:0]
	cacheable := true
	for i, r := range u.rules {
		perms[i] = db.OrderPermSized(r.Body, nil, sizeOf)
		if len(perms[i]) > 255 {
			cacheable = false // a body this large cannot pack into bytes
		}
		key = append(key, byte(len(perms[i])))
		for _, p := range perms[i] {
			key = append(key, byte(p))
		}
	}
	u.keyBuf = key
	if !cacheable {
		return u.build(perms, opts)
	}
	if rs, ok := u.cache[string(key)]; ok {
		return rs
	}
	rs := u.build(perms, opts)
	if u.cache == nil {
		u.cache = make(map[string]*roundSetup)
	}
	u.cache[string(key)] = rs
	return rs
}

// build clones the unit's rules into the given join orders (nil perms =
// source order) and compiles them. The result is immutable.
func (u *unit) build(perms [][]int, opts Options) *roundSetup {
	rs := &roundSetup{
		ordered:  make([]ast.Rule, len(u.rules)),
		compiled: make([]*compiledRule, len(u.rules)),
	}
	for i, r := range u.rules {
		or := r.Clone()
		if perms != nil {
			body := make([]ast.Atom, len(or.Body))
			for j, pi := range perms[i] {
				body[j] = or.Body[pi]
			}
			or.Body = body
		}
		rs.ordered[i] = or
		if !opts.NoCompile {
			rs.compiled[i] = compileRule(or)
		}
	}
	rs.needs = indexNeeds(rs.ordered)
	if opts.Shards > 1 && !opts.NoCompile {
		// Sharded rounds may run delta-at-position-1 variants delta-first;
		// compile the swapped forms now and register the index columns their
		// displaced probes need so the round-boundary freeze covers them.
		var extra []indexNeed
		rs.swapped, extra = buildSwapped(rs.ordered, func(pred string) bool { return u.dynamic[pred] })
		rs.needs = append(rs.needs, extra...)
	}
	if u.streamable && !opts.NoCompile && !opts.NoStream {
		rs.streams = make([]*streamPlan, len(rs.compiled))
		for i, cr := range rs.compiled {
			rs.streams[i] = compileStream(cr)
		}
	}
	return rs
}

// fixpoint runs the chosen strategy over the unit's rules, mutating d in
// place. A non-nil goal halts evaluation via errGoal as soon as the goal
// atom is derived. A non-nil prov collects the program rule indexes (via
// ruleIdxs, the owner Prepared's unit-local → program mapping) of every
// rule that derived at least one new fact.
func (u *unit) fixpoint(ctx context.Context, d *db.Database, opts Options, stats *Stats, baseLen int, goal *ast.GroundAtom, prov *RuleSet, ruleIdxs []int) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	prevTop := d.Round() // facts present before this stratum: rounds ≤ prevTop
	round := d.BeginRound()
	stats.Rounds++
	// setupFor picks the setup for the current relation sizes; the greedy
	// join-order heuristic sees live cardinalities at every round boundary,
	// but recompilation only happens for orders not seen before. The loop
	// after it builds or extends every index the round's joins will probe.
	// Tuples inserted mid-round are stamped with the current round, which
	// every window excludes, so the frozen indexes stay sufficient for the
	// whole round and in-round probes never lock or mutate.
	rs := u.setupFor(d, opts)
	for _, n := range rs.needs {
		d.EnsureIndex(n.pred, n.cols)
	}

	// First iteration: full application of every rule. For a streamable unit
	// under semi-naive this one application IS the fixpoint (no rule reads
	// the unit's own heads, so later delta rounds have no variants), and the
	// planner runs it on the operator pipeline; recursive units and the
	// naive strategy — whose Section III semantics re-fire whole rounds —
	// keep the materializing kernel. Either way the emission sequence is
	// identical, so the output database is byte-for-byte the same. The
	// streamed path returns before the materializing kernel's round
	// machinery below is even set up — a streamed stratum allocates nothing
	// beyond the facts it derives.
	if rs.streams != nil && opts.Strategy == SemiNaive {
		stats.StrataStreamed++
		if err := u.streamRound(ctx, d, rs, prevTop, opts, stats, baseLen, goal, prov, ruleIdxs); err != nil {
			return err
		}
		return checkBudget(d, baseLen, opts)
	}
	stats.StrataMaterialized++

	// The round executor (rounds.go) owns the sequential / parallel / sharded
	// firing disciplines and their shared budget, goal and cancellation
	// semantics; the fixpoint only decides which variants each round runs.
	env := &roundEnv{
		ctx: ctx, d: d, opts: opts, stats: stats,
		baseLen: baseLen, goal: goal, prov: prov, ruleIdxs: ruleIdxs,
	}
	rr := roundRules{ordered: rs.ordered, compiled: rs.compiled, swapped: rs.swapped, partCol: u.partCol}

	// First iteration: full application of every rule over everything
	// present before the stratum.
	var firstRound []variant
	for idx := range rs.ordered {
		firstRound = append(firstRound, variant{idx, -1, fullWindows(len(rs.ordered[idx].Body), prevTop)})
	}
	if err := env.runRound(rr, firstRound); err != nil {
		return err
	}
	if err := checkBudget(d, baseLen, opts); err != nil {
		return err
	}

	for {
		if !anyAddedIn(d, round) {
			return nil
		}
		if err := CtxErr(ctx); err != nil {
			return err
		}
		prev := round
		round = d.BeginRound()
		stats.Rounds++
		// Re-pick the join order against this round's cardinalities and
		// re-freeze the indexes the new setup probes.
		rs = u.setupFor(d, opts)
		for _, n := range rs.needs {
			d.EnsureIndex(n.pred, n.cols)
		}
		rr = roundRules{ordered: rs.ordered, compiled: rs.compiled, swapped: rs.swapped, partCol: u.partCol}
		var variants []variant
		for idx := range rs.ordered {
			r := rs.ordered[idx]
			if opts.Strategy == Naive {
				variants = append(variants, variant{idx, -1, fullWindows(len(r.Body), prev)})
				continue
			}
			// Semi-naive: one variant per dynamic body position i, with
			// position i restricted to the last round's delta, earlier
			// positions to strictly older facts, and later positions to
			// anything up to the last round. Every new combination has a
			// unique least delta position, so nothing is derived twice.
			for i, a := range r.Body {
				if !u.dynamic[a.Pred] {
					continue
				}
				variants = append(variants, variant{idx, i, deltaWindows(len(r.Body), i, prev)})
			}
		}
		if err := env.runRound(rr, variants); err != nil {
			return err
		}
		if err := checkBudget(d, baseLen, opts); err != nil {
			return err
		}
	}
}

// streamRound runs one full application of a streamable unit's rules on the
// operator pipeline. It reproduces the sequential materializing round's emit
// path verbatim — same insertion order, same goal test, same derived-fact
// budget, same provenance credit — so swapping it in changes cost, never
// observables. One streamState serves every plan in the pass; nothing else
// is allocated per rule.
func (u *unit) streamRound(ctx context.Context, d *db.Database, rs *roundSetup, prevTop int32, opts Options, stats *Stats, baseLen int, goal *ast.GroundAtom, prov *RuleSet, ruleIdxs []int) error {
	st := getStreamState(rs.streams)
	defer putStreamState(st)
	sk := &st.fix
	*sk = fixpointSink{d: d, goal: goal, prov: prov, ctx: ctx, remaining: -1}
	if opts.MaxDerived > 0 {
		sk.remaining = opts.MaxDerived - (d.Len() - baseLen)
	}
	for idx, sp := range rs.streams {
		if prov != nil {
			sk.ruleIdx = ruleIdxs[idx]
		}
		sp.run(d, prevTop, st, stats, sk)
		if sk.goalHit {
			stats.EarlyStopCuts++
			return errGoal
		}
		if sk.canceled {
			stats.EarlyStopCuts++
			return CtxErr(ctx)
		}
		if sk.stop {
			stats.EarlyStopCuts++
			return fmt.Errorf("%w: derived %d facts (budget %d)", ErrBudget, d.Len()-baseLen, opts.MaxDerived)
		}
	}
	return nil
}

func constsEqual(a, b []ast.Const) bool {
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
