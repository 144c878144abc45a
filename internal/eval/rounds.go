package eval

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/db"
)

// The round executor evaluates one fixpoint round's variants. It is shared
// by the unit fixpoint (prepare.go) and the maintenance insertion loop
// (maintain.go), so both honor the same Options — Workers, Shards, the
// derived-fact budget, goal-directed early stop, cancellation — through one
// discipline. Two strategies, committing byte-identical databases:
//
//   - sequential (Shards ≤ 1): fire variants in order, inserting as they
//     emit;
//   - sharded (Shards > 1): split every variant into per-shard tasks over a
//     hash-partitioned ownership view of its outer relation, run by up to
//     Workers goroutines. Each task enumerates only the owned slice of the
//     outer round window — walking the window's contiguous id-range
//     directly, delta-first when the delta sits on executed position 1 —
//     and buffers derivations tagged with merge keys. The commit
//     concatenates a variant's shard buffers and sorts by (plan-outer id,
//     delta id, buffer order), which reconstructs exactly the emission order
//     the sequential plan-ordered join produces, so the committed database
//     (and any goal early-stop prefix of it) is byte-identical to Shards = 1
//     for every shard and worker count.

// variant is one delta/full application of a rule in a round: idx selects
// the round's ordered/compiled rule, windows are the executed-order round
// windows, and delta is the executed body position holding the round's
// delta (-1 for a full application: first rounds and the naive strategy).
type variant struct {
	idx     int
	delta   int
	windows []db.RoundWindow
}

// roundRules bundles what a round's variants fire: the reordered rules,
// their compiled forms, the delta-first (swapped) compilations the sharded
// executor substitutes when profitable, and the partition columns the
// planner chose for the plan's predicates.
type roundRules struct {
	ordered  []ast.Rule
	compiled []*compiledRule
	swapped  []*compiledRule
	partCol  map[string]int
}

// fire evaluates one variant with derivations routed to emit; a non-nil
// stop aborts the variant's enumeration when it reports true.
func (rr roundRules) fire(d *db.Database, idx int, windows []db.RoundWindow, st *Stats, emit func(string, []ast.Const) bool, stop func() bool) error {
	if rr.compiled[idx] != nil {
		rr.compiled[idx].fire(d, windows, st, emit, stop)
		return nil
	}
	r := rr.ordered[idx]
	cs := make([]db.Constraint, len(r.Body))
	for j, b := range r.Body {
		cs[j] = db.Constraint{Atom: b, Window: windows[j]}
	}
	return fireConstraints(d, r, cs, st, emit, stop)
}

// roundEnv is the per-evaluation state the round executor runs under. One
// env serves every round of a fixpoint (or delta loop); the rules may be
// re-planned per round, so they travel separately as roundRules.
type roundEnv struct {
	ctx      context.Context
	d        *db.Database
	opts     Options
	stats    *Stats
	baseLen  int
	goal     *ast.GroundAtom
	prov     *RuleSet
	ruleIdxs []int
	pool     shardPool
}

// shardPool is the sharded executor's per-task scratch, owned by the env so
// consecutive rounds (and re-fires) reuse buffers, dedup tables and copy
// arenas instead of reallocating them — on deep fixpoints (hundreds of
// rounds) the per-round zeroing otherwise rivals the join work itself.
// Slices are indexed by task and only ever touched by that task's goroutine
// while a round is in flight.
type shardPool struct {
	bufs   [][]shardPending
	arenas [][]ast.Const
	sets   []taskSet
	stats  []Stats
	aux    mergeAux
}

// taskReset readies the pool for a round (or re-fire) of n tasks.
func (sp *shardPool) taskReset(n int) {
	if len(sp.bufs) < n {
		sp.bufs = make([][]shardPending, n)
		sp.arenas = make([][]ast.Const, n)
		sp.sets = make([]taskSet, n)
		sp.stats = make([]Stats, n)
	}
	for i := 0; i < n; i++ {
		sp.bufs[i] = sp.bufs[i][:0]
		sp.arenas[i] = sp.arenas[i][:0]
		sp.sets[i].reset()
		sp.stats[i] = Stats{}
	}
}

func (env *roundEnv) budgetErr() error {
	return fmt.Errorf("%w: derived %d facts (budget %d)", ErrBudget, env.d.Len()-env.baseLen, env.opts.MaxDerived)
}

// runRound evaluates a round's variants under the env's options. The
// derived-fact budget and the goal test are enforced inside the emit path,
// so a round that would blow far past Options.MaxDerived (a chase embedding
// on a diverging instance, say) is cut off as soon as the budget is
// exhausted, and a goal-directed evaluation halts the moment the goal is
// derived rather than at the fixpoint.
func (env *roundEnv) runRound(rr roundRules, variants []variant) error {
	if len(variants) == 0 {
		return nil
	}
	if env.opts.Shards > 1 {
		return env.runSharded(rr, variants)
	}
	return env.runSequential(rr, variants)
}

// runSequential fires variants in order, inserting as they emit.
func (env *roundEnv) runSequential(rr roundRules, variants []variant) error {
	d, opts, ctx := env.d, env.opts, env.ctx
	stop := false
	goalHit := false
	canceled := false
	ctxTick := 0
	remaining := -1
	if opts.MaxDerived > 0 {
		remaining = opts.MaxDerived - (d.Len() - env.baseLen)
	}
	goal := env.goal
	emit := func(pred string, args []ast.Const) bool {
		if !d.AddTuple(pred, args) {
			return false
		}
		if goal != nil && pred == goal.Pred && constsEqual(args, goal.Args) {
			goalHit = true
			stop = true
		}
		if remaining >= 0 {
			remaining--
			if remaining < 0 {
				stop = true
			}
		}
		return true
	}
	if ctx != nil {
		// Emit-path cancellation cadence: a long round still stops promptly
		// after its deadline, like the budget tripwire. The check is layered
		// on as a wrapper so a context-free Eval pays nothing for it.
		inner := emit
		emit = func(pred string, args []ast.Const) bool {
			if ctxTick++; ctxTick%ctxCheckEvery == 0 && ctx.Err() != nil {
				canceled = true
				stop = true
			}
			return inner(pred, args)
		}
	}
	var stopFn func() bool
	if opts.MaxDerived > 0 || goal != nil || ctx != nil {
		stopFn = func() bool { return stop }
	}
	for _, v := range variants {
		em := emit
		if env.prov != nil {
			// Wrap per variant so a successful emission credits the firing
			// rule's program index.
			ridx := env.ruleIdxs[v.idx]
			em = func(pred string, args []ast.Const) bool {
				if emit(pred, args) {
					env.prov.Add(ridx)
					return true
				}
				return false
			}
		}
		if err := rr.fire(d, v.idx, v.windows, env.stats, em, stopFn); err != nil {
			return err
		}
		if goalHit {
			return errGoal
		}
		if canceled {
			return CtxErr(ctx)
		}
		if stop {
			return env.budgetErr()
		}
	}
	return nil
}

// shardPending is one buffered derivation of a sharded task: the merge keys
// captured by the shardScan, a concatenation sequence number that makes the
// commit sort total, the deriving shard (for delta-exchange accounting),
// and the fact itself.
type shardPending struct {
	k1, k2, seq int32
	shard       uint8
	pred        string
	args        []ast.Const
}

// taskSet is a task-local open-addressed dedup set over the task's pending
// buffer, sharing the store's tuple hash. A duplicate emission of a buffered
// fact is folded into its entry by LOWERING the entry's merge keys to the
// minimum (k1, k2) seen — a swapped (delta-first) task enumerates in
// (k2, k1) order, so its first emission of a fact is not necessarily the
// occurrence the sequential plan order commits first; keeping the minimum
// key is what keeps the merge's commit position, and with it byte identity,
// independent of which duplicate a task happened to hit first.
//
// Entries are epoch-stamped so the executor's task pools reset the set in
// O(1) between rounds instead of re-zeroing (or reallocating) the tables.
type taskSet struct {
	mask  uint64
	hash  []uint64
	slot  []int32 // 1-based ordinal into the task buffer
	epoch []int32
	cur   int32
	n     int
}

// reset empties the set, keeping its tables for the next round.
func (ts *taskSet) reset() { ts.cur++; ts.n = 0 }

// add dedups (k1, k2, args) against buf: it returns false after folding the
// keys of a duplicate, or true when the fact is new to the task — the caller
// must then append it to the buffer (whose new length add already accounted
// for).
func (ts *taskSet) add(buf []shardPending, k1, k2 int32, args []ast.Const) bool {
	if 4*(ts.n+1) > 3*len(ts.slot) {
		ts.grow(buf)
	}
	h := db.HashTuple(args)
	for i := h & ts.mask; ; i = (i + 1) & ts.mask {
		if ts.epoch[i] != ts.cur || ts.slot[i] == 0 {
			ts.hash[i] = h
			ts.slot[i] = int32(len(buf)) + 1
			ts.epoch[i] = ts.cur
			ts.n++
			return true
		}
		if s := ts.slot[i]; ts.hash[i] == h && constsEqual(buf[s-1].args, args) {
			p := &buf[s-1]
			if k1 < p.k1 || (k1 == p.k1 && k2 < p.k2) {
				p.k1, p.k2 = k1, k2
			}
			return false
		}
	}
}

func (ts *taskSet) grow(buf []shardPending) {
	size := 2 * len(ts.slot)
	if size < 64 {
		size = 64
	}
	hash := make([]uint64, size)
	slot := make([]int32, size)
	epoch := make([]int32, size)
	mask := uint64(size - 1)
	for i := range ts.slot {
		if ts.epoch[i] != ts.cur || ts.slot[i] == 0 {
			continue
		}
		h := ts.hash[i]
		for j := h & mask; ; j = (j + 1) & mask {
			if slot[j] == 0 {
				hash[j], slot[j], epoch[j] = h, ts.slot[i], ts.cur
				break
			}
		}
	}
	ts.mask, ts.hash, ts.slot, ts.epoch = mask, hash, slot, epoch
}

// mergeAux holds the commit-order scratch reused across a sharded
// evaluation's merges.
type mergeAux struct {
	counts []int32
	out    []shardPending
}

// commitOrder arranges one variant's task buffers (bufs, in shard order)
// into the sequential commit order (k1 asc, then k2, then concatenation
// order). Ownership makes the merge keys hash-disjoint across a variant's
// shards, so the order is recovered with a stable counting scatter over k1
// — linear in the emissions, against the comparison sort's B·log B, and
// reading the shard buffers in place, so the merge never materializes a
// concatenation — refined per k1 bucket by (k2, seq) only for delta-first
// executions (tagInner), where the inner probe order interleaves k2 across
// a bucket; plan-ordered tasks emit k2 = 0 and the scatter's stability
// already preserves their order. Rounds whose k1 range is far wider than
// their population (sparse late-round deltas probing a large outer
// relation) fall back to the comparison sort rather than paying a
// near-empty histogram.
func commitOrder(bufs [][]shardPending, tagInner bool, aux *mergeAux) []shardPending {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if cap(aux.out) < total {
		aux.out = make([]shardPending, total)
	}
	out := aux.out[:total]
	if total == 0 {
		return out
	}
	var minK1, maxK1 int32
	first := true
	for _, b := range bufs {
		for i := range b {
			k := b[i].k1
			if first {
				minK1, maxK1, first = k, k, false
			} else if k < minK1 {
				minK1 = k
			} else if k > maxK1 {
				maxK1 = k
			}
		}
	}
	width := int(maxK1-minK1) + 1
	if width > 4*total+1024 {
		out = out[:0]
		var seq int32
		for _, b := range bufs {
			for i := range b {
				b[i].seq = seq
				seq++
			}
			out = append(out, b...)
		}
		slices.SortFunc(out, func(a, b shardPending) int {
			if c := cmp.Compare(a.k1, b.k1); c != 0 {
				return c
			}
			if c := cmp.Compare(a.k2, b.k2); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		return out
	}
	if cap(aux.counts) < width {
		aux.counts = make([]int32, width)
	}
	counts := aux.counts[:width]
	clear(counts)
	for _, b := range bufs {
		for i := range b {
			counts[b[i].k1-minK1]++
		}
	}
	var sum int32
	for i := range counts {
		c := counts[i]
		counts[i] = sum
		sum += c
	}
	var seq int32
	for _, b := range bufs {
		for i := range b {
			pos := counts[b[i].k1-minK1]
			counts[b[i].k1-minK1] = pos + 1
			out[pos] = b[i]
			out[pos].seq = seq
			seq++
		}
	}
	if tagInner {
		// counts[b] now marks each bucket's end; its start is the previous
		// bucket's end.
		var start int32
		for b := 0; b < width; b++ {
			end := counts[b]
			if end-start > 1 {
				slices.SortFunc(out[start:end], func(a, b shardPending) int {
					if c := cmp.Compare(a.k2, b.k2); c != 0 {
						return c
					}
					return cmp.Compare(a.seq, b.seq)
				})
			}
			start = end
		}
	}
	return out
}

// runSharded splits every variant into Shards ownership-disjoint tasks and
// merges their buffers deterministically (see the package comment above).
// Workers is the number of goroutines running the tasks; Workers ≤ 1 runs
// them inline in task order (still buffered — the merge is what defines the
// commit order, not the firing schedule).
//
// The budget tripwire counts tentative emissions (each task dedups against
// the frozen database and its own buffer but not against its peers), so it
// can only overcount; when it trips without the merged total actually
// exceeding the budget, the truncated round is re-fired — already-merged
// facts then dedup at emit time, so every re-fire either completes the
// round or strictly grows the database until the budget genuinely runs out.
//
// Goal-directed runs use a variant-ordered merge with prefix cut. In-flight
// tasks are deliberately NOT aborted (cutting peers off mid-enumeration
// would make the partial database depend on goroutine scheduling); instead
// the merge commits in sequential order and stops at the first committed
// goal fact. Each task only probes frozen indexes — tuples inserted
// mid-round are stamped with the current round, which every window
// excludes — so the committed prefix equals the sequential partial database
// byte for byte. Cancellation is likewise observed at round (and re-fire)
// boundaries only.
func (env *roundEnv) runSharded(rr roundRules, variants []variant) error {
	d, opts, stats, goal := env.d, env.opts, env.stats, env.goal
	shards := opts.Shards
	// Per-variant execution plans: the rule actually fired (delta-first when
	// the delta sits on executed position 1 and a swapped compilation
	// exists), its windows, and the ownership view of its outer predicate
	// under the planner's partition column. Views are frozen here, before
	// any task runs, so every in-round ownership test is a lock-free read
	// covering exactly the ids the round windows admit.
	type shardPlan struct {
		cr       *compiledRule
		windows  []db.RoundWindow
		view     db.ShardView
		tagInner bool
	}
	plans := make([]shardPlan, len(variants))
	for vi, v := range variants {
		p := shardPlan{cr: rr.compiled[v.idx], windows: v.windows}
		if v.delta == 1 && rr.swapped != nil && rr.swapped[v.idx] != nil {
			p.cr = rr.swapped[v.idx]
			w := append([]db.RoundWindow(nil), v.windows...)
			w[0], w[1] = w[1], w[0]
			p.windows = w
			p.tagInner = true
		}
		if len(p.cr.body) > 0 {
			pred := p.cr.body[0].pred
			p.view = d.EnsureShardView(pred, rr.partCol[pred], shards)
		}
		plans[vi] = p
	}
	var tentative atomic.Int64
	var tripped atomic.Bool
	var stopFn func() bool
	if opts.MaxDerived > 0 {
		stopFn = func() bool { return tripped.Load() }
	}
	width := max(opts.Workers, 1)
	nTasks := len(variants) * shards
	pool := &env.pool
	for {
		if err := CtxErr(env.ctx); err != nil {
			return err
		}
		tentative.Store(int64(d.Len() - env.baseLen))
		tripped.Store(false)
		pool.taskReset(nTasks)
		buffers, statsArr := pool.bufs, pool.stats
		run := func(ti int) {
			vi, s := ti/shards, uint8(ti%shards)
			p := plans[vi]
			sc := shardScan{view: p.view, shard: s, tagInner: p.tagInner}
			// Shard-local dedup. On duplicate-heavy workloads almost every
			// firing re-derives a known fact, so the rejection path is the
			// executor's hot loop: the head predicate is fixed per variant,
			// letting the pred→relation map lookup hoist out of it, and the
			// frozen relation's table is probed read-only. Facts new to the
			// round dedup against the task-local set, so only distinct facts
			// are copied, buffered and sorted — duplicate emissions fold into
			// the buffered entry's merge keys (see taskSet) — and cross-task
			// duplicates still resolve at the merge, so byte identity is
			// preserved.
			//
			// The frozen-table probe is itself adaptive: it saves a buffer
			// entry when it hits, but on low-duplicate rounds nearly every
			// probe misses against a table too large to stay in cache, and
			// the commit re-probes at insert anyway. Each task samples its
			// first probeSample emissions and drops the prefilter for the
			// rest of the task when under a quarter of them were duplicates
			// — the merge's insert remains the one authoritative dedup, so
			// the switch cannot change what commits, or in what order.
			headRel := d.Relation(p.cr.head.pred)
			if headRel != nil && headRel.Arity() != len(p.cr.head.args) {
				headRel = nil
			}
			local := &pool.sets[ti]
			arena := pool.arenas[ti] // chunked copy space; grown slices keep old chunks alive
			const probeSample = 512
			probed, rejected := 0, 0
			emit := func(k1, k2 int32, pred string, args []ast.Const) bool {
				if headRel != nil {
					_, dup := headRel.LookupID(args)
					if dup {
						rejected++
					}
					if probed++; probed == probeSample && 4*rejected < probeSample {
						headRel = nil
					}
					if dup {
						return false
					}
				}
				if !local.add(buffers[ti], k1, k2, args) {
					return false
				}
				n := len(arena)
				arena = append(arena, args...)
				cp := arena[n:len(arena):len(arena)]
				buffers[ti] = append(buffers[ti], shardPending{k1: k1, k2: k2, shard: s, pred: pred, args: cp})
				if opts.MaxDerived > 0 && tentative.Add(1) > int64(opts.MaxDerived) {
					tripped.Store(true)
				}
				return true // tentatively new; the merge dedups across tasks
			}
			p.cr.fireShard(d, p.windows, &statsArr[ti], &sc, emit, stopFn)
			pool.arenas[ti] = arena
		}
		if width == 1 {
			for ti := 0; ti < nTasks; ti++ {
				run(ti)
			}
		} else {
			sem := make(chan struct{}, width)
			var wg sync.WaitGroup
			for ti := 0; ti < nTasks; ti++ {
				wg.Add(1)
				go func(ti int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					run(ti)
				}(ti)
			}
			wg.Wait()
		}
		// Deterministic merge, single-threaded after the tasks join. Within
		// one variant the shard buffers partition the outer enumeration:
		// arranging the concatenation by (k1, k2, concat order) — see
		// commitOrder — restores the sequential plan-ordered emission
		// sequence: k1 is the plan-outer tuple id, k2 the delta id of a
		// swapped execution, and emissions sharing both keys come from a
		// single shard in already-correct relative order (ownership makes
		// the key spaces disjoint across shards). Variants then commit in
		// variant order, goal prefix cut included.
		for vi := range variants {
			base := vi * shards
			for s := 0; s < shards; s++ {
				stats.Firings += statsArr[base+s].Firings
			}
			all := commitOrder(buffers[base:base+shards], plans[vi].tagInner, &pool.aux)
			merged := 0
			cut := false
			for i := range all {
				pf := &all[i]
				if d.AddTuple(pf.pred, pf.args) {
					stats.Added++
					merged++
					// Boundary-delta exchange: a committed fact whose owner
					// shard (under the head predicate's partition column)
					// differs from the shard that derived it would cross
					// shards in a distributed deployment.
					owner := uint8(0)
					if col, ok := rr.partCol[pf.pred]; ok {
						owner = db.ShardOwner(pf.args, col, shards)
					}
					if owner != pf.shard {
						stats.DeltaExchanged++
					}
					if goal != nil && pf.pred == goal.Pred && constsEqual(pf.args, goal.Args) {
						cut = true
						break
					}
				}
			}
			if env.prov != nil && merged > 0 {
				env.prov.Add(env.ruleIdxs[variants[vi].idx])
			}
			if cut {
				return errGoal
			}
		}
		stats.ShardRounds += shards
		perShard := make([]int, shards)
		for ti := 0; ti < nTasks; ti++ {
			perShard[ti%shards] += statsArr[ti].Firings
		}
		maxF, totF := 0, 0
		for _, f := range perShard {
			totF += f
			if f > maxF {
				maxF = f
			}
		}
		stats.ShardImbalance += maxF - totF/shards
		if !tripped.Load() {
			return nil
		}
		if d.Len()-env.baseLen > opts.MaxDerived {
			return env.budgetErr()
		}
	}
}

// normalize resolves opts to the plan they select. The sharded executor is
// part of the compiled kernel, so NoCompile runs unsharded, and the
// ownership views store owners in one byte, capping Shards at 256. Workers
// only counts the goroutines running shard tasks: it is 0 when a round runs
// sequentially (Shards ≤ 1) or its tasks inline (Workers ≤ 1), and at most
// Shards otherwise. Options that normalize equal evaluate identically, so
// Prepare plans under the normalized form and the plan cache keys by it.
func normalize(opts Options) Options {
	switch {
	case opts.NoCompile || opts.Shards < 1:
		opts.Shards = 1
	case opts.Shards > 256:
		opts.Shards = 256
	}
	switch {
	case opts.Shards <= 1 || opts.Workers <= 1:
		opts.Workers = 0
	case opts.Workers > opts.Shards:
		opts.Workers = opts.Shards
	}
	return opts
}

// partitionCols chooses, per predicate, the column sharded rounds partition
// its tuples by: the position that most often carries a join variable (one
// occurring more than once in its rule), ties to the lowest position, so
// partition keys align with join keys as often as the program's shape
// allows. The choice affects only load balance and the delta-exchange
// accounting, never results — inner probes always read the full frozen
// store. Predicates with no scoring position partition on column 0; nullary
// predicates get -1, the home-shard fallback.
func partitionCols(rules []ast.Rule) map[string]int {
	arity := map[string]int{}
	score := map[string][]int{}
	for _, r := range rules {
		counts := map[string]int{}
		tally := func(a ast.Atom) {
			for _, t := range a.Args {
				if t.IsVar {
					counts[t.Name]++
				}
			}
		}
		tally(r.Head)
		for _, a := range r.Body {
			tally(a)
		}
		for _, a := range r.NegBody {
			tally(a)
		}
		mark := func(a ast.Atom) {
			if _, ok := arity[a.Pred]; !ok {
				arity[a.Pred] = len(a.Args)
				score[a.Pred] = make([]int, len(a.Args))
			}
			s := score[a.Pred]
			for i, t := range a.Args {
				if i < len(s) && t.IsVar && counts[t.Name] >= 2 {
					s[i]++
				}
			}
		}
		mark(r.Head)
		for _, a := range r.Body {
			mark(a)
		}
	}
	out := make(map[string]int, len(arity))
	for pred, ar := range arity {
		if ar == 0 {
			out[pred] = -1
			continue
		}
		best, bestScore := 0, score[pred][0]
		for i := 1; i < ar; i++ {
			if score[pred][i] > bestScore {
				best, bestScore = i, score[pred][i]
			}
		}
		out[pred] = best
	}
	return out
}

// buildSwapped compiles the delta-first form of each ordered rule whose
// first two body atoms share a variable: body positions 0 and 1 swapped,
// substituted by the sharded executor when the round's delta lands on
// executed position 1. Enumerating the delta as the outer loop turns a scan
// of the whole relation (filtered per tuple against the delta window) into
// a walk of the delta's contiguous id-range; the shared-variable guard
// keeps the displaced outer atom an index probe rather than a per-delta
// re-scan. eligible filters by the predicate at position 1 (only dynamic
// predicates ever hold a delta there). The extra index needs of the swapped
// probes are returned for the round-boundary freeze.
func buildSwapped(ordered []ast.Rule, eligible func(pred string) bool) ([]*compiledRule, []indexNeed) {
	var swapped []*compiledRule
	var srules []ast.Rule
	for i, or := range ordered {
		if len(or.Body) < 2 || !eligible(or.Body[1].Pred) || !atomsShareVar(or.Body[0], or.Body[1]) {
			continue
		}
		if swapped == nil {
			swapped = make([]*compiledRule, len(ordered))
		}
		sr := or.Clone()
		sr.Body[0], sr.Body[1] = sr.Body[1], sr.Body[0]
		swapped[i] = compileRule(sr)
		srules = append(srules, sr)
	}
	if swapped == nil {
		return nil, nil
	}
	return swapped, indexNeeds(srules)
}

func atomsShareVar(a, b ast.Atom) bool {
	for _, t := range a.Args {
		if !t.IsVar {
			continue
		}
		for _, u := range b.Args {
			if u.IsVar && u.Name == t.Name {
				return true
			}
		}
	}
	return false
}
