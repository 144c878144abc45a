// Package eval implements the bottom-up computation of Section III: given a
// program P and an input DB (which, per the paper's uniform semantics, may
// assign initial relations to intentional as well as extensional
// predicates), repeatedly instantiate rules until no new ground atoms can be
// produced. The package provides both the naive strategy the paper describes
// and the standard semi-naive refinement (each derivation considered once),
// plus the auxiliary operators the paper's procedures need: the
// non-recursive application Pⁿ(d) of Section IX, the initialization program
// Pⁱ and preliminary DB of Section X, and — for the Section XII extension —
// stratified negation.
package eval

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
)

// Strategy selects the fixpoint algorithm.
type Strategy int

const (
	// SemiNaive derives each new fact from at least one last-round fact,
	// avoiding rederivation; it is the default.
	SemiNaive Strategy = iota
	// Naive re-fires every rule against the whole DB each round, exactly as
	// Section III describes the computation.
	Naive
)

// ErrBudget is returned when evaluation exceeds Options.MaxDerived.
var ErrBudget = errors.New("eval: derived-fact budget exhausted")

// ErrCanceled is returned when an evaluation's context is canceled or its
// deadline expires. Cancellation is checked at round boundaries and — with a
// small cadence — on the emit path, extending the in-round MaxDerived
// discipline: a round that would run long past a deadline is cut mid-stream,
// not at its end. Errors wrap both ErrCanceled and the context's own error,
// so errors.Is works against ErrCanceled, context.Canceled and
// context.DeadlineExceeded alike.
var ErrCanceled = errors.New("eval: evaluation canceled")

// CtxErr converts a context's cancellation state into the package's typed
// error (nil context or live context → nil). Session layers embedding
// evaluation in longer procedures (the containment chases, minimization,
// preservation checks) use it for their own between-call checks so every
// layer reports cancellation identically.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// ctxCheckEvery is the emit-path cancellation cadence: the context is polled
// once per this many derived facts, keeping the check off the per-tuple hot
// path while bounding how much work a canceled evaluation can still do.
const ctxCheckEvery = 128

// Options configures evaluation.
type Options struct {
	// Strategy selects naive or semi-naive fixpoint; the default is
	// semi-naive.
	Strategy Strategy
	// NoReorder disables the greedy join-order heuristic and evaluates body
	// atoms in source order; used by ablation benchmarks.
	NoReorder bool
	// NoSCCOrder disables the SCC-ordered schedule and runs all rules in a
	// single fixpoint; used by ablation benchmarks.
	NoSCCOrder bool
	// NoCompile disables the slot-compiled rule evaluator and joins through
	// the generic binding-map matcher; used by ablation benchmarks and the
	// cross-check property test.
	NoCompile bool
	// NoStream disables the streaming operator pipeline for non-recursive
	// strata and forces the materializing kernel everywhere; used by ablation
	// benchmarks and the streaming≡materializing property test. Implied by
	// NoCompile (the pipeline lowers from the compiled form).
	NoStream bool
	// Workers is the number of goroutines running a sharded round's shard
	// tasks (see Shards), capped at Shards. It never changes the output:
	// with Shards ≤ 1 a round runs sequentially whatever Workers says, and
	// Workers ≤ 1 runs the shard tasks inline.
	Workers int
	// Shards > 1 enables the sharded round executor: every relation gains a
	// hash-partitioned ownership view over a planner-chosen join-key column,
	// and each round's variants split into per-shard tasks that enumerate
	// only their owned slice of the outer delta window (delta-first, walking
	// the contiguous round range directly) while inner probes read the
	// shared frozen indexes. Buffered derivations are committed in a
	// deterministic merge order, so the output database — including goal
	// early-stop partial databases — is byte-identical to Shards ≤ 1 for any
	// shard count. Shards is capped at 256 and normalized to 1 under
	// NoCompile (the sharded executor is part of the compiled kernel).
	Shards int
	// MaxDerived bounds the number of new facts; 0 means unlimited. Pure
	// Datalog always terminates, so the bound exists for callers that embed
	// evaluation in potentially non-terminating chases.
	MaxDerived int
	// Goal, when non-nil, halts evaluation the moment this ground atom is
	// derived (it is enforced on the emit path, not at round boundaries).
	// The returned database then contains the goal but is generally not the
	// full fixpoint. Containment sessions use this to stop the frozen-body
	// test of Section VI as soon as the frozen head appears.
	Goal *ast.GroundAtom
	// Context, when non-nil, cancels evaluation when it is done: deadlines
	// (context.WithTimeout/WithDeadline) and explicit cancellation both
	// surface as an error wrapping ErrCanceled. Cancellation is observed at
	// round boundaries and with a small cadence on the emit path. The
	// context is a per-call concern, never part of a plan: Prepare strips it
	// from the retained options and the plan cache ignores it when
	// fingerprinting, so a canceled request can never poison a cached plan.
	// Prepared callers pass per-request contexts through EvalCtx /
	// EvalGoalCtx / EvalGoalProvCtx instead.
	Context context.Context
}

// Stats reports work done by an evaluation. The cache fields are filled by
// session layers (the plan cache, the containment sessions) rather than by a
// single evaluation; a one-shot Eval leaves them zero.
type Stats struct {
	// Rounds is the number of fixpoint iterations (including the final empty
	// one that detects convergence).
	Rounds int
	// Firings is the number of successful body instantiations, i.e. the
	// joins' output size (including duplicates that derived a known fact).
	Firings int
	// Added is the number of new facts derived.
	Added int
	// PrepareHits / PrepareMisses count plan-cache lookups made on the
	// session's behalf: a hit reused an existing *Prepared, a miss had to
	// build one (by full preparation or by delta-patching an existing plan).
	PrepareHits   int
	PrepareMisses int
	// VerdictsReused / VerdictsRecomputed count memoized containment
	// verdicts carried across a Checker.Derive versus decided by running a
	// fresh goal-directed chase.
	VerdictsReused     int
	VerdictsRecomputed int
	// VerdictsSubsumed counts containment verdicts forced syntactically —
	// the tested rule is θ-subsumed by a rule of the containing program (or
	// is a tautology), so the chase was skipped entirely.
	VerdictsSubsumed int
	// StrataStreamed / StrataMaterialized count fixpoint units executed by
	// the streaming operator pipeline versus the materializing join kernel —
	// the planner's per-stratum decision, observable.
	StrataStreamed     int
	StrataMaterialized int
	// BindingsPipelined counts tuples successfully bound through a streaming
	// operator: the pipeline's total intermediate-result size, which the
	// materializing kernel would have buffered.
	BindingsPipelined int
	// EarlyStopCuts counts streaming passes cut mid-pipeline by a goal hit
	// or an exhausted derived-fact budget.
	EarlyStopCuts int
	// ShardRounds counts shard-round executions: a materializing round run
	// under Shards=N adds N (one per shard slice of the round).
	ShardRounds int
	// DeltaExchanged counts boundary-delta exchanges: facts committed whose
	// owner shard (by the head predicate's partition column) differs from
	// the shard that derived them, i.e. tuples that would cross shards in a
	// distributed deployment.
	DeltaExchanged int
	// ShardImbalance accumulates, per sharded round, the gap between the
	// busiest shard's firings and the round's per-shard mean — a direct
	// measure of how well the planner's partition columns spread the work.
	ShardImbalance int
	// Applies counts Maintained.Apply batches absorbed by a maintained view.
	Applies int
	// CountAdjusted counts derivation-count updates made by the counting
	// maintenance of non-recursive strata (one per tuple whose count moved).
	CountAdjusted int
	// Overdeleted / Rederived count the facts the DRed phases of recursive
	// strata first over-deleted and then restored from surviving support;
	// their gap is the net deletion work a retraction batch caused.
	Overdeleted int
	Rederived   int
	// RelationsFrozen / FreezeSkipped count, per maintenance batch, the
	// relations the snapshot layer had to compact-and-share versus those the
	// dirty-set check proved untouched since the previous freeze.
	RelationsFrozen int
	FreezeSkipped   int
	// ChasesBudgetFree / ChasesBudgetBounded count chase runs whose limits
	// came from a termination-classification-derived bound (the set provably
	// reaches a fixpoint) versus runs bounded by a raw caller or default
	// budget, where exhaustion is indistinguishable from divergence.
	ChasesBudgetFree    int
	ChasesBudgetBounded int
}

// AddCache accumulates o's cache counters into s.
func (s *Stats) AddCache(o Stats) {
	s.PrepareHits += o.PrepareHits
	s.PrepareMisses += o.PrepareMisses
	s.VerdictsReused += o.VerdictsReused
	s.VerdictsRecomputed += o.VerdictsRecomputed
	s.VerdictsSubsumed += o.VerdictsSubsumed
}

// AddStreaming accumulates o's streaming-executor counters into s. Session
// layers that run many internal evaluations (the containment chases) use it
// to surface how much of their work rode the pipeline.
func (s *Stats) AddStreaming(o Stats) {
	s.StrataStreamed += o.StrataStreamed
	s.StrataMaterialized += o.StrataMaterialized
	s.BindingsPipelined += o.BindingsPipelined
	s.EarlyStopCuts += o.EarlyStopCuts
}

// AddSharding accumulates o's sharded-executor counters into s. Accounting
// layers folding per-request stats into service totals use it so the shard
// counters merge exactly like the cache and streaming groups.
func (s *Stats) AddSharding(o Stats) {
	s.ShardRounds += o.ShardRounds
	s.DeltaExchanged += o.DeltaExchanged
	s.ShardImbalance += o.ShardImbalance
}

// AddMaintain accumulates o's incremental-maintenance counters into s.
func (s *Stats) AddMaintain(o Stats) {
	s.Applies += o.Applies
	s.CountAdjusted += o.CountAdjusted
	s.Overdeleted += o.Overdeleted
	s.Rederived += o.Rederived
	s.RelationsFrozen += o.RelationsFrozen
	s.FreezeSkipped += o.FreezeSkipped
}

// AddChase accumulates o's chase-budget counters into s.
func (s *Stats) AddChase(o Stats) {
	s.ChasesBudgetFree += o.ChasesBudgetFree
	s.ChasesBudgetBounded += o.ChasesBudgetBounded
}

// Eval computes P(input): the least DB containing input and closed under the
// rules of p (Section III). The input database is not modified; the returned
// database contains the input, matching the paper's convention that "the
// output of every program contains its input".
//
// Eval is the one-shot entry point: it is Prepare followed by a single
// Prepared.Eval. Callers evaluating the same program repeatedly should
// Prepare once and reuse the Prepared.
func Eval(p *ast.Program, input *db.Database, opts Options) (*db.Database, Stats, error) {
	pr, err := Prepare(p, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return pr.EvalCtx(opts.Context, input)
}

// MustEval is Eval with default options, panicking on error; intended for
// tests and examples where the program is known valid.
func MustEval(p *ast.Program, input *db.Database) *db.Database {
	out, _, err := Eval(p, input, Options{})
	if err != nil {
		panic(err)
	}
	return out
}

// sccRuleGroups partitions the rule indexes of p by the strongly connected
// component of their head predicate, ordered so that a component's body
// predicates belong to the same or an earlier group. Tarjan (as used by
// depgraph.SCCs, with body→head edges) emits every consumer component
// before its producers, so the producer-first evaluation order is the
// REVERSE of the emission order.
func sccRuleGroups(p *ast.Program) [][]int {
	comps := depgraph.Build(p).SCCs()
	compOf := make(map[string]int)
	for i, comp := range comps {
		for _, pred := range comp {
			compOf[pred] = i
		}
	}
	groups := make([][]int, len(comps))
	for ri, r := range p.Rules {
		c := compOf[r.Head.Pred]
		groups[c] = append(groups[c], ri)
	}
	var out [][]int
	for i := len(groups) - 1; i >= 0; i-- {
		if len(groups[i]) > 0 {
			out = append(out, groups[i])
		}
	}
	return out
}

// indexNeed names one hash index a round's joins will probe: the bound
// column set of one body atom under the rule's evaluation order.
type indexNeed struct {
	pred string
	cols []int
}

// indexNeeds statically computes the (predicate, bound-column) pairs the
// nested-loops joins over the given ordered rule bodies will probe: for
// each body atom, the positions holding constants or variables bound by an
// earlier atom. Fully-bound atoms probe the dedup table and unbound atoms
// scan, so neither needs an index. Both the compiled and the generic
// evaluator bind variables atom-by-atom in exactly this order, so the set
// is exact — pre-building these indexes at round boundaries is what makes
// every in-round probe a lock-free read.
func indexNeeds(rules []ast.Rule) []indexNeed {
	var out []indexNeed
	seen := make(map[string]map[uint64]bool)
	for _, r := range rules {
		bound := make(map[string]bool)
		for _, a := range r.Body {
			var cols []int
			for i, t := range a.Args {
				if !t.IsVar || bound[t.Name] {
					cols = append(cols, i)
				}
			}
			if len(cols) > 0 && len(cols) < len(a.Args) {
				mask := db.ColMask(cols)
				if seen[a.Pred] == nil {
					seen[a.Pred] = make(map[uint64]bool)
				}
				if !seen[a.Pred][mask] {
					seen[a.Pred][mask] = true
					out = append(out, indexNeed{pred: a.Pred, cols: cols})
				}
			}
			for _, t := range a.Args {
				if t.IsVar {
					bound[t.Name] = true
				}
			}
		}
	}
	return out
}

func checkBudget(d *db.Database, baseLen int, opts Options) error {
	if opts.MaxDerived > 0 && d.Len()-baseLen > opts.MaxDerived {
		return fmt.Errorf("%w: derived %d facts (budget %d)", ErrBudget, d.Len()-baseLen, opts.MaxDerived)
	}
	return nil
}

// fullWindows gives every body position the window [0, maxRound].
func fullWindows(n int, maxRound int32) []db.RoundWindow {
	ws := make([]db.RoundWindow, n)
	for i := range ws {
		ws[i] = db.RoundWindow{Min: 0, Max: maxRound}
	}
	return ws
}

// deltaWindows gives position i the last round's delta, earlier positions
// strictly older facts, later positions anything up to the last round.
func deltaWindows(n, i int, prev int32) []db.RoundWindow {
	ws := make([]db.RoundWindow, n)
	for j := range ws {
		switch {
		case j < i:
			ws[j] = db.RoundWindow{Min: 0, Max: prev - 1}
		case j == i:
			ws[j] = db.RoundWindow{Min: prev, Max: prev}
		default:
			ws[j] = db.RoundWindow{Min: 0, Max: prev}
		}
	}
	return ws
}

func fireConstraints(d *db.Database, r ast.Rule, cs []db.Constraint, stats *Stats, emit func(string, []ast.Const) bool, stop func() bool) error {
	b := ast.Binding{}
	var firingErr error
	db.MatchSeq(d, cs, b, func() bool {
		// Stratified negation: every variable of a negated atom is bound by
		// safety, so the check is a simple absence test against the
		// already-complete lower strata.
		for _, n := range r.NegBody {
			g, err := n.Ground(b)
			if err != nil {
				firingErr = err
				return false
			}
			if d.Has(g) {
				return true
			}
		}
		stats.Firings++
		h, err := r.Head.Ground(b)
		if err != nil {
			firingErr = err
			return false
		}
		if emit(h.Pred, h.Args) {
			stats.Added++
			if stop != nil && stop() {
				return false
			}
		}
		return true
	})
	return firingErr
}

// anyAddedIn reports whether any fact carries the given round stamp.
func anyAddedIn(d *db.Database, round int32) bool {
	for _, p := range d.Preds() {
		r := d.Relation(p)
		for i := r.Len() - 1; i >= 0; i-- {
			if r.RoundOf(i) == round {
				return true
			}
			if r.RoundOf(i) < round {
				break // stamps are non-decreasing with insertion order
			}
		}
	}
	return false
}

// NonRecursive computes Pⁿ(d) as defined in Section IX: the set of head
// instantiations h·θ such that the body of some rule grounds into d. The
// result does not include d itself (the paper's convention for Pⁿ), and no
// derived fact feeds back into another derivation. Negated body atoms (the
// stratified extension) are checked against d.
func NonRecursive(p *ast.Program, d *db.Database) *db.Database {
	out := db.New()
	for _, r := range p.Rules {
		cs := make([]db.Constraint, len(r.Body))
		for i, a := range db.OrderForJoin(r.Body, nil) {
			cs[i] = db.Constraint{Atom: a, Window: db.AllRounds}
		}
		b := ast.Binding{}
		neg := r.NegBody
		head := r.Head
		db.MatchSeq(d, cs, b, func() bool {
			for _, n := range neg {
				if d.Has(n.MustGround(b)) {
					return true
				}
			}
			out.Add(head.MustGround(b))
			return true
		})
	}
	return out
}

// PreliminaryDB computes the preliminary DB of Section X for an EDB d: the
// union of d with Pⁱ(d), where Pⁱ consists of the initialization rules of p
// (rules whose bodies mention only extensional predicates). Pⁱ is
// non-recursive, so a single non-recursive application reaches its fixpoint.
func PreliminaryDB(p *ast.Program, edb *db.Database) *db.Database {
	out := edb.Clone()
	out.BeginRound()
	out.AddAll(NonRecursive(p.InitRules(), edb))
	return out
}

// IsModel reports whether d is a model of p (Section IV): applying p to d
// generates no ground atom outside d. For rules with negation the check uses
// the same stratified reading as Eval.
func IsModel(p *ast.Program, d *db.Database) bool {
	counterexample := false
	for _, r := range p.Rules {
		cs := make([]db.Constraint, len(r.Body))
		for i, a := range db.OrderForJoin(r.Body, nil) {
			cs[i] = db.Constraint{Atom: a, Window: db.AllRounds}
		}
		b := ast.Binding{}
		neg := r.NegBody
		head := r.Head
		db.MatchSeq(d, cs, b, func() bool {
			for _, n := range neg {
				if d.Has(n.MustGround(b)) {
					return true
				}
			}
			if !d.Has(head.MustGround(b)) {
				counterexample = true
				return false
			}
			return true
		})
		if counterexample {
			return false
		}
	}
	return true
}

// Query evaluates p on input and returns the tuples of the result matching
// the query atom's pattern (constants filter; variables project). Tuples are
// returned in the result database's deterministic fact order.
func Query(p *ast.Program, input *db.Database, query ast.Atom, opts Options) ([][]ast.Const, error) {
	out, _, err := Eval(p, input, opts)
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
