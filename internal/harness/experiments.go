package harness

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/constraint"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/equivopt"
	"repro/internal/eval"
	"repro/internal/explain"
	"repro/internal/magic"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/preserve"
	"repro/internal/topdown"
	"repro/internal/workload"
)

// All runs every experiment and returns the tables in order.
func All() []Table {
	return []Table{
		E1WorkedExamples(),
		E2UniformContainment(),
		E3MinimizeRule(),
		E4MinimizeProgram(),
		E5EvalSpeedup(),
		E6NaiveVsSemiNaive(),
		E7EquivOpt(),
		E8MagicComposition(),
		E9EmbeddedChase(),
		E10CQAblation(),
		E11Engines(),
		E12Incremental(),
		E13EngineAblations(),
		E14SIPS(),
		E15DerivationCounts(),
	}
}

// check is one E1 assertion.
type check struct {
	name    string
	section string
	claim   string
	run     func() bool
}

func ga(pred string, args ...int64) ast.GroundAtom {
	cs := make([]ast.Const, len(args))
	for i, a := range args {
		cs[i] = ast.Int(a)
	}
	return ast.GroundAtom{Pred: pred, Args: cs}
}

// E1WorkedExamples re-executes every worked example of the paper and
// asserts its stated outcome.
func E1WorkedExamples() Table {
	t := Table{ID: "E1", Title: "worked-example regression (paper Examples 2-19)",
		Columns: []string{"example", "section", "claim", "result", "time"}}

	tc := workload.TransitiveClosure()
	tcLinear := workload.TransitiveClosureLinear()
	tcGuarded := workload.TransitiveClosureGuarded()
	tgd := parser.MustParseTGD("G(x, z) -> A(x, w).")

	checks := []check{
		{"Ex. 2", "III", "bottom-up output of TC on {A(1,2),A(1,4),A(4,1)}", func() bool {
			out := eval.MustEval(tc, db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1)}))
			want := db.FromFacts([]ast.GroundAtom{
				ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1),
				ga("G", 1, 2), ga("G", 1, 4), ga("G", 4, 1),
				ga("G", 1, 1), ga("G", 4, 4), ga("G", 4, 2)})
			return out.Equal(want)
		}},
		{"Ex. 3", "III", "IDB atoms accepted as input (uniform semantics)", func() bool {
			out := eval.MustEval(tc, db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("G", 4, 1)}))
			return out.Has(ga("G", 4, 2)) && !out.Has(ga("A", 4, 1))
		}},
		{"Ex. 4", "IV", "equivalence without uniform equivalence (TC variants)", func() bool {
			eq, err := chase.UniformlyEquivalent(tc, tcLinear)
			return err == nil && !eq
		}},
		{"Ex. 5", "IV", "adding a rule uniformly contains the original", func() bool {
			p2 := parser.MustParseProgram(`
				G(x, z) :- A(x, z).
				G(x, z) :- G(x, y), G(y, z).
				A(x, z) :- A(x, y), G(y, z).`)
			ok, _, err := chase.UniformlyContains(p2, tc)
			return err == nil && ok
		}},
		{"Ex. 6", "VI", "P2 ⊑ᵘ P1 proved, P1 ⊑ᵘ P2 refuted by the chase", func() bool {
			ok1, _, err1 := chase.UniformlyContains(tc, tcLinear)
			ok2, _, err2 := chase.UniformlyContains(tcLinear, tc)
			return err1 == nil && err2 == nil && ok1 && !ok2
		}},
		{"Ex. 7/8", "VI-VII", "A(w,y) redundant in the 5-atom rule (Fig. 1)", func() bool {
			r := parser.MustParseProgram(`G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).`).Rules[0]
			min, trace, err := minimize.Rule(r, minimize.Options{})
			return err == nil && trace.AtomsRemoved() == 1 && len(min.Body) == 4
		}},
		{"Ex. 9", "VIII", "tgd satisfaction over the Example 2 DB", func() bool {
			d := eval.MustEval(tc, db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1)}))
			bad := parser.MustParseTGD("G(x, y) -> A(y, z), A(z, x).")
			good := parser.MustParseTGD("G(x, y) -> G(x, z), A(z, y).")
			return !constraint.Satisfies(d, []ast.TGD{bad}) && constraint.Satisfies(d, []ast.TGD{good})
		}},
		{"Ex. 10", "VIII", "a full tgd behaves as two rules", func() bool {
			full := parser.MustParseTGD("A(x, y, z), B(w, y, v) -> A(x, y, v), T(w, y, z).")
			return full.IsFull() && len(full.AsRules()) == 2
		}},
		{"Ex. 11", "VIII", "SAT(T) ∩ M(P1) ⊆ M(P2) via the extended chase", func() bool {
			v, err := chase.SATModelsContained(tcGuarded, []ast.TGD{tgd}, tc, chase.Budget{})
			return err == nil && v == chase.Yes
		}},
		{"Ex. 12", "IX", "Pⁿ(d) vs P(d) on {A(1,2),G(2,3),G(3,4)}", func() bool {
			d := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("G", 2, 3), ga("G", 3, 4)})
			pn := eval.NonRecursive(tc, d)
			return pn.Equal(db.FromFacts([]ast.GroundAtom{ga("G", 1, 2), ga("G", 2, 4)}))
		}},
		{"Ex. 13/14", "IX", "P1 preserves G(x,z)→A(x,w) non-recursively (Fig. 3)", func() bool {
			v, _, err := preserve.Check(tcGuarded, []ast.TGD{tgd}, preserve.Options{})
			return err == nil && v == chase.Yes
		}},
		{"Ex. 15", "IX", "two-atom-LHS tgd preserved (all 4 combinations)", func() bool {
			r := parser.MustParseProgram(`G(x, z) :- G(x, y), G(y, z), A(y, w).`)
			v, _, err := preserve.Check(r, []ast.TGD{parser.MustParseTGD("G(x, y), G(y, z) -> A(y, w).")}, preserve.Options{})
			return err == nil && v == chase.Yes
		}},
		{"Ex. 16", "IX", "Example 19's recursive rule preserves its tgd", func() bool {
			r := parser.MustParseProgram(`G(x, z) :- A(x, y), G(y, z), G(y, w), C(w).`)
			v, _, err := preserve.Check(r, []ast.TGD{parser.MustParseTGD("G(y, z) -> G(y, w), C(w).")}, preserve.Options{})
			return err == nil && v == chase.Yes
		}},
		{"Ex. 17", "X", "preliminary DB of TC over a 3-chain", func() bool {
			prelim := eval.PreliminaryDB(tc, workload.Chain("A", 3))
			return prelim.Len() == 6 && prelim.Has(ga("G", 0, 1)) && !prelim.Has(ga("G", 0, 2))
		}},
		{"Ex. 18", "X-XI", "A(y,w) removed under equivalence (full pipeline)", func() bool {
			opt, removals, err := equivopt.Optimize(tcGuarded, equivopt.Options{})
			return err == nil && len(removals) == 1 && opt.Equal(tc)
		}},
		{"Ex. 19", "XI", "G(y,w), C(w) removed under equivalence", func() bool {
			opt, removals, err := equivopt.Optimize(workload.Example19Program(), equivopt.Options{})
			want := parser.MustParseProgram(`
				G(x, z) :- A(x, z), C(z).
				G(x, z) :- A(x, y), G(y, z).`)
			return err == nil && len(removals) >= 1 && opt.Equal(want)
		}},
	}

	for _, c := range checks {
		var ok bool
		d := timed(func() { ok = c.run() })
		result := "PASS"
		if !ok {
			result = "FAIL"
		}
		t.AddRow(c.name, c.section, c.claim, result, ms(d))
	}
	return t
}

// E2UniformContainment measures the cost of the Section VI decision
// procedure as program size grows: layered self-containment (one verdict per
// rule, decided syntactically by the θ-subsumption fast path) plus the fully
// unfolded top layer Pn(x,z) :- E,…,E — uniformly contained but subsumed by
// no single rule, so it forces a real frozen-body chase whose goal-directed
// evaluation rides the streaming pipeline. The streamed/materialized column
// is the planner's per-stratum decision tally across the session.
func E2UniformContainment() Table {
	t := Table{ID: "E2", Title: "uniform-containment decision cost vs program size (Section VI)",
		Columns: []string{"layers", "rules", "body atoms", "decision", "strata strm/mat", "time"}}
	for _, n := range []int{2, 4, 8, 16, 24} {
		p := workload.Layered(n)
		unfolded := unfoldedLayer(n)
		var ok bool
		var st eval.Stats
		d := timed(func() {
			// Explicit session: the containing program is prepared once
			// and every rule is tested against it.
			ck, err := chase.NewChecker(p)
			if err != nil {
				panic(err)
			}
			ok, _, err = ck.Contains(p)
			if err != nil {
				panic(err)
			}
			chased, err := ck.ContainsRule(unfolded)
			if err != nil {
				panic(err)
			}
			ok = ok && chased
			st = ck.Stats()
		})
		t.AddRow(n, len(p.Rules), p.BodyAtomCount(), fmt.Sprint(ok),
			fmt.Sprintf("%d/%d", st.StrataStreamed, st.StrataMaterialized), ms(d))
	}
	return t
}

// unfoldedLayer builds Pn(x, z) :- E(x, y1), …, E(yn-1, z): the n-layer rule
// unfolded down to the EDB. It is uniformly contained in workload.Layered(n)
// but θ-subsumed by none of its rules.
func unfoldedLayer(n int) ast.Rule {
	var sb strings.Builder
	fmt.Fprintf(&sb, "P%d(x0, x%d) :- ", n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "E(x%d, x%d)", i, i+1)
	}
	sb.WriteString(".")
	return parser.MustParseProgram(sb.String()).Rules[0]
}

// E3MinimizeRule measures Fig. 1 on rules with k injected redundant atoms.
func E3MinimizeRule() Table {
	t := Table{ID: "E3", Title: "rule minimization (Fig. 1) vs injected redundancy",
		Columns: []string{"injected k", "body before", "body after", "atoms removed", "plan hit/miss", "verdicts memo/syn/chase", "strata strm/mat", "time"}}
	base := workload.TransitiveClosure().Rules[1]
	for _, k := range []int{0, 1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(k) + 1))
		r := workload.InjectRedundantAtoms(base, k, rng)
		var min ast.Rule
		var trace minimize.Trace
		d := timed(func() {
			var err error
			min, trace, err = minimize.Rule(r, minimize.Options{})
			if err != nil {
				panic(err)
			}
		})
		t.AddRow(k, len(r.Body), len(min.Body), trace.AtomsRemoved(),
			fmt.Sprintf("%d/%d", trace.Stats.PrepareHits, trace.Stats.PrepareMisses),
			fmt.Sprintf("%d/%d/%d", trace.Stats.VerdictsReused, trace.Stats.VerdictsSubsumed, trace.Stats.VerdictsRecomputed),
			fmt.Sprintf("%d/%d", trace.Stats.StrataStreamed, trace.Stats.StrataMaterialized),
			ms(d))
	}
	return t
}

// E4MinimizeProgram measures Fig. 2 on programs with injected redundant
// rules and atoms.
func E4MinimizeProgram() Table {
	t := Table{ID: "E4", Title: "program minimization (Fig. 2) vs injected redundant rules",
		Columns: []string{"injected rules", "rules before/after", "atoms before/after", "removed (rules/atoms)", "plan hit/miss", "verdicts memo/syn/chase", "time"}}
	for _, k := range []int{0, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(k) + 11))
		p := workload.InjectRedundantRules(workload.TransitiveClosure(), k, rng)
		var min *ast.Program
		var trace minimize.Trace
		d := timed(func() {
			var err error
			min, trace, err = minimize.Program(p, minimize.Options{})
			if err != nil {
				panic(err)
			}
		})
		t.AddRow(k,
			fmt.Sprintf("%d/%d", len(p.Rules), len(min.Rules)),
			fmt.Sprintf("%d/%d", p.BodyAtomCount(), min.BodyAtomCount()),
			fmt.Sprintf("%d/%d", trace.RulesRemoved(), trace.AtomsRemoved()),
			fmt.Sprintf("%d/%d", trace.Stats.PrepareHits, trace.Stats.PrepareMisses),
			fmt.Sprintf("%d/%d/%d", trace.Stats.VerdictsReused, trace.Stats.VerdictsSubsumed, trace.Stats.VerdictsRecomputed),
			ms(d))
	}
	return t
}

// E5EvalSpeedup measures the paper's core claim: removing redundant parts
// reduces evaluation work. The bloated program carries injected redundant
// atoms plus the Example 11 guard; the optimized program is its Fig. 2 +
// Section XI reduction.
func E5EvalSpeedup() Table {
	t := Table{ID: "E5", Title: "evaluation speedup from minimization (Sections I, V)",
		Columns: []string{"EDB", "facts", "firings bloat", "firings opt", "time bloat", "time opt", "speedup"}}

	rng := rand.New(rand.NewSource(1))
	bloated := workload.TransitiveClosureGuarded()
	bloated = bloated.ReplaceRule(1, workload.InjectRedundantAtoms(bloated.Rules[1], 2, rng))
	min, _, err := minimize.Program(bloated, minimize.Options{})
	if err != nil {
		panic(err)
	}
	opt, _, err := equivopt.Optimize(min, equivopt.Options{})
	if err != nil {
		panic(err)
	}

	edbs := []struct {
		name string
		d    *db.Database
	}{
		{"chain n=48", workload.Chain("A", 48)},
		{"random n=60 m=120", workload.RandomDigraph("A", 60, 120, 7)},
		{"tree f=2 d=6", workload.Tree("A", 2, 6)},
		{"grid 8x8", workload.Grid("A", 8, 8)},
	}
	for _, e := range edbs {
		var sBloat, sOpt eval.Stats
		dBloat := timed(func() {
			_, sBloat, err = eval.Eval(bloated, e.d, eval.Options{})
			if err != nil {
				panic(err)
			}
		})
		dOpt := timed(func() {
			_, sOpt, err = eval.Eval(opt, e.d, eval.Options{})
			if err != nil {
				panic(err)
			}
		})
		t.AddRow(e.name, e.d.Len(), sBloat.Firings, sOpt.Firings, ms(dBloat), ms(dOpt),
			ratio(float64(dBloat.Nanoseconds()), float64(dOpt.Nanoseconds())))
	}
	return t
}

// E6NaiveVsSemiNaive validates the evaluation substrate: semi-naive does
// strictly less rederivation than the naive strategy of Section III.
func E6NaiveVsSemiNaive() Table {
	t := Table{ID: "E6", Title: "naive vs semi-naive fixpoint (Section III substrate)",
		Columns: []string{"EDB", "facts out", "firings naive", "firings semi", "time naive", "time semi", "speedup"}}
	p := workload.TransitiveClosure()
	edbs := []struct {
		name string
		d    *db.Database
	}{
		{"chain n=24", workload.Chain("A", 24)},
		{"chain n=48", workload.Chain("A", 48)},
		{"cycle n=24", workload.Cycle("A", 24)},
		{"random n=40 m=80", workload.RandomDigraph("A", 40, 80, 3)},
	}
	for _, e := range edbs {
		var outLen int
		var sNaive, sSemi eval.Stats
		dNaive := timed(func() {
			out, s, err := eval.Eval(p, e.d, eval.Options{Strategy: eval.Naive})
			if err != nil {
				panic(err)
			}
			sNaive = s
			outLen = out.Len()
		})
		dSemi := timed(func() {
			_, s, err := eval.Eval(p, e.d, eval.Options{Strategy: eval.SemiNaive})
			if err != nil {
				panic(err)
			}
			sSemi = s
		})
		t.AddRow(e.name, outLen, sNaive.Firings, sSemi.Firings, ms(dNaive), ms(dSemi),
			ratio(float64(dNaive.Nanoseconds()), float64(dSemi.Nanoseconds())))
	}
	return t
}

// E7EquivOpt measures the Section XI pipeline: candidates generated,
// removals performed, and cost, including a negative control where the
// pipeline must refuse.
func E7EquivOpt() Table {
	t := Table{ID: "E7", Title: "equivalence-optimization pipeline (Sections X-XI)",
		Columns: []string{"program", "candidates", "atoms removed", "sound", "time"}}
	cases := []struct {
		name string
		p    *ast.Program
		// mustRemove is the exact number of atoms that should go.
		mustRemove int
	}{
		{"Ex.11 guarded TC", workload.TransitiveClosureGuarded(), 1},
		{"Ex.19 program", workload.Example19Program(), 2},
		{"negative control (B init)", parser.MustParseProgram(`
			G(x, z) :- B(x, z).
			G(x, z) :- G(x, y), G(y, z), A(y, w).`), 0},
	}
	for _, c := range cases {
		nCands := 0
		for _, r := range c.p.Rules {
			nCands += len(equivopt.Candidates(r, 3))
		}
		var removals []equivopt.Removal
		var opt *ast.Program
		d := timed(func() {
			var err error
			opt, removals, err = equivopt.Optimize(c.p, equivopt.Options{})
			if err != nil {
				panic(err)
			}
		})
		removed := 0
		for _, r := range removals {
			removed += len(r.Atoms)
		}
		sound := equivalentOnSamples(c.p, opt)
		t.AddRow(c.name, nCands, fmt.Sprintf("%d (want %d)", removed, c.mustRemove), sound, ms(d))
	}
	return t
}

// equivalentOnSamples samples random EDBs and compares outputs.
func equivalentOnSamples(p1, p2 *ast.Program) bool {
	rng := rand.New(rand.NewSource(99))
	idb := p1.IDBPredicates()
	for trial := 0; trial < 10; trial++ {
		d := db.New()
		n := 2 + rng.Intn(5)
		for _, sig := range p1.Predicates() {
			if idb[sig.Name] {
				continue
			}
			for k := 0; k < 1+rng.Intn(5); k++ {
				args := make([]ast.Const, sig.Arity)
				for i := range args {
					args[i] = ast.Int(int64(rng.Intn(n)))
				}
				d.AddTuple(sig.Name, args)
			}
		}
		if !eval.MustEval(p1, d).Equal(eval.MustEval(p2, d)) {
			return false
		}
	}
	return true
}

// E8MagicComposition measures the composition claim from the introduction:
// minimizing a program speeds up its magic-sets evaluation too.
func E8MagicComposition() Table {
	t := Table{ID: "E8", Title: "magic sets × minimization (Section I claim)",
		Columns: []string{"chain n", "mode", "answers", "derived facts", "firings", "time"}}

	rng := rand.New(rand.NewSource(2))
	p := workload.Ancestor()
	bloated := p.ReplaceRule(1, workload.InjectRedundantAtoms(p.Rules[1], 2, rng))
	minimized, _, err := minimize.Program(bloated, minimize.Options{})
	if err != nil {
		panic(err)
	}

	for _, n := range []int{128, 256} {
		edb := workload.Chain("Par", n)
		query := ast.NewAtom("Anc", ast.IntTerm(int64(n-6)), ast.Var("y"))
		type mode struct {
			name string
			run  func() (int, magic.Stats)
		}
		modes := []mode{
			{"direct full eval", func() (int, magic.Stats) {
				ans, s, err := magic.DirectAnswer(bloated, edb, query, eval.Options{})
				if err != nil {
					panic(err)
				}
				return len(ans), s
			}},
			{"magic (bloated)", func() (int, magic.Stats) {
				ans, s, err := magic.Answer(bloated, edb, query, eval.Options{})
				if err != nil {
					panic(err)
				}
				return len(ans), s
			}},
			{"magic (minimized)", func() (int, magic.Stats) {
				ans, s, err := magic.Answer(minimized, edb, query, eval.Options{})
				if err != nil {
					panic(err)
				}
				return len(ans), s
			}},
		}
		for _, m := range modes {
			var nAns int
			var s magic.Stats
			d := timed(func() { nAns, s = m.run() })
			t.AddRow(n, m.name, nAns, s.DerivedFacts, s.Eval.Firings, ms(d))
		}
	}
	return t
}

// E9EmbeddedChase profiles the budgeted chase on a diverging embedded-tgd
// instance and a converging one (Sections VIII-IX).
func E9EmbeddedChase() Table {
	t := Table{ID: "E9", Title: "embedded-tgd chase: verdict vs budget (Sections VIII-IX)",
		Columns: []string{"instance", "budget atoms", "verdict", "chase atoms", "rounds", "time"}}

	// Diverging: B facts breed forever; the goal is unreachable.
	divergeP := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	divergeT := []ast.TGD{parser.MustParseTGD("A(x, y) -> A(y, w).")}
	divergeRule := parser.MustParseProgram(`Q(x) :- A(x, y), Z(x).`).Rules[0]

	// Converging: Example 11's containment resolves quickly.
	convP := workload.TransitiveClosureGuarded()
	convT := []ast.TGD{parser.MustParseTGD("G(x, z) -> A(x, w).")}
	convRule := workload.TransitiveClosure().Rules[1]

	for _, budget := range []int{16, 64, 256, 1024} {
		b := chase.Budget{MaxAtoms: budget, MaxRounds: budget}
		var v chase.Verdict
		var res chase.Result
		d := timed(func() {
			var err error
			v, err = chase.SATContainsRule(divergeP, divergeT, divergeRule, b)
			if err != nil {
				panic(err)
			}
			head, frozen := chase.FreezeRule(divergeRule)
			_ = head
			res, err = chase.Apply(divergeP, divergeT, frozen, b)
			if err != nil {
				panic(err)
			}
		})
		t.AddRow("diverging", budget, v.String(), res.DB.Len(), res.Rounds, ms(d))
	}
	for _, budget := range []int{16, 64} {
		b := chase.Budget{MaxAtoms: budget, MaxRounds: budget}
		var v chase.Verdict
		d := timed(func() {
			var err error
			v, err = chase.SATContainsRule(convP, convT, convRule, b)
			if err != nil {
				panic(err)
			}
		})
		t.AddRow("converging (Ex.11)", budget, v.String(), "-", "-", ms(d))
	}
	return t
}

// E10CQAblation cross-checks the CQ fast path against the frozen-body
// chase on random non-recursive rules and compares their costs.
func E10CQAblation() Table {
	t := Table{ID: "E10", Title: "CQ homomorphism vs frozen-body chase on non-recursive rules (ablation)",
		Columns: []string{"body atoms", "pairs", "agreement", "time cq", "time chase"}}
	for _, k := range []int{2, 4, 6, 8} {
		rng := rand.New(rand.NewSource(int64(k)))
		type pair struct{ r1, r2 ast.Rule }
		var pairs []pair
		for i := 0; i < 30; i++ {
			pairs = append(pairs, pair{randomCQRule(rng, k), randomCQRule(rng, k)})
		}
		agree := 0
		var dCQ, dChase time.Duration
		for _, pr := range pairs {
			q1, _ := cq.FromRule(pr.r1)
			q2, _ := cq.FromRule(pr.r2)
			var a, b bool
			dCQ += timed(func() { a = cq.Contained(q1, q2) })
			dChase += timed(func() {
				var err error
				b, err = chase.UniformlyContainsRule(ast.NewProgram(pr.r2), pr.r1)
				if err != nil {
					panic(err)
				}
			})
			if a == b {
				agree++
			}
		}
		t.AddRow(k, len(pairs), fmt.Sprintf("%d/%d", agree, len(pairs)), ms(dCQ), ms(dChase))
	}
	return t
}

// randomCQRule builds a random non-recursive rule with k binary atoms over
// a small variable pool.
func randomCQRule(rng *rand.Rand, k int) ast.Rule {
	vars := []string{"x", "y", "z", "u", "v", "w"}
	preds := []string{"A", "B"}
	body := make([]ast.Atom, k)
	for i := range body {
		body[i] = ast.NewAtom(preds[rng.Intn(len(preds))],
			ast.Var(vars[rng.Intn(len(vars))]),
			ast.Var(vars[rng.Intn(len(vars))]))
	}
	// Head over a variable present in the body.
	hv := body[rng.Intn(k)].Args[0]
	return ast.NewRule(ast.NewAtom("Q", hv), body...)
}

// E11Engines compares the four query-answering strategies on bound
// ancestor queries: full bottom-up + filter, basic magic, supplementary
// magic, and tabled top-down (QSQ-style).
func E11Engines() Table {
	t := Table{ID: "E11", Title: "query engines on bound ancestor queries (extension)",
		Columns: []string{"chain n", "engine", "answers", "work (facts/answers)", "time"}}
	p := workload.Ancestor()
	for _, n := range []int{96, 192} {
		edb := workload.Chain("Par", n)
		query := ast.NewAtom("Anc", ast.IntTerm(int64(n-6)), ast.Var("y"))

		var nAns int
		var work int
		d := timed(func() {
			ans, s, err := magic.DirectAnswer(p, edb, query, eval.Options{})
			if err != nil {
				panic(err)
			}
			nAns, work = len(ans), s.DerivedFacts
		})
		t.AddRow(n, "bottom-up + filter", nAns, work, ms(d))

		d = timed(func() {
			ans, s, err := magic.Answer(p, edb, query, eval.Options{})
			if err != nil {
				panic(err)
			}
			nAns, work = len(ans), s.DerivedFacts
		})
		t.AddRow(n, "magic sets", nAns, work, ms(d))

		d = timed(func() {
			ans, s, err := magic.AnswerSupplementary(p, edb, query, eval.Options{})
			if err != nil {
				panic(err)
			}
			nAns, work = len(ans), s.DerivedFacts
		})
		t.AddRow(n, "supplementary magic", nAns, work, ms(d))

		d = timed(func() {
			eng, err := topdown.New(p, edb)
			if err != nil {
				panic(err)
			}
			ans, s, err := eng.Query(query)
			if err != nil {
				panic(err)
			}
			nAns, work = len(ans), s.Answers
		})
		t.AddRow(n, "top-down tabled", nAns, work, ms(d))
	}
	return t
}

// E12Incremental measures insertion maintenance of a materialized view
// (Prepared.Materialize + Maintained.Apply) against full re-evaluation.
func E12Incremental() Table {
	t := Table{ID: "E12", Title: "incremental insertion maintenance vs full re-evaluation (extension)",
		Columns: []string{"base chain n", "insertion", "mode", "firings", "time"}}
	p := workload.TransitiveClosure()
	prep, err := eval.Prepare(p, eval.Options{})
	if err != nil {
		panic(err)
	}
	for _, n := range []int{32, 64} {
		base := workload.Chain("A", n)
		cases := []struct {
			name string
			fact ast.GroundAtom
		}{
			{"disconnected edge", ga("A", 500, 501)},
			{"chain extension", ga("A", int64(n+1), int64(n+2))},
			{"closing back-edge", ga("A", int64(n), 0)},
		}
		for _, c := range cases {
			view, _, err := prep.Materialize(context.Background(), base, eval.MaintainOptions{})
			if err != nil {
				panic(err)
			}
			var sInc eval.Stats
			dInc := timed(func() {
				_, s, err := view.Apply(context.Background(), eval.Delta{Assert: []ast.GroundAtom{c.fact}})
				if err != nil {
					panic(err)
				}
				sInc = s
			})
			t.AddRow(n, c.name, "incremental", sInc.Firings, ms(dInc))

			full := base.Clone()
			full.Add(c.fact)
			var sFull eval.Stats
			dFull := timed(func() {
				_, s, err := eval.Eval(p, full, eval.Options{})
				if err != nil {
					panic(err)
				}
				sFull = s
			})
			t.AddRow(n, c.name, "full re-eval", sFull.Firings, ms(dFull))
		}
	}
	return t
}

// E13EngineAblations profiles the evaluation-engine design choices on one
// reference workload (TC over a random digraph): compiled vs generic
// joins, SCC schedule, join reordering, and the sharded executor.
func E13EngineAblations() Table {
	t := Table{ID: "E13", Title: "evaluation-engine ablations (TC over random digraph n=60 m=120)",
		Columns: []string{"configuration", "firings", "facts out", "time"}}
	p := workload.TransitiveClosure()
	edb := workload.RandomDigraph("A", 60, 120, 7)
	run := func(name string, opts eval.Options) {
		var st eval.Stats
		var outLen int
		d := timed(func() {
			out, s, err := eval.Eval(p, edb, opts)
			if err != nil {
				panic(err)
			}
			st = s
			outLen = out.Len()
		})
		t.AddRow(name, st.Firings, outLen, ms(d))
	}
	run("default (compiled, SCC, reorder)", eval.Options{})
	run("generic matcher", eval.Options{NoCompile: true})
	run("no SCC schedule", eval.Options{NoSCCOrder: true})
	run("no join reorder", eval.Options{NoReorder: true})
	run("naive strategy", eval.Options{Strategy: eval.Naive})
	run("4 shards", eval.Options{Shards: 4})
	return t
}

// E14SIPS compares sideways-information-passing strategies on a rule body
// written with the intentional atom first — the order that starves the
// textbook left-to-right SIPS of bindings.
func E14SIPS() Table {
	t := Table{ID: "E14", Title: "SIPS strategies on an unfavourably ordered body (extension)",
		Columns: []string{"chain n", "SIPS", "answers", "derived facts", "time"}}
	p := parser.MustParseProgram(`
		Anc(x, y) :- Par(x, y).
		Anc(x, z) :- Anc(y, z), Par(x, y).
	`)
	for _, n := range []int{60, 120} {
		edb := workload.Chain("Par", n)
		query := ast.NewAtom("Anc", ast.IntTerm(int64(n-6)), ast.Var("y"))
		for _, strat := range []struct {
			name string
			s    magic.SIPS
		}{
			{"left-to-right", magic.LeftToRight},
			{"bound-first", magic.BoundFirst},
		} {
			var nAns, derived int
			d := timed(func() {
				ans, st, err := magic.AnswerWithOptions(p, edb, query, magic.Options{SIPS: strat.s}, eval.Options{})
				if err != nil {
					panic(err)
				}
				nAns, derived = len(ans), st.DerivedFacts
			})
			t.AddRow(n, strat.name, nAns, derived, ms(d))
		}
	}
	return t
}

// E15DerivationCounts renders the join-reduction claim in provenance
// terms: a redundant (uniformly removable) atom multiplies the number of
// rule instantiations justifying the same facts; minimization removes
// exactly that duplicate work while leaving the output unchanged.
func E15DerivationCounts() Table {
	t := Table{ID: "E15", Title: "justification counts before/after minimization (provenance view of Section V)",
		Columns: []string{"EDB", "facts out", "justifications bloated", "justifications minimized", "ratio"}}
	bloated := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), G(x, w).
	`)
	min, _, err := minimize.Program(bloated, minimize.Options{})
	if err != nil {
		panic(err)
	}
	edbs := []struct {
		name string
		d    *db.Database
	}{
		{"chain n=10", workload.Chain("A", 10)},
		{"tree f=2 d=4", workload.Tree("A", 2, 4)},
		{"random n=12 m=18", workload.RandomDigraph("A", 12, 18, 9)},
	}
	for _, e := range edbs {
		cpB, err := explain.NewCountingProver(bloated, e.d)
		if err != nil {
			panic(err)
		}
		cpM, err := explain.NewCountingProver(min, e.d)
		if err != nil {
			panic(err)
		}
		if !cpB.Output().Equal(cpM.Output()) {
			panic("programs diverge semantically")
		}
		jb, jm := cpB.TotalJustifications(), cpM.TotalJustifications()
		t.AddRow(e.name, cpB.Output().Len(), jb, jm, ratio(float64(jb), float64(jm)))
	}
	return t
}
