// Benchmarks regenerating the experiment suite E1–E10 of DESIGN.md, one
// bench family per experiment, plus the ablation benches for the design
// choices DESIGN.md §5 calls out. Run with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/equivopt"
	"repro/internal/eval"
	"repro/internal/explain"
	"repro/internal/harness"
	"repro/internal/magic"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/preserve"
	"repro/internal/topdown"
	"repro/internal/workload"
)

// BenchmarkE1_WorkedExamples re-runs the complete worked-example regression
// of the paper (Examples 2–19).
func BenchmarkE1_WorkedExamples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.E1WorkedExamples()
		for _, row := range tab.Rows {
			if row[3] != "PASS" {
				b.Fatalf("%s failed", row[0])
			}
		}
	}
}

// BenchmarkE2_UniformContainment measures the Section VI decision procedure
// against growing layered programs.
func BenchmarkE2_UniformContainment(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 24} {
		p := workload.Layered(n)
		b.Run(fmt.Sprintf("layers-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, _, err := chase.UniformlyContains(p, p)
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

// BenchmarkE3_MinimizeRule measures Fig. 1 with k injected redundant atoms.
func BenchmarkE3_MinimizeRule(b *testing.B) {
	base := workload.TransitiveClosure().Rules[1]
	for _, k := range []int{0, 1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(k) + 1))
		r := workload.InjectRedundantAtoms(base, k, rng)
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, trace, err := minimize.Rule(r, minimize.Options{})
				if err != nil || trace.AtomsRemoved() != k {
					b.Fatal(trace.AtomsRemoved(), err)
				}
			}
		})
	}
}

// BenchmarkE4_MinimizeProgram measures Fig. 2 with injected redundant
// rules.
func BenchmarkE4_MinimizeProgram(b *testing.B) {
	for _, k := range []int{0, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(k) + 11))
		p := workload.InjectRedundantRules(workload.TransitiveClosure(), k, rng)
		b.Run(fmt.Sprintf("rules-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				min, _, err := minimize.Program(p, minimize.Options{})
				if err != nil || len(min.Rules) != 2 {
					b.Fatal(len(min.Rules), err)
				}
			}
		})
	}
}

// BenchmarkE5_EvalSpeedup compares evaluation of the bloated Example 11
// program against its fully optimized form.
func BenchmarkE5_EvalSpeedup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bloated := workload.TransitiveClosureGuarded()
	bloated = bloated.ReplaceRule(1, workload.InjectRedundantAtoms(bloated.Rules[1], 2, rng))
	min, _, err := minimize.Program(bloated, minimize.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opt, _, err := equivopt.Optimize(min, equivopt.Options{})
	if err != nil {
		b.Fatal(err)
	}
	edbs := map[string]*db.Database{
		"chain-48":  workload.Chain("A", 48),
		"random-60": workload.RandomDigraph("A", 60, 120, 7),
		"grid-8x8":  workload.Grid("A", 8, 8),
	}
	for name, edb := range edbs {
		b.Run("bloated/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(bloated, edb, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("optimized/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(opt, edb, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6_NaiveVsSemiNaive compares the two fixpoint strategies.
func BenchmarkE6_NaiveVsSemiNaive(b *testing.B) {
	p := workload.TransitiveClosure()
	for _, n := range []int{16, 32, 64} {
		edb := workload.Chain("A", n)
		b.Run(fmt.Sprintf("naive/chain-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(p, edb, eval.Options{Strategy: eval.Naive}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("seminaive/chain-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(p, edb, eval.Options{Strategy: eval.SemiNaive}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7_EquivOpt measures the full Sections X–XI pipeline.
func BenchmarkE7_EquivOpt(b *testing.B) {
	cases := map[string]*ast.Program{
		"ex11": workload.TransitiveClosureGuarded(),
		"ex19": workload.Example19Program(),
	}
	for name, p := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, removals, err := equivopt.Optimize(p, equivopt.Options{})
				if err != nil || len(removals) == 0 {
					b.Fatal(len(removals), err)
				}
			}
		})
	}
}

// BenchmarkE8_MagicComposition measures query answering: direct, magic, and
// magic over the minimized program.
func BenchmarkE8_MagicComposition(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	p := workload.Ancestor()
	bloated := p.ReplaceRule(1, workload.InjectRedundantAtoms(p.Rules[1], 2, rng))
	minimized, _, err := minimize.Program(bloated, minimize.Options{})
	if err != nil {
		b.Fatal(err)
	}
	edb := workload.Chain("Par", 128)
	query := ast.NewAtom("Anc", ast.IntTerm(122), ast.Var("y"))

	b.Run("direct-bloated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.DirectAnswer(bloated, edb, query, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("magic-bloated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.Answer(bloated, edb, query, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("magic-minimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.Answer(minimized, edb, query, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9_EmbeddedChase measures the budgeted chase on the diverging
// embedded-tgd instance.
func BenchmarkE9_EmbeddedChase(b *testing.B) {
	p := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	T := []ast.TGD{parser.MustParseTGD("A(x, y) -> A(y, w).")}
	r := parser.MustParseProgram(`Q(x) :- A(x, y), Z(x).`).Rules[0]
	for _, budget := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("budget-%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := chase.SATContainsRule(p, T, r, chase.Budget{MaxAtoms: budget, MaxRounds: budget})
				if err != nil || v != chase.Unknown {
					b.Fatal(v, err)
				}
			}
		})
	}
}

// BenchmarkE10_CQAblation compares the CQ homomorphism fast path against
// the frozen-body chase on non-recursive containment.
func BenchmarkE10_CQAblation(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(k)))
		r1 := randomCQRule(rng, k)
		r2 := randomCQRule(rng, k)
		q1, _ := cq.FromRule(r1)
		q2, _ := cq.FromRule(r2)
		b.Run(fmt.Sprintf("cq/k-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cq.Contained(q1, q2)
			}
		})
		b.Run(fmt.Sprintf("chase/k-%d", k), func(b *testing.B) {
			p := ast.NewProgram(r2)
			for i := 0; i < b.N; i++ {
				if _, err := chase.UniformlyContainsRule(p, r1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_DeletionOrder measures Fig. 2 under source order vs
// shuffled consideration order (the paper: results may differ; cost may
// too).
func BenchmarkAblation_DeletionOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	p := workload.InjectRedundantRules(workload.TransitiveClosure(), 4, rng)
	p = workload.InjectRedundantAtomsProgram(p, 2, rng)
	b.Run("source-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := minimize.Program(p, minimize.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shuffled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shuffleRng := rand.New(rand.NewSource(int64(i)))
			if _, _, err := minimize.Program(p, minimize.Options{Rand: shuffleRng}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_JoinReorder measures the greedy join-order heuristic.
func BenchmarkAblation_JoinReorder(b *testing.B) {
	// A body written in a deliberately bad order: the selective atom last.
	p := parser.MustParseProgram(`
		T(x, w) :- A(x, y), B(y, z), C(z, w), S(x).
	`)
	edb := db.New()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		edb.Add(ast.GroundAtom{Pred: "A", Args: []ast.Const{ast.Int(int64(rng.Intn(40))), ast.Int(int64(rng.Intn(40)))}})
		edb.Add(ast.GroundAtom{Pred: "B", Args: []ast.Const{ast.Int(int64(rng.Intn(40))), ast.Int(int64(rng.Intn(40)))}})
		edb.Add(ast.GroundAtom{Pred: "C", Args: []ast.Const{ast.Int(int64(rng.Intn(40))), ast.Int(int64(rng.Intn(40)))}})
	}
	edb.Add(ast.GroundAtom{Pred: "S", Args: []ast.Const{ast.Int(1)}})
	for _, noReorder := range []bool{false, true} {
		name := "reorder-on"
		if noReorder {
			name = "reorder-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(p, edb, eval.Options{NoReorder: noReorder}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// randomCQRule mirrors the harness generator for E10.
func randomCQRule(rng *rand.Rand, k int) ast.Rule {
	vars := []string{"x", "y", "z", "u", "v", "w"}
	preds := []string{"A", "B"}
	body := make([]ast.Atom, k)
	for i := range body {
		body[i] = ast.NewAtom(preds[rng.Intn(len(preds))],
			ast.Var(vars[rng.Intn(len(vars))]),
			ast.Var(vars[rng.Intn(len(vars))]))
	}
	return ast.NewRule(ast.NewAtom("Q", body[0].Args[0]), body...)
}

// BenchmarkAblation_SupplementaryMagic compares the basic and supplementary
// magic rewritings on a long-bodied recursive rule, where supplementary
// predicates avoid recomputing shared body prefixes.
func BenchmarkAblation_SupplementaryMagic(b *testing.B) {
	p := parser.MustParseProgram(`
		P(x, z) :- E(x, z).
		P(x, z) :- P(x, a), E(a, b), E(b, c), E(c, d), P(d, z).
	`)
	edb := workload.Chain("E", 48)
	query := parser.MustParseAtom("P(0, y)")
	b.Run("basic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.Answer(p, edb, query, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("supplementary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.AnswerSupplementary(p, edb, query, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_PrelimDepth measures the cost of probing deeper
// preliminary DBs in the Section X pipeline.
func BenchmarkAblation_PrelimDepth(b *testing.B) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		H(x) :- G(x, y).
		R(x, z) :- A(x, q), B(x, z).
		R(x, z) :- R(x, y), B(y, z), H(x).
	`)
	for _, depth := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := equivopt.Optimize(p, equivopt.Options{PrelimDepth: depth}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExplainProver measures provenance-tracking evaluation against
// plain evaluation.
func BenchmarkExplainProver(b *testing.B) {
	p := workload.TransitiveClosure()
	edb := workload.Chain("A", 32)
	b.Run("plain-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.Eval(p, edb, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := explain.NewProver(p, edb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngines compares the four query-answering strategies on a bound
// ancestor query: full bottom-up + filter, basic magic, supplementary
// magic, and tabled top-down.
func BenchmarkEngines(b *testing.B) {
	p := workload.Ancestor()
	edb := workload.Chain("Par", 96)
	query := ast.NewAtom("Anc", ast.IntTerm(90), ast.Var("y"))
	b.Run("bottom-up-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.DirectAnswer(p, edb, query, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("magic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.Answer(p, edb, query, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("supplementary-magic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.AnswerSupplementary(p, edb, query, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topdown-tabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := topdown.New(p, edb)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := eng.Query(query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalVsReEval measures maintenance of a materialized view
// against full re-evaluation on a chain closure. One maintained iteration
// asserts a fact and retracts it again, so the view returns to its starting
// state every iteration.
func BenchmarkIncrementalVsReEval(b *testing.B) {
	p := workload.TransitiveClosure()
	base := workload.Chain("A", 48)
	newFact := ast.GroundAtom{Pred: "A", Args: []ast.Const{ast.Int(200), ast.Int(201)}}
	b.Run("assert-retract", func(b *testing.B) {
		prep, err := eval.Prepare(p, eval.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		view, _, err := prep.Materialize(ctx, base, eval.MaintainOptions{})
		if err != nil {
			b.Fatal(err)
		}
		assert := eval.Delta{Assert: []ast.GroundAtom{newFact}}
		retract := eval.Delta{Retract: []ast.GroundAtom{newFact}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := view.Apply(ctx, assert); err != nil {
				b.Fatal(err)
			}
			if _, _, err := view.Apply(ctx, retract); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-re-eval", func(b *testing.B) {
		full := base.Clone()
		full.Add(newFact)
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.Eval(p, full, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_IncrementalChurn measures fact-level maintenance
// (counting + DRed through eval.Maintained.Apply) against full re-evaluation
// on an authz-shaped workload: a recursive group-membership hierarchy feeding
// role grants and document ACLs, churned by small mixed assert/retract
// batches (a user leaves one group, another joins). The maintained arm
// materializes once and applies per-batch deltas; the re-eval arm recomputes
// the whole fixpoint per batch.
func BenchmarkAblation_IncrementalChurn(b *testing.B) {
	p := parser.MustParseProgram(`
		Member(u, g) :- Direct(u, g).
		Member(u, g) :- Member(u, h), Subgroup(h, g).
		HasRole(u, r) :- Member(u, g), Grant(g, r).
		CanRead(u, d) :- HasRole(u, r), Allows(r, d).
	`)
	const users, groups, roles, docs = 2000, 48, 3, 8
	group := func(g int) ast.Const { return ast.Int(int64(1000 + g)) }
	role := func(r int) ast.Const { return ast.Int(int64(2000 + r)) }
	doc := func(d int) ast.Const { return ast.Int(int64(3000 + d)) }
	var facts []ast.GroundAtom
	for u := 0; u < users; u++ {
		facts = append(facts, ast.GroundAtom{Pred: "Direct", Args: []ast.Const{ast.Int(int64(u)), group(u % groups)}})
	}
	for g := 0; g < groups-1; g++ {
		facts = append(facts, ast.GroundAtom{Pred: "Subgroup", Args: []ast.Const{group(g), group(g + 1)}})
	}
	for r := 0; r < roles; r++ {
		facts = append(facts, ast.GroundAtom{Pred: "Grant", Args: []ast.Const{group(groups - 1), role(r)}})
		for d := 0; d < docs; d++ {
			facts = append(facts, ast.GroundAtom{Pred: "Allows", Args: []ast.Const{role(r), doc(d)}})
		}
	}
	// The churn batch: user 7 leaves its group while a brand-new user joins
	// group 0; the inverse batch restores the base state, so alternating the
	// two keeps every iteration's work identical.
	leave := ast.GroundAtom{Pred: "Direct", Args: []ast.Const{ast.Int(7), group(7 % groups)}}
	join := ast.GroundAtom{Pred: "Direct", Args: []ast.Const{ast.Int(users), group(0)}}
	forward := eval.Delta{Assert: []ast.GroundAtom{join}, Retract: []ast.GroundAtom{leave}}
	backward := eval.Delta{Assert: []ast.GroundAtom{leave}, Retract: []ast.GroundAtom{join}}

	pr, err := eval.Prepare(p, eval.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("maintained", func(b *testing.B) {
		m, _, err := pr.Materialize(context.Background(), db.FromFacts(facts), eval.MaintainOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := forward
			if i%2 == 1 {
				d = backward
			}
			if _, _, err := m.Apply(context.Background(), d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-re-eval", func(b *testing.B) {
		base := db.FromFacts(facts)
		churned := db.FromFacts(append(append([]ast.GroundAtom(nil), facts...), join))
		churned.Remove(leave)
		churned.Compact()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := churned
			if i%2 == 1 {
				in = base
			}
			if _, _, err := pr.Eval(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_SCCOrder measures the SCC-ordered schedule against a
// single global fixpoint on a layered program.
func BenchmarkAblation_SCCOrder(b *testing.B) {
	p := workload.Layered(12)
	edb := workload.Chain("E", 40)
	b.Run("scc-ordered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.Eval(p, edb, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-fixpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.Eval(p, edb, eval.Options{NoSCCOrder: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_CompiledEval measures the slot-compiled rule evaluator
// against the generic binding-map matcher.
func BenchmarkAblation_CompiledEval(b *testing.B) {
	p := workload.TransitiveClosure()
	edb := workload.RandomDigraph("A", 60, 120, 7)
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.Eval(p, edb, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.Eval(p, edb, eval.Options{NoCompile: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_ShardedEval measures the sharded round executor against
// the unsharded kernel at shard counts 1/2/4/8. Arms:
//
//   - large-tc: right-linear transitive closure (the paper's Example 4) of a
//     large sparse random digraph — a deep recursion (~90 rounds) whose
//     per-round deltas the sharded executor enumerates delta-first over the
//     partition slices, where the sequential plan order rescans the outer
//     relation against the delta window every round. This is the arm the
//     sharded kernel targets.
//   - dense-tc: doubled-rule transitive closure of a dense random digraph —
//     duplicate-dominated (~159 re-derivations per committed fact), so both
//     executors are bound by the same dedup probes; sharding is expected to
//     roughly break even here, and the arm exists to keep that honest.
//   - wide-join: a wide materialized non-recursive join (NoStream forces the
//     materializing kernel the shards split).
//
// Workers tracks the shard count so multicore machines overlap the shard
// tasks; the single-core win comes from the sharded kernel itself.
func BenchmarkAblation_ShardedEval(b *testing.B) {
	rltc := workload.TransitiveClosureLinear()
	rltcEDB := workload.RandomDigraph("A", 10000, 10500, 7)
	tc := workload.TransitiveClosure()
	tcEDB := workload.RandomDigraph("A", 220, 500, 7)
	join := parser.MustParseProgram(`
		T(x, w) :- A(x, y), B(y, z), C(z, w), S(x).
	`)
	joinEDB := db.New()
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 900; i++ {
		joinEDB.Add(ast.GroundAtom{Pred: "A", Args: []ast.Const{ast.Int(int64(rng.Intn(60))), ast.Int(int64(rng.Intn(60)))}})
		joinEDB.Add(ast.GroundAtom{Pred: "B", Args: []ast.Const{ast.Int(int64(rng.Intn(60))), ast.Int(int64(rng.Intn(60)))}})
		joinEDB.Add(ast.GroundAtom{Pred: "C", Args: []ast.Const{ast.Int(int64(rng.Intn(60))), ast.Int(int64(rng.Intn(60)))}})
	}
	for i := int64(0); i < 12; i++ {
		joinEDB.Add(ast.GroundAtom{Pred: "S", Args: []ast.Const{ast.Int(i)}})
	}
	for _, shards := range []int{1, 2, 4, 8} {
		opts := eval.Options{Shards: shards, Workers: shards}
		b.Run(fmt.Sprintf("large-tc/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(rltc, rltcEDB, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("dense-tc/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(tc, tcEDB, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("wide-join/shards=%d", shards), func(b *testing.B) {
			joinOpts := opts
			joinOpts.NoStream = true
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(join, joinEDB, joinOpts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// layeredUnfolding returns the full unfolding of workload.Layered(n)'s top
// predicate down to the EDB: Pn(x0, xn) :- E(x0, x1), ..., E(xn-1, xn).
// Its frozen body is a pure-EDB chain, so goal-directed evaluation of the
// layered program over it is the archetypal frozen-body containment query.
func layeredUnfolding(n int) ast.Rule {
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

// BenchmarkAblation_StreamingEval measures the streaming operator pipeline
// against the materializing kernel on its two target workloads: a wide
// non-recursive join (one stratum, four body atoms) and a goal-directed
// frozen-body containment query (many single-rule strata, emit-path early
// stop). Both programs are non-recursive, so the planner streams them by
// default; NoStream forces the delta-window materializing kernel.
func BenchmarkAblation_StreamingEval(b *testing.B) {
	join := parser.MustParseProgram(`
		T(x, w) :- A(x, y), B(y, z), C(z, w), S(x).
	`)
	joinEDB := db.New()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 600; i++ {
		joinEDB.Add(ast.GroundAtom{Pred: "A", Args: []ast.Const{ast.Int(int64(rng.Intn(50))), ast.Int(int64(rng.Intn(50)))}})
		joinEDB.Add(ast.GroundAtom{Pred: "B", Args: []ast.Const{ast.Int(int64(rng.Intn(50))), ast.Int(int64(rng.Intn(50)))}})
		joinEDB.Add(ast.GroundAtom{Pred: "C", Args: []ast.Const{ast.Int(int64(rng.Intn(50))), ast.Int(int64(rng.Intn(50)))}})
	}
	for i := int64(0); i < 10; i++ {
		joinEDB.Add(ast.GroundAtom{Pred: "S", Args: []ast.Const{ast.Int(i)}})
	}
	layered := workload.Layered(12)
	goal, frozen := chase.FreezeRule(layeredUnfolding(12))
	for _, noStream := range []bool{false, true} {
		name := "stream"
		if noStream {
			name = "materialize"
		}
		b.Run("wide-join/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(join, joinEDB, eval.Options{NoStream: noStream}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("containment-goal/"+name, func(b *testing.B) {
			pr, err := eval.Prepare(layered, eval.Options{NoStream: noStream})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			// EvalGoalProv is what chase.Checker.ContainsRule issues per
			// verdict: goal-directed, budget-free, provenance-recording.
			for i := 0; i < b.N; i++ {
				var prov eval.RuleSet
				_, reached, _, err := pr.EvalGoalProv(frozen, &goal, 0, &prov)
				if err != nil || !reached {
					b.Fatal(reached, err)
				}
			}
		})
	}
}

// BenchmarkStorageKernel measures the db storage layer directly: the
// insert/dedup path (arena append + open-addressing table) and the
// index-probe path (hash probe + chain walk), the two operations every
// fixpoint round multiplies. Both must stay allocation-free per operation.
func BenchmarkStorageKernel(b *testing.B) {
	const n = 10000
	mkDB := func() *db.Database {
		d := db.New()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < n; i++ {
			d.AddTuple("R", []ast.Const{ast.Int(int64(rng.Intn(500))), ast.Int(int64(rng.Intn(500)))})
		}
		return d
	}
	b.Run("insert-dedup", func(b *testing.B) {
		args := []ast.Const{0, 0}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := db.New()
			rng := rand.New(rand.NewSource(3))
			b.StartTimer()
			for j := 0; j < n; j++ {
				args[0], args[1] = ast.Int(int64(rng.Intn(500))), ast.Int(int64(rng.Intn(500)))
				d.AddTuple("R", args)
			}
		}
	})
	b.Run("probe-hit", func(b *testing.B) {
		d := mkDB()
		rel := d.Relation("R")
		d.EnsureIndex("R", []int{0})
		cols := []int{0}
		key := []ast.Const{0}
		b.ResetTimer()
		var total int
		for i := 0; i < b.N; i++ {
			key[0] = ast.Int(int64(i % 500))
			it := rel.ProbeIter(cols, key, d.Round())
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				total++
			}
		}
		_ = total
	})
	b.Run("lookup-full", func(b *testing.B) {
		d := mkDB()
		rel := d.Relation("R")
		rng := rand.New(rand.NewSource(4))
		key := []ast.Const{0, 0}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key[0], key[1] = ast.Int(int64(rng.Intn(500))), ast.Int(int64(rng.Intn(500)))
			rel.LookupID(key)
		}
	})
}

// BenchmarkStratifiedMagic measures the stratified magic pipeline against
// plain bottom-up evaluation on a dead-code-detection query.
func BenchmarkStratifiedMagic(b *testing.B) {
	p := parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Dead(x) :- Node(x), !Reach(x).
	`)
	edb := workload.Chain("E", 64)
	edb.Add(ast.GroundAtom{Pred: "Src", Args: []ast.Const{ast.Int(0)}})
	for i := int64(0); i <= 64; i++ {
		edb.Add(ast.GroundAtom{Pred: "Node", Args: []ast.Const{ast.Int(i)}})
	}
	// The query is all-free, so magic cannot prune: this bench records the
	// OVERHEAD of the stratified pipeline (materialization + rewriting)
	// relative to plain bottom-up — the price of uniformity, not a win.
	q := ast.NewAtom("Dead", ast.Var("x"))
	b.Run("stratified-magic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.AnswerStratified(p, edb, q, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bottom-up", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.DirectAnswer(p, edb, q, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_PreserveDerive measures the tentpole of the preservation
// layer: carrying a warmed session (per-depth unfoldings, combination
// options, prepared plans) across an accepted one-rule weakening via
// Session.Derive, against rebuilding the session from scratch, with the same
// depth-3 probes answered afterwards in both arms. Prepared plans are served
// from a shared cache in both arms; the gap is the re-unfolding and option
// rebuilding that Derive patches instead.
func BenchmarkAblation_PreserveDerive(b *testing.B) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z), B(z, z).
		G(x, z) :- G(x, y), G(y, z).
		H(x, z) :- G(x, z), B(x, z).
		H(x, z) :- H(x, y), A(y, z).
	`)
	const ruleIdx = 2
	nr := p.Rules[ruleIdx].WithoutBodyAtom(1) // H(x, z) :- G(x, z).
	// The probe tgd is extensional-only, so its combination walk is trivial:
	// each arm's cost is dominated by building the depth-3 session state the
	// probe forces (unfoldings, prepared plans, option tables), which is
	// exactly what Derive patches and a fresh session recomputes.
	tgds := []ast.TGD{parser.MustParseTGD("A(x, y) -> B(x, w).")}
	probe := func(b *testing.B, s *preserve.Session) {
		opts := preserve.Options{Depth: 3, Budget: chase.Budget{MaxAtoms: 200, MaxRounds: 6}}
		if _, _, err := s.Check(tgds, opts); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.CheckPreliminary(tgds, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("derive", func(b *testing.B) {
		base, err := preserve.NewSessionCache(p, eval.NewPlanCache(0))
		if err != nil {
			b.Fatal(err)
		}
		probe(b, base) // warm the depth entries Derive patches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ns, err := base.Derive(ruleIdx, &nr)
			if err != nil {
				b.Fatal(err)
			}
			probe(b, ns)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		cache := eval.NewPlanCache(0)
		base, err := preserve.NewSessionCache(p, cache)
		if err != nil {
			b.Fatal(err)
		}
		probe(b, base)
		np := p.ReplaceRule(ruleIdx, nr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ns, err := preserve.NewSessionCache(np, cache)
			if err != nil {
				b.Fatal(err)
			}
			probe(b, ns)
		}
	})
}

// BenchmarkServiceWarmVsCold measures what the session layer buys a long-
// running server: "warm" reuses one core.Session whose plan was prepared
// once, "cold" rebuilds a session with an isolated plan cache on every
// request — the per-request cost an unsessioned server would pay. The
// program is prepare-heavy (a wide layered rule set) over a small EDB, the
// shape where session reuse matters most.
func BenchmarkServiceWarmVsCold(b *testing.B) {
	var src strings.Builder
	src.WriteString("T0(x, y) :- E(x, y).\n")
	for i := 1; i <= 24; i++ {
		fmt.Fprintf(&src, "T%d(x, z) :- T%d(x, y), T%d(y, z).\n", i, i-1, i-1)
		fmt.Fprintf(&src, "S%d(x, y) :- T%d(x, y), E(y, y).\n", i, i)
	}
	prog, err := core.ParseProgram(src.String())
	if err != nil {
		b.Fatal(err)
	}
	edb := workload.Chain("E", 8)
	ctx := context.Background()

	b.Run("warm", func(b *testing.B) {
		sess, err := core.NewSession(prog, core.SessionOptions{PlanCache: core.NewPlanCache(4)})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sess.Eval(ctx, edb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess, err := core.NewSession(prog, core.SessionOptions{PlanCache: core.NewPlanCache(4)})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := sess.Eval(ctx, edb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_TerminationFastPath measures what the termination
// classifier buys the chase on a full (existential-free) tgd set: the
// classified arm collapses the rule/tgd round alternation into one prepared
// fixpoint, while the raw-budget arm (classification disabled) replays the
// staged pipeline round by round under the default budget.
func BenchmarkAblation_TerminationFastPath(b *testing.B) {
	const stages = 6
	p := parser.MustParseProgram(fmt.Sprintf(`T(x, z) :- S%d(x, y), S%d(y, z).`, stages, stages))
	var tgds []ast.TGD
	for i := 0; i < stages; i++ {
		tgds = append(tgds, parser.MustParseTGD(fmt.Sprintf("S%d(x, y) -> S%d(x, y).", i, i+1)))
	}
	rng := rand.New(rand.NewSource(11))
	base := db.New()
	for i := 0; i < 400; i++ {
		base.Add(ast.GroundAtom{Pred: "S0", Args: []ast.Const{
			ast.Int(int64(rng.Intn(80))), ast.Int(int64(rng.Intn(80)))}})
	}
	snap := base.Freeze()

	run := func(b *testing.B, c *chase.Checker) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := c.Apply(tgds, snap.Thaw(), chase.Budget{})
			if err != nil || !res.Complete {
				b.Fatalf("chase: complete=%v err=%v", res.Complete, err)
			}
		}
	}
	b.Run("classified", func(b *testing.B) {
		c, err := chase.NewChecker(p)
		if err != nil {
			b.Fatal(err)
		}
		run(b, c)
	})
	b.Run("raw-budget", func(b *testing.B) {
		c, err := chase.NewChecker(p)
		if err != nil {
			b.Fatal(err)
		}
		c.DisableTerminationAnalysis()
		run(b, c)
	})
}
