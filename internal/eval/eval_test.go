package eval

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/workload"
)

func ga(pred string, args ...int64) ast.GroundAtom {
	cs := make([]ast.Const, len(args))
	for i, a := range args {
		cs[i] = ast.Int(a)
	}
	return ast.GroundAtom{Pred: pred, Args: cs}
}

// tcProgram is Example 1.
func tcProgram() *ast.Program {
	return parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
}

func TestExample2(t *testing.T) {
	// EDB {A(1,2), A(1,4), A(4,1)}; the paper computes the output DB
	// {A(1,2), A(1,4), A(4,1), G(1,2), G(1,4), G(4,1), G(1,1), G(4,4), G(4,2)}.
	edb := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1)})
	out := MustEval(tcProgram(), edb)
	want := db.FromFacts([]ast.GroundAtom{
		ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1),
		ga("G", 1, 2), ga("G", 1, 4), ga("G", 4, 1),
		ga("G", 1, 1), ga("G", 4, 4), ga("G", 4, 2),
	})
	if !out.Equal(want) {
		t.Fatalf("Example 2 output:\n%v\nwant:\n%v", out, want)
	}
	// The input is untouched.
	if edb.Len() != 3 {
		t.Fatal("Eval mutated its input")
	}
}

func TestExample3UniformInput(t *testing.T) {
	// Input {A(1,2), A(1,4), G(4,1)}: output is Example 2's DB minus A(4,1).
	in := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("G", 4, 1)})
	out := MustEval(tcProgram(), in)
	want := db.FromFacts([]ast.GroundAtom{
		ga("A", 1, 2), ga("A", 1, 4),
		ga("G", 1, 2), ga("G", 1, 4), ga("G", 4, 1),
		ga("G", 1, 1), ga("G", 4, 4), ga("G", 4, 2),
	})
	if !out.Equal(want) {
		t.Fatalf("Example 3 output:\n%v\nwant:\n%v", out, want)
	}
}

func TestExample12NonRecursive(t *testing.T) {
	// d = {A(1,2), G(2,3), G(3,4)}: Pⁿ(d) = {G(1,2), G(2,4)}, while P(d)
	// additionally closes transitively.
	d := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("G", 2, 3), ga("G", 3, 4)})
	p := tcProgram()
	pn := NonRecursive(p, d)
	wantPn := db.FromFacts([]ast.GroundAtom{ga("G", 1, 2), ga("G", 2, 4)})
	if !pn.Equal(wantPn) {
		t.Fatalf("Pⁿ(d) = %v, want %v", pn, wantPn)
	}
	full := MustEval(p, d)
	wantFull := db.FromFacts([]ast.GroundAtom{
		ga("A", 1, 2), ga("G", 2, 3), ga("G", 3, 4),
		ga("G", 1, 2), ga("G", 1, 3), ga("G", 2, 4), ga("G", 1, 4),
	})
	if !full.Equal(wantFull) {
		t.Fatalf("P(d) = %v, want %v", full, wantFull)
	}
}

func TestExample17PreliminaryDB(t *testing.T) {
	p := tcProgram()
	edb := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 2, 3), ga("A", 3, 4)})
	prelim := PreliminaryDB(p, edb)
	want := db.FromFacts([]ast.GroundAtom{
		ga("A", 1, 2), ga("A", 2, 3), ga("A", 3, 4),
		ga("G", 1, 2), ga("G", 2, 3), ga("G", 3, 4),
	})
	if !prelim.Equal(want) {
		t.Fatalf("preliminary DB = %v, want %v", prelim, want)
	}
}

func TestInitRulesSelection(t *testing.T) {
	// A program whose second rule mentions an IDB predicate is not an
	// initialization rule; constants in init rules survive.
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z), C(z).
		G(x, z) :- A(x, y), G(y, z).
	`)
	edb := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("C", 2), ga("A", 2, 3)})
	prelim := PreliminaryDB(p, edb)
	if !prelim.Has(ga("G", 1, 2)) {
		t.Fatal("init rule did not fire")
	}
	if prelim.Has(ga("G", 1, 3)) {
		t.Fatal("recursive rule fired during preliminary DB construction")
	}
}

func TestNaiveEqualsSemiNaive(t *testing.T) {
	// Random digraphs: both strategies compute the same closure.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		edb := db.New()
		n := 2 + rng.Intn(8)
		for e := 0; e < n*2; e++ {
			edb.Add(ga("A", int64(rng.Intn(n)), int64(rng.Intn(n))))
		}
		sn, _, err := Eval(tcProgram(), edb, Options{Strategy: SemiNaive})
		if err != nil {
			t.Fatal(err)
		}
		nv, _, err := Eval(tcProgram(), edb, Options{Strategy: Naive})
		if err != nil {
			t.Fatal(err)
		}
		if !sn.Equal(nv) {
			t.Fatalf("trial %d: semi-naive %v != naive %v", trial, sn, nv)
		}
	}
}

func TestSemiNaiveFiringsNoWorse(t *testing.T) {
	// On a chain, semi-naive performs no more rule firings than naive.
	edb := db.New()
	for i := 0; i < 30; i++ {
		edb.Add(ga("A", int64(i), int64(i+1)))
	}
	_, sn, err := Eval(tcProgram(), edb, Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	_, nv, err := Eval(tcProgram(), edb, Options{Strategy: Naive})
	if err != nil {
		t.Fatal(err)
	}
	if sn.Firings > nv.Firings {
		t.Fatalf("semi-naive fired %d > naive %d", sn.Firings, nv.Firings)
	}
	if sn.Added != nv.Added {
		t.Fatalf("different fact counts: %d vs %d", sn.Added, nv.Added)
	}
}

func TestChainClosureSize(t *testing.T) {
	// Closure of an n-chain has n(n+1)/2 G-facts.
	for _, n := range []int{1, 2, 5, 17} {
		edb := db.New()
		for i := 0; i < n; i++ {
			edb.Add(ga("A", int64(i), int64(i+1)))
		}
		out := MustEval(tcProgram(), edb)
		gRel := out.Relation("G")
		want := n * (n + 1) / 2
		if gRel.Len() != want {
			t.Fatalf("n=%d: |G| = %d, want %d", n, gRel.Len(), want)
		}
	}
}

func TestConstantsInRules(t *testing.T) {
	// Example 4's P2 variant uses a constant in a rule head position match.
	p := parser.MustParseProgram(`G(x, 3) :- A(x, 3).`)
	edb := db.FromFacts([]ast.GroundAtom{ga("A", 1, 3), ga("A", 1, 2)})
	out := MustEval(p, edb)
	if !out.Has(ga("G", 1, 3)) || out.Has(ga("G", 1, 2)) {
		t.Fatalf("constant handling wrong: %v", out)
	}
}

func TestGroundFactRule(t *testing.T) {
	p := ast.NewProgram(ast.NewRule(ast.NewAtom("G", ast.IntTerm(7), ast.IntTerm(7))))
	out := MustEval(p, db.New())
	if !out.Has(ga("G", 7, 7)) || out.Len() != 1 {
		t.Fatalf("ground fact rule: %v", out)
	}
}

func TestBudgetExceeded(t *testing.T) {
	edb := db.New()
	for i := 0; i < 50; i++ {
		edb.Add(ga("A", int64(i), int64(i+1)))
	}
	_, _, err := Eval(tcProgram(), edb, Options{MaxDerived: 10})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestBudgetEnforcedWithinRound is the regression test for the budget
// overshoot bug: a single round deriving a large cross product used to be
// checked only after the round completed, so a chase embedding could blow
// far past MaxDerived before evaluation noticed. The budget is now enforced
// inside the emit path, so evaluation stops as soon as it is exhausted.
func TestBudgetEnforcedWithinRound(t *testing.T) {
	// P(x, y) :- A(x), A(y) derives n² facts in its first round.
	p := ast.NewProgram(ast.NewRule(
		ast.NewAtom("P", ast.Var("x"), ast.Var("y")),
		ast.NewAtom("A", ast.Var("x")),
		ast.NewAtom("A", ast.Var("y")),
	))
	edb := db.New()
	for i := 0; i < 100; i++ {
		edb.Add(ga("A", int64(i)))
	}
	const budget = 10
	_, stats, err := Eval(p, edb, Options{MaxDerived: budget})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// The round would derive 10000 facts; enforcement in the emit path must
	// stop at the first fact past the budget, not at the end of the round.
	if stats.Added > budget+1 {
		t.Fatalf("derived %d facts within the round, budget %d: overshoot not bounded", stats.Added, budget)
	}
	// Same enforcement through the generic (NoCompile) matcher.
	_, stats, err = Eval(p, edb, Options{MaxDerived: budget, NoCompile: true})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("NoCompile err = %v, want ErrBudget", err)
	}
	if stats.Added > budget+1 {
		t.Fatalf("NoCompile derived %d facts, budget %d", stats.Added, budget)
	}
}

// TestBudgetParallelStillErrs checks that the budget tripwire also fires on
// the parallel path (the check there counts tentative derivations, so it
// may stop slightly conservatively but must still return ErrBudget when the
// budget is genuinely exceeded).
func TestBudgetParallelStillErrs(t *testing.T) {
	p := ast.NewProgram(
		ast.NewRule(ast.NewAtom("P", ast.Var("x"), ast.Var("y")),
			ast.NewAtom("A", ast.Var("x")), ast.NewAtom("A", ast.Var("y"))),
		ast.NewRule(ast.NewAtom("Q", ast.Var("x"), ast.Var("y")),
			ast.NewAtom("A", ast.Var("x")), ast.NewAtom("A", ast.Var("y"))),
	)
	edb := db.New()
	for i := 0; i < 100; i++ {
		edb.Add(ga("A", int64(i)))
	}
	_, stats, err := Eval(p, edb, Options{MaxDerived: 10, Workers: 4})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if stats.Added > 20000 {
		t.Fatalf("parallel budget did not bound the round: %d facts", stats.Added)
	}
}

func TestIsModel(t *testing.T) {
	p := tcProgram()
	// The Example 2 output is a model; the bare EDB is not.
	edb := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1)})
	out := MustEval(p, edb)
	if !IsModel(p, out) {
		t.Fatal("P(d) is not a model")
	}
	if IsModel(p, edb) {
		t.Fatal("bare EDB reported as model")
	}
	// A non-minimal model is still a model: add an extra G fact and close.
	extra := out.Clone()
	extra.Add(ga("G", 9, 9))
	if !IsModel(p, extra) {
		t.Fatal("adding an isolated G fact broke modelhood")
	}
}

func TestOutputIsModelProperty(t *testing.T) {
	// P(d) is always a model of P and contains d (Van Emden–Kowalski).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		in := db.New()
		n := 2 + rng.Intn(6)
		for e := 0; e < n; e++ {
			in.Add(ga("A", int64(rng.Intn(n)), int64(rng.Intn(n))))
			if rng.Intn(2) == 0 {
				in.Add(ga("G", int64(rng.Intn(n)), int64(rng.Intn(n))))
			}
		}
		out := MustEval(tcProgram(), in)
		if !out.Contains(in) {
			t.Fatal("output does not contain input")
		}
		if !IsModel(tcProgram(), out) {
			t.Fatal("output is not a model")
		}
		// Idempotence: P(P(d)) = P(d).
		again := MustEval(tcProgram(), out)
		if !again.Equal(out) {
			t.Fatal("evaluation not idempotent")
		}
	}
}

func TestStratifiedNegation(t *testing.T) {
	p := parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Unreach(x) :- Node(x), !Reach(x).
	`)
	in := db.FromFacts([]ast.GroundAtom{
		ga("Src", 1),
		ga("E", 1, 2), ga("E", 2, 3), ga("E", 4, 5),
		ga("Node", 1), ga("Node", 2), ga("Node", 3), ga("Node", 4), ga("Node", 5),
	})
	out := MustEval(p, in)
	for _, n := range []int64{1, 2, 3} {
		if !out.Has(ga("Reach", n)) {
			t.Fatalf("Reach(%d) missing", n)
		}
		if out.Has(ga("Unreach", n)) {
			t.Fatalf("Unreach(%d) wrongly derived", n)
		}
	}
	for _, n := range []int64{4, 5} {
		if out.Has(ga("Reach", n)) {
			t.Fatalf("Reach(%d) wrongly derived", n)
		}
		if !out.Has(ga("Unreach", n)) {
			t.Fatalf("Unreach(%d) missing", n)
		}
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	p := parser.MustParseProgram(`
		P(x) :- A(x), !Q(x).
		Q(x) :- A(x), !P(x).
	`)
	_, _, err := Eval(p, db.FromFacts([]ast.GroundAtom{ga("A", 1)}), Options{})
	if err == nil {
		t.Fatal("unstratifiable program evaluated")
	}
}

func TestQuery(t *testing.T) {
	edb := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 2, 3)})
	tuples, err := Query(tcProgram(), edb, parser.MustParseAtom("G(1, y)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("query returned %d tuples: %v", len(tuples), tuples)
	}
	for _, tp := range tuples {
		if tp[0] != ast.Int(1) {
			t.Fatalf("query tuple %v does not match pattern", tp)
		}
	}
}

func TestNoReorderSameResult(t *testing.T) {
	p := parser.MustParseProgram(`
		T(x, z) :- A(x, y), B(y, z), C(z).
	`)
	in := db.FromFacts([]ast.GroundAtom{
		ga("A", 1, 2), ga("B", 2, 3), ga("C", 3), ga("B", 2, 4),
	})
	a, _, err := Eval(p, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Eval(p, in, Options{NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("reorder changed semantics: %v vs %v", a, b)
	}
	if !a.Has(ga("T", 1, 3)) || a.Has(ga("T", 1, 4)) {
		t.Fatalf("join result wrong: %v", a)
	}
}

func TestEvalRejectsInvalidProgram(t *testing.T) {
	bad := ast.NewProgram(ast.NewRule(
		ast.NewAtom("G", ast.Var("q")),
		ast.NewAtom("A", ast.Var("x")),
	))
	if _, _, err := Eval(bad, db.New(), Options{}); err == nil {
		t.Fatal("invalid program evaluated")
	}
}

func TestMutualRecursionEval(t *testing.T) {
	// Even/odd path lengths via mutual recursion.
	p := parser.MustParseProgram(`
		Even(x, y) :- E(x, y), E(y, z), Eq(z, z).
		Odd(x, y) :- E(x, y).
		Odd(x, z) :- Even2(x, y), E(y, z).
		Even2(x, z) :- Odd(x, y), E(y, z).
	`)
	in := db.FromFacts([]ast.GroundAtom{
		ga("E", 1, 2), ga("E", 2, 3), ga("E", 3, 4), ga("Eq", 0, 0),
	})
	out := MustEval(p, in)
	if !out.Has(ga("Odd", 1, 2)) || !out.Has(ga("Even2", 1, 3)) || !out.Has(ga("Odd", 1, 4)) {
		t.Fatalf("mutual recursion wrong: %v", out)
	}
	if out.Has(ga("Even2", 1, 2)) {
		t.Fatalf("spurious Even2(1,2): %v", out)
	}
}

func TestSCCOrderAgreesAndHelps(t *testing.T) {
	// A layered program: SCC ordering completes each layer before the next,
	// so the single-fixpoint schedule does strictly more delta work.
	p := parser.MustParseProgram(`
		P1(x, z) :- E(x, z).
		P2(x, z) :- P1(x, y), E(y, z).
		P3(x, z) :- P2(x, y), E(y, z).
		P3(x, z) :- P3(x, y), E(y, z).
	`)
	edb := db.New()
	for i := 0; i < 20; i++ {
		edb.Add(ga("E", int64(i), int64(i+1)))
	}
	withSCC, sccStats, err := Eval(p, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, flatStats, err := Eval(p, edb, Options{NoSCCOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !withSCC.Equal(without) {
		t.Fatal("SCC schedule changed semantics")
	}
	if sccStats.Firings > flatStats.Firings {
		t.Fatalf("SCC schedule fired more: %d > %d", sccStats.Firings, flatStats.Firings)
	}
}

func TestQuickSCCOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 4)
		a, _, err := Eval(p, d, Options{})
		if err != nil {
			return false
		}
		b, _, err := Eval(p, d, Options{NoSCCOrder: true})
		if err != nil {
			return false
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestZeroArityPredicates(t *testing.T) {
	// Zero-arity atoms flow through parsing-free construction, the
	// compiled evaluator, and the generic matcher identically (the magic
	// rewriting generates them for all-free queries).
	p := ast.NewProgram(
		ast.Rule{Head: ast.Atom{Pred: "Go"}, Body: []ast.Atom{{Pred: "Ready"}}},
		ast.NewRule(ast.NewAtom("Out", ast.Var("x")),
			ast.Atom{Pred: "Go"}, ast.NewAtom("In", ast.Var("x"))),
	)
	in := db.New()
	in.AddTuple("Ready", nil)
	in.AddTuple("In", []ast.Const{ast.Int(7)})
	for _, noCompile := range []bool{false, true} {
		out, _, err := Eval(p, in, Options{NoCompile: noCompile})
		if err != nil {
			t.Fatal(err)
		}
		if !out.HasTuple("Go", nil) || !out.Has(ga("Out", 7)) {
			t.Fatalf("noCompile=%v: %v", noCompile, out)
		}
	}
	// Without Ready, nothing fires.
	in2 := db.New()
	in2.AddTuple("In", []ast.Const{ast.Int(7)})
	out, _, err := Eval(p, in2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.HasTuple("Go", nil) || out.Has(ga("Out", 7)) {
		t.Fatalf("zero-arity guard ignored: %v", out)
	}
}

func TestRepeatedVariableInCompiledRule(t *testing.T) {
	// Self-loop detection exercises repeated-slot verification in the
	// compiled matcher.
	p := parser.MustParseProgram(`Loop(x) :- E(x, x).`)
	in := db.FromFacts([]ast.GroundAtom{ga("E", 1, 1), ga("E", 1, 2), ga("E", 3, 3)})
	for _, noCompile := range []bool{false, true} {
		out, _, err := Eval(p, in, Options{NoCompile: noCompile})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Has(ga("Loop", 1)) || !out.Has(ga("Loop", 3)) || out.Has(ga("Loop", 2)) {
			t.Fatalf("noCompile=%v: %v", noCompile, out)
		}
	}
}

func TestWideRuleManyFreshSlots(t *testing.T) {
	// A 10-ary atom with all-fresh variables stresses the compiled
	// matcher's slot-undo bookkeeping beyond its small-array fast path.
	args := make([]ast.Term, 10)
	for i := range args {
		args[i] = ast.Var(string(rune('a' + i)))
	}
	p := ast.NewProgram(ast.Rule{
		Head: ast.NewAtom("Out", args[0], args[9]),
		Body: []ast.Atom{{Pred: "Wide", Args: args}},
	})
	in := db.New()
	tuple := make([]ast.Const, 10)
	for i := range tuple {
		tuple[i] = ast.Int(int64(i))
	}
	in.AddTuple("Wide", tuple)
	out, _, err := Eval(p, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has(ga("Out", 0, 9)) {
		t.Fatalf("wide rule failed: %v", out)
	}
}
