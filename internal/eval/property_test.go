package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/workload"
)

// TestQuickMonotonicity checks the property the Section X argument leans
// on: "Datalog programs are monotonic — adding more atoms to the input
// does not remove any atom from the output."
func TestQuickMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		small := workload.RandomDB(rng, p, 4, 3)
		big := small.Clone()
		big.AddAll(workload.RandomDB(rng, p, 4, 3))

		outSmall, _, err := Eval(p, small, Options{})
		if err != nil {
			return false
		}
		outBig, _, err := Eval(p, big, Options{})
		if err != nil {
			return false
		}
		return outBig.Contains(outSmall)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNaiveEqualsSemiNaive checks strategy agreement on random
// programs and databases.
func TestQuickNaiveEqualsSemiNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 4)
		a, _, err := Eval(p, d, Options{Strategy: SemiNaive})
		if err != nil {
			return false
		}
		b, _, err := Eval(p, d, Options{Strategy: Naive})
		if err != nil {
			return false
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickOutputIsLeastModel checks the Van Emden–Kowalski
// characterization used in Section IV: P(d) is a model containing d, and
// idempotent.
func TestQuickOutputIsLeastModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 3)
		out, _, err := Eval(p, d, Options{})
		if err != nil {
			return false
		}
		if !out.Contains(d) || !IsModel(p, out) {
			return false
		}
		again, _, err := Eval(p, out, Options{})
		if err != nil {
			return false
		}
		return again.Equal(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNonRecursiveSubsetOfFull checks Pⁿ(d) ⊆ P(d) (Section IX
// conventions: Pⁿ omits d itself, P includes it).
func TestQuickNonRecursiveSubsetOfFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 3)
		pn := NonRecursive(p, d)
		full, _, err := Eval(p, d, Options{})
		if err != nil {
			return false
		}
		return full.Contains(pn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickPreliminaryBetweenInputAndOutput checks d ⊆ ⟨d, Pⁱ(d)⟩ ⊆ P(d),
// the sandwich the Section X argument needs from the preliminary DB.
func TestQuickPreliminaryBetweenInputAndOutput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 3)
		prelim := PreliminaryDB(p, d)
		full, _, err := Eval(p, d, Options{})
		if err != nil {
			return false
		}
		return prelim.Contains(d) && full.Contains(prelim)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickReorderInvariance checks the join-order heuristic never changes
// semantics.
func TestQuickReorderInvariance(t *testing.T) {
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
		b, _, err := Eval(p, d, Options{NoReorder: true})
		if err != nil {
			return false
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickCompiledEqualsGeneric cross-checks the slot-compiled evaluator
// against the generic binding-map path on random programs and databases,
// for both strategies.
func TestQuickCompiledEqualsGeneric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 4)
		for _, strat := range []Strategy{SemiNaive, Naive} {
			a, sa, err := Eval(p, d, Options{Strategy: strat})
			if err != nil {
				return false
			}
			b, sb, err := Eval(p, d, Options{Strategy: strat, NoCompile: true})
			if err != nil {
				return false
			}
			if !a.Equal(b) {
				return false
			}
			// The two paths do identical logical work.
			if sa.Firings != sb.Firings || sa.Added != sb.Added {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCompiledStratifiedNegation(t *testing.T) {
	p := parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Unreach(x) :- Node(x), !Reach(x).
	`)
	in := db.FromFacts([]ast.GroundAtom{
		ga("Src", 1), ga("E", 1, 2), ga("Node", 2), ga("Node", 5),
	})
	a, _, err := Eval(p, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Eval(p, in, Options{NoCompile: true})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("compiled negation differs:\n%s\nvs\n%s", a, b)
	}
}

// TestQuickParallelEqualsSequential cross-checks the concurrent (sharded,
// four goroutines) round executor against sequential evaluation on random
// programs, for both
// fixpoint strategies: the output databases AND the Added counts must be
// identical (run with -race in CI to catch data races — in-round index
// reads are lock-free and must stay correctly frozen at round boundaries).
func TestQuickParallelEqualsSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 4)
		for _, strat := range []Strategy{SemiNaive, Naive} {
			a, sa, err := Eval(p, d, Options{Strategy: strat})
			if err != nil {
				return false
			}
			b, sb, err := Eval(p, d, Options{Strategy: strat, Workers: 4, Shards: 4})
			if err != nil {
				return false
			}
			if !a.Equal(b) || sa.Added != sb.Added {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParallelStratifiedNegation(t *testing.T) {
	p := parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Unreach(x) :- Node(x), !Reach(x).
	`)
	in := db.FromFacts([]ast.GroundAtom{
		ga("Src", 1), ga("E", 1, 2), ga("E", 2, 3), ga("Node", 3), ga("Node", 7),
	})
	a, _, err := Eval(p, in, Options{Workers: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Eval(p, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("parallel stratified differs:\n%s\nvs\n%s", a, b)
	}
}
