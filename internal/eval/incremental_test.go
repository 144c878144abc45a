package eval

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/workload"
)

// materialize prepares p under opts and materializes it over base as a
// maintained view.
func materialize(t testing.TB, p *ast.Program, base *db.Database, opts Options) *Maintained {
	t.Helper()
	prep, err := Prepare(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := prep.Materialize(context.Background(), base, MaintainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIncrementalEqualsFullReEval(t *testing.T) {
	p := workload.TransitiveClosure()
	base := workload.Chain("A", 10)
	m := materialize(t, p, base, Options{})
	// Insert a back edge closing the chain into a cycle.
	newFacts := []ast.GroundAtom{ga("A", 10, 0)}
	diff, incStats, err := m.Apply(context.Background(), Delta{Assert: newFacts})
	if err != nil {
		t.Fatal(err)
	}
	full := base.Clone()
	for _, f := range newFacts {
		full.Add(f)
	}
	want := MustEval(p, full)
	if !m.Output().Equal(want) {
		t.Fatalf("incremental %d facts, full %d facts", m.Output().Len(), want.Len())
	}
	if incStats.Added == 0 || len(diff.Added) == 0 {
		t.Fatal("no incremental derivations recorded")
	}
}

func TestIncrementalNoOp(t *testing.T) {
	p := workload.TransitiveClosure()
	base := workload.Chain("A", 5)
	m := materialize(t, p, base, Options{})
	before := m.Output()
	// Re-inserting existing facts derives nothing.
	diff, stats, err := m.Apply(context.Background(), Delta{Assert: []ast.GroundAtom{ga("A", 0, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Empty() || stats.Added != 0 || !m.Output().Equal(before) {
		t.Fatalf("no-op insertion changed the view: diff %+v, stats %+v", diff, stats)
	}
}

func TestIncrementalCheaperThanReEval(t *testing.T) {
	p := workload.TransitiveClosure()
	base := workload.Chain("A", 40)
	m := materialize(t, p, base, Options{})
	newFacts := []ast.GroundAtom{ga("A", 100, 101)} // disconnected edge
	_, incStats, err := m.Apply(context.Background(), Delta{Assert: newFacts})
	if err != nil {
		t.Fatal(err)
	}
	full := base.Clone()
	full.Add(newFacts[0])
	_, fullStats, err := Eval(p, full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if incStats.Firings >= fullStats.Firings {
		t.Fatalf("incremental fired %d >= full %d", incStats.Firings, fullStats.Firings)
	}
}

func TestQuickIncrementalAgreesWithFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		base := workload.RandomDB(rng, p, 4, 3)
		m := materialize(t, p, base, Options{})
		extra := workload.RandomDB(rng, p, 4, 2)
		if _, _, err := m.Apply(context.Background(), Delta{Assert: extra.Facts()}); err != nil {
			return false
		}
		full := base.Clone()
		full.AddAll(extra)
		want, _, err := Eval(p, full, Options{})
		if err != nil {
			return false
		}
		return m.Output().Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
