package eval

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/workload"
)

// The sharded executor's acceptance property: for every program, strategy
// and worker count, the output database is byte-identical (same facts in the
// same insertion order, which db.String exposes) across shard counts —
// including goal early-stop partial databases and budget-exhausted runs.

var shardGrid = []int{1, 2, 4, 8}

// MustEval2 evaluates under explicit options and returns the dump, failing
// the test on error.
func MustEval2(t *testing.T, p *ast.Program, input *db.Database, o Options) string {
	t.Helper()
	out, _, err := Eval(p, input, o)
	if err != nil {
		t.Fatalf("%+v: %v", o, err)
	}
	return out.String()
}

func TestShardedByteIdentity(t *testing.T) {
	workers := []int{1, 8}
	strategies := []Strategy{SemiNaive, Naive}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		input := workload.RandomDB(rng, p, 4, 4)
		for _, strat := range strategies {
			var want string
			first := true
			for _, w := range workers {
				for _, s := range shardGrid {
					prep, err := Prepare(p, Options{Strategy: strat, Workers: w, Shards: s})
					if err != nil {
						t.Fatalf("seed %d: prepare shards=%d: %v", seed, s, err)
					}
					out, _, err := prep.Eval(input)
					if err != nil {
						t.Fatalf("seed %d strat=%v workers=%d shards=%d: %v", seed, strat, w, s, err)
					}
					dump := out.String()
					if first {
						want, first = dump, false
						continue
					}
					if dump != want {
						t.Fatalf("seed %d strat=%v workers=%d shards=%d: database differs from shards=1\ngot:\n%s\nwant:\n%s\nprogram:\n%s",
							seed, strat, w, s, dump, want, p)
					}
				}
			}
		}
	}
}

func TestShardedTransitiveClosureIdentity(t *testing.T) {
	p := workload.TransitiveClosure()
	input := workload.RandomDigraph("A", 60, 150, 3)
	want := MustEval(p, input).String()
	for _, w := range []int{1, 8} {
		for _, s := range shardGrid {
			prep, err := Prepare(p, Options{Workers: w, Shards: s})
			if err != nil {
				t.Fatal(err)
			}
			out, stats, err := prep.Eval(input)
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", w, s, err)
			}
			if out.String() != want {
				t.Fatalf("workers=%d shards=%d: output differs from unsharded", w, s)
			}
			if s > 1 {
				if stats.ShardRounds == 0 {
					t.Fatalf("workers=%d shards=%d: sharded executor did not engage", w, s)
				}
				if stats.ShardRounds%s != 0 {
					t.Fatalf("shards=%d: ShardRounds=%d not a multiple of the shard count", s, stats.ShardRounds)
				}
			}
		}
	}
}

// TestShardedGoalPrefixCut extends the prefix-cut determinism property to
// the sharded merge: a goal-directed run halts on a byte-identical partial
// database for every (workers, shards) point. Goals are drawn from
// mid-evaluation derivations so the cut fires inside rounds.
func TestShardedGoalPrefixCut(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		input := workload.RandomDB(rng, p, 4, 4)
		full, _, err := Eval(p, input, Options{})
		if err != nil {
			continue
		}
		var goals []ast.GroundAtom
		for _, f := range full.Facts() {
			if !input.Has(f) {
				goals = append(goals, f)
			}
		}
		rng.Shuffle(len(goals), func(i, j int) { goals[i], goals[j] = goals[j], goals[i] })
		if len(goals) > 3 {
			goals = goals[:3]
		}
		goals = append(goals, ast.NewGroundAtom("P", ast.Int(9000), ast.Int(9000)))

		for gi := range goals {
			goal := goals[gi]
			var wantDump string
			var wantReached bool
			first := true
			for _, w := range []int{1, 8} {
				for _, s := range shardGrid {
					prep, err := Prepare(p, Options{Workers: w, Shards: s})
					if err != nil {
						t.Fatalf("seed %d: prepare: %v", seed, err)
					}
					out, reached, _, err := prep.EvalGoal(input, &goal, 0)
					if err != nil {
						t.Fatalf("seed %d goal %v workers=%d shards=%d: %v", seed, goal, w, s, err)
					}
					dump := out.String()
					if first {
						wantDump, wantReached, first = dump, reached, false
						continue
					}
					if reached != wantReached {
						t.Fatalf("seed %d goal %v: workers=%d shards=%d reached=%v, want %v",
							seed, goal, w, s, reached, wantReached)
					}
					if dump != wantDump {
						t.Fatalf("seed %d goal %v: workers=%d shards=%d partial database differs\ngot:\n%s\nwant:\n%s\nprogram:\n%s",
							seed, goal, w, s, dump, wantDump, p)
					}
				}
			}
		}
	}
}

// TestShardedBudgetConsistency: budget exhaustion is decided identically at
// every grid point — every configuration either completes or fails with
// ErrBudget, in agreement with the sequential baseline. (The partial
// database of a budget-failed run is not an API observable: run returns a
// nil database alongside the error.)
func TestShardedBudgetConsistency(t *testing.T) {
	p := workload.TransitiveClosure()
	input := workload.Chain("A", 30)
	for _, budget := range []int{1, 25, 1000} {
		_, _, err := Eval(p, input, Options{MaxDerived: budget})
		wantBudget := errors.Is(err, ErrBudget)
		if err != nil && !wantBudget {
			t.Fatalf("budget=%d: unexpected baseline error %v", budget, err)
		}
		for _, w := range []int{1, 8} {
			for _, s := range shardGrid {
				_, _, err := Eval(p, input, Options{MaxDerived: budget, Workers: w, Shards: s})
				if got := errors.Is(err, ErrBudget); got != wantBudget {
					t.Fatalf("budget=%d workers=%d shards=%d: budget error %v, baseline %v (err=%v)",
						budget, w, s, got, wantBudget, err)
				}
			}
		}
	}
}

// TestShardedIncrementalOracle: the maintenance insertion loop routed
// through the shared round executor agrees with full re-evaluation at every
// grid point, and produces byte-identical databases across the grid.
func TestShardedIncrementalOracle(t *testing.T) {
	p := workload.TransitiveClosure()
	base := workload.Chain("A", 12)
	newFacts := []ast.GroundAtom{ga("A", 12, 0), ga("A", 5, 20), ga("A", 20, 21)}
	full := base.Clone()
	for _, f := range newFacts {
		full.Add(f)
	}
	want := MustEval(p, full)
	var wantDump string
	first := true
	for _, w := range []int{1, 8} {
		for _, s := range shardGrid {
			m := materialize(t, p, base, Options{Workers: w, Shards: s})
			_, stats, err := m.Apply(context.Background(), Delta{Assert: newFacts})
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", w, s, err)
			}
			inc := m.Output()
			if !inc.Equal(want) {
				t.Fatalf("workers=%d shards=%d: incremental %d facts, full re-eval %d facts",
					w, s, inc.Len(), want.Len())
			}
			if s > 1 && stats.ShardRounds == 0 {
				t.Fatalf("workers=%d shards=%d: sharded insertion loop did not engage", w, s)
			}
			dump := inc.String()
			if first {
				wantDump, first = dump, false
			} else if dump != wantDump {
				t.Fatalf("workers=%d shards=%d: incremental database differs across the grid", w, s)
			}
		}
	}
}

func TestShardedIncrementalRandomOracle(t *testing.T) {
	grid := [][2]int{{1, 1}, {1, 4}, {8, 2}, {8, 8}}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil || p.HasNegation() {
			continue
		}
		base := workload.RandomDB(rng, p, 4, 3)
		if _, _, err := Eval(p, base, Options{}); err != nil {
			continue
		}
		extra := workload.RandomDB(rng, p, 4, 2)
		full := base.Clone()
		full.AddAll(extra)
		want, _, err := Eval(p, full, Options{})
		if err != nil {
			continue
		}
		for _, g := range grid {
			m := materialize(t, p, base, Options{Workers: g[0], Shards: g[1]})
			if _, _, err := m.Apply(context.Background(), Delta{Assert: extra.Facts()}); err != nil {
				t.Fatalf("seed %d workers=%d shards=%d: %v", seed, g[0], g[1], err)
			}
			if !m.Output().Equal(want) {
				t.Fatalf("seed %d workers=%d shards=%d: incremental disagrees with full re-eval\nprogram:\n%s",
					seed, g[0], g[1], p)
			}
		}
	}
}

// TestShardedStatsAccounting pins the semantics of the per-shard counters.
func TestShardedStatsAccounting(t *testing.T) {
	p := workload.TransitiveClosure()
	input := workload.RandomDigraph("A", 40, 100, 5)
	_, seq, err := Eval(p, input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Eval(p, input, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardRounds == 0 || st.ShardRounds%4 != 0 {
		t.Fatalf("ShardRounds = %d, want a positive multiple of 4", st.ShardRounds)
	}
	// Firings is the count of successful full joins, invariant under
	// sharding: the shard slices partition each variant's outer enumeration.
	if st.Firings != seq.Firings {
		t.Fatalf("sharded Firings = %d, sequential = %d", st.Firings, seq.Firings)
	}
	if st.Added != seq.Added {
		t.Fatalf("sharded Added = %d, sequential = %d", st.Added, seq.Added)
	}
	if st.DeltaExchanged < 0 || st.DeltaExchanged > st.Added {
		t.Fatalf("DeltaExchanged = %d out of range (Added = %d)", st.DeltaExchanged, st.Added)
	}
	var acc Stats
	acc.AddSharding(st)
	acc.AddSharding(st)
	if acc.ShardRounds != 2*st.ShardRounds || acc.DeltaExchanged != 2*st.DeltaExchanged || acc.ShardImbalance != 2*st.ShardImbalance {
		t.Fatal("AddSharding must accumulate all shard counters")
	}
}

// TestShardedNormalization: unusable shard counts fall back to the
// unsharded executor, and NoCompile (which the sharded kernel requires)
// normalizes to one shard rather than failing.
func TestShardedNormalization(t *testing.T) {
	p := workload.TransitiveClosure()
	input := workload.Chain("A", 8)
	for _, o := range []Options{
		{Shards: 0},
		{Shards: -3},
		{Shards: 4, NoCompile: true},
		{Shards: 100000},
		{Shards: 3, NoReorder: true},
		{Shards: 5, Strategy: Naive},
	} {
		// Baseline under the same options unsharded (insertion order differs
		// across strategies, so each option set is its own oracle).
		base := o
		base.Shards = 1
		want := MustEval2(t, p, input, base)
		out, st, err := Eval(p, input, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if out.String() != want {
			t.Fatalf("%+v: output differs", o)
		}
		if o.NoCompile && st.ShardRounds != 0 {
			t.Fatalf("%+v: sharded executor ran under NoCompile", o)
		}
	}
}
