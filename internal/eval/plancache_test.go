package eval

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func cacheProgram(t *testing.T, i int) *ast.Program {
	t.Helper()
	res, err := parser.Parse(fmt.Sprintf("P(x) :- A%d(x).", i))
	if err != nil {
		t.Fatal(err)
	}
	return res.Program
}

// TestPlanCacheEvictionBound checks the LRU bound: a stream of distinct
// programs never grows the cache past its capacity, evictions are counted,
// and the most recently used entries survive while the oldest are evicted.
func TestPlanCacheEvictionBound(t *testing.T) {
	pc := NewPlanCache(4)
	const n = 20
	for i := 0; i < n; i++ {
		if _, _, err := pc.PrepareHit(cacheProgram(t, i), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := pc.Stats()
	if st.Entries > 4 {
		t.Fatalf("cache holds %d entries, capacity 4", st.Entries)
	}
	if st.Evictions != n-4 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, n-4)
	}
	if st.Misses != n {
		t.Fatalf("misses = %d, want %d (all programs distinct)", st.Misses, n)
	}
	// The four most recent programs must hit; the oldest must miss.
	for i := n - 4; i < n; i++ {
		if _, hit, err := pc.PrepareHit(cacheProgram(t, i), Options{}); err != nil || !hit {
			t.Fatalf("program %d evicted though recently used (hit=%v err=%v)", i, hit, err)
		}
	}
	if _, hit, err := pc.PrepareHit(cacheProgram(t, 0), Options{}); err != nil || hit {
		t.Fatalf("program 0 should have been evicted (hit=%v err=%v)", hit, err)
	}
}

// TestPlanCacheHitReturnsSamePlan checks content addressing: canonically
// equal (alpha-renamed) programs share one plan; different Options do not.
func TestPlanCacheHitReturnsSamePlan(t *testing.T) {
	pc := NewPlanCache(8)
	p := cacheProgram(t, 1)
	prep1, hit, err := pc.PrepareHit(p, Options{})
	if err != nil || hit {
		t.Fatalf("first prepare: hit=%v err=%v", hit, err)
	}
	renamed := p.Clone()
	renamed.Rules[0] = renamed.Rules[0].Rename(func(v string) string { return v + "_r" })
	prep2, hit, err := pc.PrepareHit(renamed, Options{})
	if err != nil || !hit {
		t.Fatalf("alpha-renamed twin missed the cache (hit=%v err=%v)", hit, err)
	}
	if prep1 != prep2 {
		t.Fatal("alpha-renamed twin got a different plan")
	}
	_, hit, err = pc.PrepareHit(p, Options{Strategy: Naive})
	if err != nil || hit {
		t.Fatalf("different options must not share a plan (hit=%v err=%v)", hit, err)
	}
}

// TestPlanCacheNormalizedOptions checks that option sets selecting the
// same plan share one entry: {}, {Shards: 1} and {Workers: 4} all run
// sequentially, so only the first of them prepares.
func TestPlanCacheNormalizedOptions(t *testing.T) {
	pc := NewPlanCache(8)
	p := cacheProgram(t, 1)
	for i, o := range []Options{{}, {Shards: 1}, {Workers: 4}} {
		_, hit, err := pc.PrepareHit(p, o)
		if err != nil {
			t.Fatal(err)
		}
		if hit != (i > 0) {
			t.Fatalf("%+v: hit = %v, want %v", o, hit, i > 0)
		}
	}
	if st := pc.Stats(); st.Entries != 1 {
		t.Fatalf("cache holds %d entries, want 1", st.Entries)
	}
	// Sharded plans stay distinct, but worker counts past the shard count
	// all mean one goroutine per shard.
	if _, hit, _ := pc.PrepareHit(p, Options{Shards: 2, Workers: 2}); hit {
		t.Fatal("sharded options shared the sequential plan")
	}
	if _, hit, _ := pc.PrepareHit(p, Options{Shards: 2, Workers: 8}); !hit {
		t.Fatal("Workers above Shards did not normalize to Shards")
	}
}

// TestPlanCacheConcurrent hammers one cache from many goroutines over a
// small program set (run under -race); every returned plan for a program
// must be usable and hits+misses must equal the number of lookups.
func TestPlanCacheConcurrent(t *testing.T) {
	pc := NewPlanCache(8)
	progs := make([]*ast.Program, 6)
	for i := range progs {
		progs[i] = cacheProgram(t, i)
	}
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p := progs[(g+i)%len(progs)]
				if _, err := pc.Prepare(p, Options{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := pc.Stats()
	if st.Hits+st.Misses != 8*perG {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*perG)
	}
}
