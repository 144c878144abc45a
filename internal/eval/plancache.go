package eval

import (
	"container/list"
	"strconv"
	"sync"

	"repro/internal/ast"
)

// PlanCache is a content-addressed cache of prepared evaluation plans:
// canonical-form hash of (ast.Program, Options) → *Prepared. The
// minimization loops, the CLI/REPL and the harness all evaluate streams of
// programs that repeat — candidate deletions revisit identical subprograms,
// a long-lived server sees the same program across requests — and preparing
// is pure program analysis, so identical inputs can share one plan.
//
// Lookups verify the full canonical string on every hash hit, so a hash
// collision degrades to a miss instead of silently returning the wrong
// plan (the injectivity fuzz test in internal/ast keeps the hash honest,
// the verification keeps the cache honest even if the hash is not).
// Entries are evicted LRU beyond the capacity bound, so a REPL or server
// that prepares an unbounded stream of distinct programs holds at most
// maxEntries plans. A PlanCache is safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	buckets map[uint64][]*list.Element

	hits, misses, evictions uint64
}

// planEntry is one cached plan, addressed by the canonical program string
// plus the option fingerprint (options change the plan: schedule shape,
// compilation, goal).
type planEntry struct {
	hash    uint64
	canon   string
	optsKey string
	prep    *Prepared
}

// DefaultPlanCacheSize bounds the shared cache; generous for the
// optimization pipelines while keeping a long-lived REPL's footprint flat.
const DefaultPlanCacheSize = 256

// DefaultPlanCache is the process-wide shared cache used by PrepareCached —
// one pool serving the minimization loops, the containment sessions, the
// CLI/REPL and the harness.
var DefaultPlanCache = NewPlanCache(DefaultPlanCacheSize)

// NewPlanCache returns a cache bounded to max entries (max ≤ 0 selects
// DefaultPlanCacheSize).
func NewPlanCache(max int) *PlanCache {
	if max <= 0 {
		max = DefaultPlanCacheSize
	}
	return &PlanCache{max: max, order: list.New(), buckets: make(map[uint64][]*list.Element)}
}

// CacheStats is a point-in-time snapshot of cache behavior.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// Stats returns a snapshot of the cache counters.
func (pc *PlanCache) Stats() CacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return CacheStats{Hits: pc.hits, Misses: pc.misses, Evictions: pc.evictions, Entries: pc.order.Len()}
}

// zeroOptsKey serves the by-far most common fingerprint without building it
// — the containment sessions always prepare under default options.
var zeroOptsKey = computePlanKey(normalize(Options{}))

// planKey fingerprints every Options field that shapes a prepared plan,
// after the normalization Prepare applies, so option sets that select the
// same plan ({}, {Shards: 1} and {Workers: 4} all run sequentially) share
// one entry. MaxDerived and Goal are baked into a Prepared's run defaults,
// so they distinguish plans too; per-call EvalGoal arguments do not touch
// them.
func planKey(opts Options) string {
	if opts == (Options{}) {
		return zeroOptsKey
	}
	return computePlanKey(normalize(opts))
}

func computePlanKey(opts Options) string {
	b := make([]byte, 0, 48)
	b = strconv.AppendInt(b, int64(opts.Strategy), 10)
	b = append(b, '|')
	b = strconv.AppendBool(b, opts.NoReorder)
	b = append(b, '|')
	b = strconv.AppendBool(b, opts.NoSCCOrder)
	b = append(b, '|')
	b = strconv.AppendBool(b, opts.NoCompile)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(opts.Workers), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(opts.Shards), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(opts.MaxDerived), 10)
	b = append(b, '|')
	if opts.Goal != nil {
		b = append(b, opts.Goal.String()...)
	}
	return string(b)
}

// Prepare returns the cached plan for (p, opts) or prepares, caches and
// returns a fresh one. It is PrepareHit without the hit report.
func (pc *PlanCache) Prepare(p *ast.Program, opts Options) (*Prepared, error) {
	prep, _, err := pc.PrepareHit(p, opts)
	return prep, err
}

// PrepareHit is Prepare reporting whether the plan came from the cache, so
// session layers can surface hit/miss counts in their own stats.
func (pc *PlanCache) PrepareHit(p *ast.Program, opts Options) (*Prepared, bool, error) {
	return pc.GetOrBuild(p, opts, func() (*Prepared, error) { return Prepare(p, opts) })
}

// GetOrBuild returns the cached plan for (p, opts), or caches and returns
// the plan produced by build. It is the general entry the containment layer
// uses to register delta-patched plans (Prepared.Derive products) under
// their content address: the built plan's program need only be canonically
// equal to p. The boolean reports a cache hit.
func (pc *PlanCache) GetOrBuild(p *ast.Program, opts Options, build func() (*Prepared, error)) (*Prepared, bool, error) {
	return pc.GetOrBuildCanonical(p.CanonicalString(), opts, build)
}

// GetOrBuildCanonical is GetOrBuild for callers that already hold the
// program's canonical form — the containment layer maintains it
// incrementally across one-rule deltas, so re-rendering the whole program
// per lookup would dominate the very work the cache saves.
func (pc *PlanCache) GetOrBuildCanonical(canon string, opts Options, build func() (*Prepared, error)) (*Prepared, bool, error) {
	optsKey := planKey(opts)
	hash := ast.HashString(canon) ^ ast.HashString(optsKey)

	pc.mu.Lock()
	if el := pc.lookup(hash, canon, optsKey); el != nil {
		pc.order.MoveToFront(el)
		pc.hits++
		prep := el.Value.(*planEntry).prep
		pc.mu.Unlock()
		return prep, true, nil
	}
	pc.misses++
	pc.mu.Unlock()

	// Build outside the lock: preparation can be arbitrarily large and must
	// not serialize unrelated lookups. A racing duplicate build is harmless
	// — insert re-checks and keeps the first plan.
	prep, err := build()
	if err != nil {
		return nil, false, err
	}
	return pc.insert(&planEntry{hash: hash, canon: canon, optsKey: optsKey, prep: prep}), false, nil
}

// Put inserts an externally built plan (a Derive product) under its
// program's content address, so later Prepare calls for the same program
// reuse it. The prepared options are taken from the plan itself.
func (pc *PlanCache) Put(prep *Prepared) {
	canon := prep.Program().CanonicalString()
	optsKey := planKey(prep.opts)
	hash := ast.HashString(canon) ^ ast.HashString(optsKey)
	pc.insert(&planEntry{hash: hash, canon: canon, optsKey: optsKey, prep: prep})
}

// lookup finds the entry matching hash AND full canonical content; caller
// holds the lock.
func (pc *PlanCache) lookup(hash uint64, canon, optsKey string) *list.Element {
	for _, el := range pc.buckets[hash] {
		e := el.Value.(*planEntry)
		if e.canon == canon && e.optsKey == optsKey {
			return el
		}
	}
	return nil
}

// insert stores e unless an equivalent entry landed first, evicting from
// the LRU tail past capacity; it returns the plan now cached for e's key.
func (pc *PlanCache) insert(e *planEntry) *Prepared {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el := pc.lookup(e.hash, e.canon, e.optsKey); el != nil {
		pc.order.MoveToFront(el)
		return el.Value.(*planEntry).prep
	}
	el := pc.order.PushFront(e)
	pc.buckets[e.hash] = append(pc.buckets[e.hash], el)
	for pc.order.Len() > pc.max {
		back := pc.order.Back()
		pc.order.Remove(back)
		old := back.Value.(*planEntry)
		bucket := pc.buckets[old.hash]
		for i, bel := range bucket {
			if bel == back {
				bucket = append(bucket[:i], bucket[i+1:]...)
				break
			}
		}
		if len(bucket) == 0 {
			delete(pc.buckets, old.hash)
		} else {
			pc.buckets[old.hash] = bucket
		}
		pc.evictions++
	}
	return e.prep
}

// PrepareCached is Prepare through the shared DefaultPlanCache.
func PrepareCached(p *ast.Program, opts Options) (*Prepared, error) {
	return DefaultPlanCache.Prepare(p, opts)
}
