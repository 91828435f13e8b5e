package core

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/translate"
)

// cacheConfigs are the engine configurations the plan-cache property test
// pairs: each cached engine is compared against an identically configured
// engine without the cache.
var cacheConfigs = []struct {
	label string
	opts  []Option
}{
	{"default", nil},
	{"union-filters", []Option{WithDisjunctiveFilters(translate.StrategyUnion)}},
	{"block-7", []Option{WithBatchSize(7)}},
}

// TestPlanCacheAgreement is the cache property test: on random databases,
// for every pool query and engine configuration, a cache-on engine must
// produce results identical to its cache-off twin — on a cold memo, on a
// warm memo, and with the memo shared across the whole query pool (so
// cross-query hits occur). Base reads must never exceed the uncached run's,
// and must equal them exactly when no hit occurred: spooling is
// stream-through, so "BaseTuplesRead net of replayed work" is invariant.
func TestPlanCacheAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < crossStrategyRounds; round++ {
		db := randomDB(rng)
		for _, cfg := range cacheConfigs {
			off := NewEngine(db, cfg.opts...)
			on := NewEngine(db, append([]Option{WithPlanCache(0)}, cfg.opts...)...)
			for _, input := range queryPool {
				want, err := off.Query(input)
				if err != nil {
					t.Fatalf("round %d %s off(%q): %v", round, cfg.label, input, err)
				}
				for pass, label := range []string{"cold", "warm"} {
					got, err := on.Query(input)
					if err != nil {
						t.Fatalf("round %d %s %s(%q): %v", round, cfg.label, label, input, err)
					}
					if want.Open {
						if !got.Rows.Equal(want.Rows) {
							t.Fatalf("round %d %s %s(%q) rows mismatch:\ngot:\n%s\nwant:\n%s",
								round, cfg.label, label, input, got.Rows, want.Rows)
						}
					} else if got.Truth != want.Truth {
						t.Fatalf("round %d %s %s(%q) = %v, want %v",
							round, cfg.label, label, input, got.Truth, want.Truth)
					}
					if got.Stats.BaseTuplesRead > want.Stats.BaseTuplesRead {
						t.Fatalf("round %d %s %s(%q): cache-on read more: %d > %d",
							round, cfg.label, label, input,
							got.Stats.BaseTuplesRead, want.Stats.BaseTuplesRead)
					}
					if got.Stats.CacheHits == 0 && got.Stats.BaseTuplesRead != want.Stats.BaseTuplesRead {
						t.Fatalf("round %d %s %s(%q): no hits but reads differ: %d vs %d",
							round, cfg.label, label, input,
							got.Stats.BaseTuplesRead, want.Stats.BaseTuplesRead)
					}
					_ = pass
				}
			}
		}
	}
}

// TestPlanCacheWarmReuse pins the cross-call behaviour the engine-held memo
// exists for: the second run of the same query replays the root entry
// without touching base relations.
func TestPlanCacheWarmReuse(t *testing.T) {
	db := demoDB()
	eng := NewEngine(db, WithPlanCache(0))
	const q = `{ x | student(x) and not exists y: attends(x, y) and not lecture(y) }`

	first, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheMisses == 0 || first.Stats.CacheTuplesSpooled == 0 {
		t.Fatalf("cold run must spool: %s", first.Stats.String())
	}
	second, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Rows.Equal(first.Rows) {
		t.Fatal("warm run changed the answer")
	}
	if second.Stats.CacheHits == 0 || second.Stats.CacheTuplesReplayed == 0 {
		t.Fatalf("warm run must hit: %s", second.Stats.String())
	}
	if second.Stats.BaseTuplesRead >= first.Stats.BaseTuplesRead {
		t.Fatalf("warm run must read less: %d vs %d",
			second.Stats.BaseTuplesRead, first.Stats.BaseTuplesRead)
	}
	if s := eng.Snapshot(); s.CacheEntries == 0 || s.CacheTuples == 0 {
		t.Fatalf("memo should hold the result: entries=%d tuples=%d", s.CacheEntries, s.CacheTuples)
	}
}

// TestPlanCacheInvalidation mutates a base relation between two runs and
// asserts the second run reflects the mutation — the generation counter must
// flush the memo, never replaying stale tuples.
func TestPlanCacheInvalidation(t *testing.T) {
	db := demoDB()
	eng := NewEngine(db, WithPlanCache(0))
	const q = `{ x | student(x) and not exists y: attends(x, y) }`

	first, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the memo, then enroll a brand-new student with no courses: the
	// answer must grow by exactly that tuple.
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	students, err := db.Catalog().Relation("student")
	if err != nil {
		t.Fatal(err)
	}
	students.InsertValues(relation.Str("zoe"))

	after, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.CacheHits != 0 {
		t.Fatalf("post-mutation run must not hit stale entries: %s", after.Stats.String())
	}
	if !after.Rows.Contains(relation.NewTuple(relation.Str("zoe"))) {
		t.Fatalf("stale cache: new student missing from\n%s", after.Rows)
	}
	if after.Rows.Len() != first.Rows.Len()+1 {
		t.Fatalf("answer should grow by one: %d -> %d", first.Rows.Len(), after.Rows.Len())
	}

	// Deletion invalidates too.
	students.Delete(relation.NewTuple(relation.Str("zoe")))
	back, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Rows.Equal(first.Rows) {
		t.Fatalf("after delete the original answer must return:\n%s\nvs\n%s", back.Rows, first.Rows)
	}
}

// TestPlanCacheToggle: disabling the cache keeps previously prepared Shared
// plans runnable (transparent), and re-enabling starts cold.
func TestPlanCacheToggle(t *testing.T) {
	db := demoDB()
	eng := NewEngine(db, WithPlanCache(0))
	const q = `{ x | student(x) and not exists y: attends(x, y) }`

	p, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(p); err != nil {
		t.Fatal(err)
	}
	if !eng.PlanCacheEnabled() {
		t.Fatal("cache should be on")
	}

	eng.Configure(WithoutPlanCache())
	if eng.PlanCacheEnabled() || eng.Snapshot().CacheBudget != 0 {
		t.Fatal("cache should be off")
	}
	res, err := eng.Run(p) // Shared wrappers run transparently
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits+res.Stats.CacheMisses != 0 {
		t.Fatalf("no memo, no cache traffic: %s", res.Stats.String())
	}

	eng.Configure(WithPlanCache(123))
	if got := eng.Snapshot().CacheBudget; got != 123 {
		t.Fatalf("budget = %d, want 123", got)
	}
	if entries := eng.Snapshot().CacheEntries; entries != 0 {
		t.Fatal("re-enabled cache must start cold")
	}
}
