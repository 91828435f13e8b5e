package exec

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/storage"
)

// memoProducer is a 3-node shared subtree: P ⋉ T over the Fig. 2 catalog.
func memoProducer(cat *storage.Catalog) algebra.Plan {
	return &algebra.SemiJoin{
		Left:  scan(cat, "P"),
		Right: scan(cat, "T"),
		On:    []algebra.ColPair{{Left: 0, Right: 0}},
	}
}

// sharedTwicePlan unions one Shared producer with itself filtered; both
// occurrences carry the same fingerprint, so the second replays.
func sharedTwicePlan(cat *storage.Catalog) algebra.Plan {
	sh := algebra.NewShared(memoProducer(cat))
	return &algebra.Union{
		Left:  sh,
		Right: &algebra.Select{Input: sh, Pred: algebra.True{}},
	}
}

func TestMemoIntraPlanSharing(t *testing.T) {
	cat := ptuCatalog(t)

	// Baseline: no memo installed — Shared is transparent.
	off := NewContext(cat)
	wantRes, err := Run(off, sharedTwicePlan(cat))
	if err != nil {
		t.Fatal(err)
	}

	on := NewContext(cat)
	on.Memo = NewMemo(0)
	got, err := Run(on, sharedTwicePlan(cat))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(wantRes) {
		t.Fatalf("cache-on result differs:\ngot:\n%s\nwant:\n%s", got, wantRes)
	}
	if on.Stats.CacheMisses != 1 || on.Stats.CacheHits != 1 {
		t.Fatalf("want 1 miss + 1 hit, got miss=%d hit=%d", on.Stats.CacheMisses, on.Stats.CacheHits)
	}
	if on.Stats.CacheTuplesReplayed == 0 || on.Stats.CacheTuplesSpooled == 0 {
		t.Fatalf("expected spooled and replayed tuples: %s", on.Stats)
	}
	// The producer ran once instead of twice: base reads drop by one
	// |P|+|T| pass.
	producerReads := int64(7) // |P|=4 + |T|=3
	if off.Stats.BaseTuplesRead-on.Stats.BaseTuplesRead != producerReads {
		t.Fatalf("want %d fewer base reads, got off=%d on=%d",
			producerReads, off.Stats.BaseTuplesRead, on.Stats.BaseTuplesRead)
	}
}

func TestMemoWarmAcrossRuns(t *testing.T) {
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	plan := algebra.NewShared(memoProducer(cat))

	cold := NewContext(cat)
	cold.Memo = memo
	first, err := Run(cold, plan)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.CacheMisses != 1 || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold run: %s", cold.Stats)
	}

	warm := NewContext(cat)
	warm.Memo = memo
	second, err := Run(warm, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Equal(first) {
		t.Fatal("warm result differs from cold")
	}
	if warm.Stats.CacheHits != 1 || warm.Stats.BaseTuplesRead != 0 {
		t.Fatalf("warm run should replay without base reads: %s", warm.Stats)
	}
}

func TestMemoInvalidationOnMutation(t *testing.T) {
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	plan := algebra.NewShared(memoProducer(cat))

	c1 := NewContext(cat)
	c1.Memo = memo
	first, err := Run(c1, plan)
	if err != nil {
		t.Fatal(err)
	}

	// "e" joins P only after this insert; a stale replay would miss it.
	p, _ := cat.Relation("P")
	p.InsertValues(relation.Str("e"))

	c2 := NewContext(cat)
	c2.Memo = memo
	second, err := Run(c2, plan)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Stats.CacheHits != 0 {
		t.Fatalf("mutated catalog must not hit: %s", c2.Stats)
	}
	if second.Equal(first) {
		t.Fatal("result did not change after mutation — stale replay?")
	}
	if !second.Contains(relation.NewTuple(relation.Str("e"))) {
		t.Fatal("fresh evaluation must see the inserted tuple")
	}
}

func TestMemoBudgetEviction(t *testing.T) {
	m := NewMemo(10)
	mk := func(n int) []relation.Tuple {
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = relation.NewTuple(relation.Int(int64(i)))
		}
		return ts
	}
	m.store(1, 100, "a", mk(6))
	m.store(1, 200, "b", mk(4))
	if m.Entries() != 2 || m.Tuples() != 10 {
		t.Fatalf("entries=%d tuples=%d", m.Entries(), m.Tuples())
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := m.lookup(1, 100, "a"); !ok {
		t.Fatal("lookup a")
	}
	m.store(1, 300, "c", mk(4))
	if _, ok := m.lookup(1, 200, "b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := m.lookup(1, 100, "a"); !ok {
		t.Fatal("a should have survived")
	}
	if m.Tuples() != 10 {
		t.Fatalf("tuples=%d after eviction", m.Tuples())
	}
	// An oversized result is never stored.
	m.store(1, 400, "d", mk(11))
	if _, ok := m.lookup(1, 400, "d"); ok {
		t.Fatal("oversized entry stored")
	}
}

func TestMemoCollisionIsMiss(t *testing.T) {
	m := NewMemo(0)
	m.store(1, 42, "plan-one", []relation.Tuple{relation.NewTuple(relation.Int(1))})
	// Same fingerprint, different canonical plan: must not replay, and the
	// incumbent must stay intact.
	if _, ok := m.lookup(1, 42, "plan-two"); ok {
		t.Fatal("colliding fingerprint replayed a foreign result")
	}
	m.store(1, 42, "plan-two", []relation.Tuple{relation.NewTuple(relation.Int(2))})
	got, ok := m.lookup(1, 42, "plan-one")
	if !ok || len(got) != 1 || !got[0].Equal(relation.NewTuple(relation.Int(1))) {
		t.Fatal("incumbent entry clobbered by colliding store")
	}
}

func TestMemoStaleGenerationIgnored(t *testing.T) {
	m := NewMemo(0)
	ts := []relation.Tuple{relation.NewTuple(relation.Int(1))}
	m.store(5, 1, "k", ts)
	// A newer generation flushes.
	if _, ok := m.lookup(6, 1, "k"); ok {
		t.Fatal("newer generation must flush")
	}
	// A stale writer (generation 5 after 6 was seen) must not resurrect.
	m.store(5, 1, "k", ts)
	if _, ok := m.lookup(6, 1, "k"); ok {
		t.Fatal("stale store must be dropped")
	}
}

func TestMemoIncompleteDrainNotPublished(t *testing.T) {
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	plan := algebra.NewShared(memoProducer(cat))

	ctx := NewContext(cat)
	ctx.Memo = memo
	it, err := Build(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	it.Open()
	if _, ok := it.NextBatch(1); !ok {
		t.Fatal("producer is non-empty")
	}
	it.Close() // early close: only one tuple pulled

	if memo.Entries() != 0 {
		t.Fatal("partial spool must not be published")
	}

	// A later full drain still works and publishes.
	c2 := NewContext(cat)
	c2.Memo = memo
	if _, err := Run(c2, plan); err != nil {
		t.Fatal(err)
	}
	if memo.Entries() != 1 {
		t.Fatal("full drain should publish")
	}
}

func TestMemoNilIsTransparent(t *testing.T) {
	cat := ptuCatalog(t)
	ctx := NewContext(cat)
	out, err := Run(ctx, sharedTwicePlan(cat))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("transparent Shared produced nothing")
	}
	if ctx.Stats.CacheHits+ctx.Stats.CacheMisses != 0 {
		t.Fatalf("no memo, no cache traffic: %s", ctx.Stats)
	}
}

func TestMemoSizeHint(t *testing.T) {
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	plan := algebra.NewShared(memoProducer(cat))

	c1 := NewContext(cat)
	c1.Memo = memo
	res, err := Run(c1, plan)
	if err != nil {
		t.Fatal(err)
	}

	c2 := NewContext(cat)
	c2.Memo = memo
	it, err := Build(c2, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := hintOf(it); got != res.Len() {
		t.Fatalf("warm hint = %d, want cached length %d", got, res.Len())
	}
}
