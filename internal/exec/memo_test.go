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

// publishEntry fills and publishes one entry through the producer
// protocol (acquire, appendSpoolBlock, complete) and reports whether it was
// published.
func publishEntry(m *Memo, gen int64, fp uint64, key string, ts []relation.Tuple) bool {
	e, role := m.acquire(gen, fp, key)
	if role != roleProduce {
		return false
	}
	if _, ok := m.appendSpoolBlock(e, ts); !ok {
		return false
	}
	m.complete(e)
	return true
}

func TestMemoBudgetEviction(t *testing.T) {
	m := NewMemo(10)
	if !publishEntry(m, 1, 100, "a", intTuples(6)) || !publishEntry(m, 1, 200, "b", intTuples(4)) {
		t.Fatal("publish a, b")
	}
	if m.Entries() != 2 || m.Tuples() != 10 {
		t.Fatalf("entries=%d tuples=%d", m.Entries(), m.Tuples())
	}
	// Replay "a" so "b" is the LRU victim.
	if _, role := m.acquire(1, 100, "a"); role != roleReplay {
		t.Fatalf("acquire a = %v, want replay", role)
	}
	if !publishEntry(m, 1, 300, "c", intTuples(4)) {
		t.Fatal("publish c")
	}
	if m.HasComplete(1, 200, "b") {
		t.Fatal("b should have been evicted")
	}
	if !m.HasComplete(1, 100, "a") {
		t.Fatal("a should have survived")
	}
	if m.Tuples() != 10 {
		t.Fatalf("tuples=%d after eviction", m.Tuples())
	}
	// An oversized result overflows its spool and is never published.
	if publishEntry(m, 1, 400, "d", intTuples(11)) || m.HasComplete(1, 400, "d") {
		t.Fatal("oversized entry stored")
	}
	if m.Tuples() != 10 || m.SpoolsAbandoned() != 1 {
		t.Fatalf("overflow: tuples=%d abandoned=%d", m.Tuples(), m.SpoolsAbandoned())
	}
}

func TestMemoCollisionIsMiss(t *testing.T) {
	m := NewMemo(0)
	one := []relation.Tuple{relation.NewTuple(relation.Int(1))}
	if !publishEntry(m, 1, 42, "plan-one", one) {
		t.Fatal("publish plan-one")
	}
	// Same fingerprint, different canonical plan: neither replays the
	// incumbent nor produces over it.
	if _, role := m.acquire(1, 42, "plan-two"); role != rolePrivate {
		t.Fatalf("colliding fingerprint: role %v, want private", role)
	}
	e, role := m.acquire(1, 42, "plan-one")
	if role != roleReplay || len(e.tuples) != 1 || !e.tuples[0].Equal(one[0]) {
		t.Fatal("incumbent entry clobbered by a colliding plan")
	}
}

func TestMemoStaleGenerationIgnored(t *testing.T) {
	m := NewMemo(0)
	ts := []relation.Tuple{relation.NewTuple(relation.Int(1))}
	if !publishEntry(m, 5, 1, "k", ts) {
		t.Fatal("publish")
	}
	// A newer generation flushes.
	if m.HasComplete(6, 1, "k") {
		t.Fatal("newer generation must flush")
	}
	// A stale producer (generation 5 after 6 was seen) must not resurrect.
	if _, role := m.acquire(5, 1, "k"); role != rolePrivate {
		t.Fatalf("stale acquire: role %v, want private", role)
	}
	if m.HasComplete(6, 1, "k") || m.Entries() != 0 {
		t.Fatal("stale evaluation must not publish")
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
