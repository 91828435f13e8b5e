package exec

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/faultinject"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// next1 pulls one block of demand 1 and returns its tuple.
func next1(it Iterator) (relation.Tuple, bool) {
	b, ok := it.NextBatch(1)
	if !ok {
		return nil, false
	}
	return b.Tuples[0], true
}

// drain pulls it dry at demand 1.
func drain(it Iterator) []relation.Tuple {
	var ts []relation.Tuple
	for {
		t, ok := next1(it)
		if !ok {
			return ts
		}
		ts = append(ts, t)
	}
}

// listIter yields a fixed tuple slice; re-Open restarts it.
type listIter struct {
	ts  []relation.Tuple
	pos int
	b   Batch
}

func (it *listIter) Open() { it.pos = 0 }
func (it *listIter) NextBatch(max int) (*Batch, bool) {
	if it.pos >= len(it.ts) {
		return nil, false
	}
	end := min(it.pos+max, len(it.ts))
	it.b.Tuples, it.pos = it.ts[it.pos:end], end
	return &it.b, true
}
func (it *listIter) Close() {}

// boomIter fails the test if anything opens or drains it: an evaluation
// that replays a complete entry must never evaluate its own input.
type boomIter struct{ t *testing.T }

func (it *boomIter) Open() { it.t.Error("replay opened its input") }
func (it *boomIter) NextBatch(int) (*Batch, bool) {
	it.t.Error("replay evaluated its input")
	return nil, false
}
func (it *boomIter) Close() {}

func tupleSeq(vs ...int64) []relation.Tuple {
	ts := make([]relation.Tuple, len(vs))
	for i, v := range vs {
		ts[i] = relation.NewTuple(relation.Int(v))
	}
	return ts
}

// equalTuples reports whether got is exactly want, in order.
func equalTuples(got, want []relation.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			return false
		}
	}
	return true
}

// memoCtx builds a context on cat that uses memo.
func memoCtx(cat *storage.Catalog, memo *Memo) *Context {
	ctx := NewContext(cat)
	ctx.Memo = memo
	return ctx
}

// TestMemoProducerDeathReelection kills a producer mid-spool (early Close —
// the same path cancellation and panics funnel through) while another
// execution evaluates the same fingerprint. The other execution found the
// entry building, so it evaluated privately and delivers the full result;
// the dead producer's partial spool is dropped, and the next evaluation is
// the new producer and publishes the complete result.
func TestMemoProducerDeathReelection(t *testing.T) {
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	ts := tupleSeq(10, 20, 30)

	prodCtx := memoCtx(cat, memo)
	prod := &memoIter{ctx: prodCtx, in: &listIter{ts: ts}, fp: 992, key: "gated"}
	prod.Open()
	if got, ok := next1(prod); !ok || !got.Equal(ts[0]) {
		t.Fatalf("producer first Next: %v %v", got, ok)
	}

	otherCtx := memoCtx(cat, memo)
	other := &memoIter{ctx: otherCtx, in: &listIter{ts: ts}, fp: 992, key: "gated"}
	other.Open()
	if got := drain(other); !equalTuples(got, ts) {
		t.Fatalf("private stream = %v, want %v", got, ts)
	}
	other.Close()
	if otherCtx.Stats.CacheMisses != 1 || otherCtx.Stats.CacheTuplesSpooled != 0 {
		t.Fatalf("private evaluation stats: %s", otherCtx.Stats)
	}

	// The producer dies: its spool is abandoned and leaves the map.
	prod.Close()
	if prodCtx.Stats.CacheSpoolsAbandoned != 1 || memo.Entries() != 0 || memo.Tuples() != 0 {
		t.Fatalf("producer death: %s entries=%d tuples=%d", prodCtx.Stats, memo.Entries(), memo.Tuples())
	}

	// The next evaluation produces again and publishes all three tuples.
	nextCtx := memoCtx(cat, memo)
	next := &memoIter{ctx: nextCtx, in: &listIter{ts: ts}, fp: 992, key: "gated"}
	next.Open()
	if got := drain(next); !equalTuples(got, ts) {
		t.Fatalf("re-produced stream = %v, want %v", got, ts)
	}
	next.Close()
	if nextCtx.Stats.CacheMisses != 1 || memo.Entries() != 1 || memo.Tuples() != 3 {
		t.Fatalf("re-produced publication: %s entries=%d tuples=%d", nextCtx.Stats, memo.Entries(), memo.Tuples())
	}
	warm := &memoIter{ctx: memoCtx(cat, memo), in: &boomIter{t: t}, fp: 992, key: "gated"}
	warm.Open()
	if got := drain(warm); !equalTuples(got, ts) {
		t.Fatalf("warm replay = %v, want %v", got, ts)
	}
	warm.Close()
}

// TestMemoOverflowSendsConsumersPrivate overflows the memo budget mid-spool:
// the producer abandons and keeps streaming privately, and an execution that
// arrived while the entry was building evaluated privately too. Neither
// stream is truncated, and nothing is retained.
func TestMemoOverflowSendsConsumersPrivate(t *testing.T) {
	cat := ptuCatalog(t)
	memo := NewMemo(2) // third append overflows
	ts := tupleSeq(1, 2, 3, 4)

	prodCtx := memoCtx(cat, memo)
	prod := &memoIter{ctx: prodCtx, in: &listIter{ts: ts}, fp: 993, key: "gated"}
	prod.Open()
	first, ok := next1(prod)
	if !ok || !first.Equal(ts[0]) {
		t.Fatalf("producer first Next: %v %v", first, ok)
	}

	otherCtx := memoCtx(cat, memo)
	other := &memoIter{ctx: otherCtx, in: &listIter{ts: ts}, fp: 993, key: "gated"}
	other.Open()
	if got := drain(other); !equalTuples(got, ts) {
		t.Fatalf("private stream %v, want %v", got, ts)
	}
	other.Close()

	if got := append([]relation.Tuple{first}, drain(prod)...); !equalTuples(got, ts) {
		t.Fatalf("producer stream %v, want %v — overflow truncated it", got, ts)
	}
	prod.Close()

	if memo.Entries() != 0 || memo.Tuples() != 0 {
		t.Fatalf("overflowed entry retained: entries=%d tuples=%d", memo.Entries(), memo.Tuples())
	}
	if memo.SpoolsAbandoned() != 1 || prodCtx.Stats.CacheSpoolsAbandoned != 1 {
		t.Fatalf("abandoned: memo=%d producer=%s", memo.SpoolsAbandoned(), prodCtx.Stats)
	}
	if otherCtx.Stats.CacheMisses != 1 || otherCtx.Stats.CacheSpoolsAbandoned != 0 {
		t.Fatalf("private evaluation stats: %s", otherCtx.Stats)
	}
}

// TestMemoSpoolChargeFailStillYields pins the satellite bugfix: when the
// governor rejects the memo-spool charge for a tuple, the spool is
// abandoned but the tuple is still delivered downstream — the stream up to
// the sticky *ResourceError is exactly the cache-off prefix, never silently
// missing the tuple whose charge failed.
func TestMemoSpoolChargeFailStillYields(t *testing.T) {
	cat := ptuCatalog(t)
	ts := tupleSeq(1, 2, 3, 4)

	ctx := NewContext(cat)
	ctx.Memo = NewMemo(0)
	ctx.Gov = NewGovernor(2, 0) // the third memo-spool charge trips
	it := &memoIter{ctx: ctx, in: &listIter{ts: ts}, fp: 994, key: "gated"}
	it.Open()
	got := drain(it)
	it.Close()

	// Three tuples: two charged into the spool plus the one whose charge
	// tripped the budget — which the old code silently dropped.
	if len(got) != 3 {
		t.Fatalf("streamed %d tuples before the trip, want 3 (got %v)", len(got), got)
	}
	for i, want := range ts[:3] {
		if !got[i].Equal(want) {
			t.Fatalf("stream diverges from cache-off at %d: %v", i, got)
		}
	}
	var re *ResourceError
	if !errors.As(ctx.CancelErr(), &re) || re.Operator != "memo-spool" {
		t.Fatalf("CancelErr = %v, want memo-spool *ResourceError", ctx.CancelErr())
	}
	if ctx.Memo.Entries() != 0 {
		t.Fatal("tripped spool was retained")
	}
	if ctx.Stats.CacheSpoolsAbandoned != 1 {
		t.Fatalf("abandoned counter: %s", ctx.Stats)
	}
}

// TestMemoSizeHintThreadsGeneration pins the satellite bugfix in entryLen:
// after a base-relation mutation, a cached entry's length must not leak out
// as the size hint of the (now different) result.
func TestMemoSizeHintThreadsGeneration(t *testing.T) {
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	plan := algebra.NewShared(memoProducer(cat))

	c1 := NewContext(cat)
	c1.Memo = memo
	res, err := Run(c1, plan)
	if err != nil {
		t.Fatal(err)
	}
	stale := res.Len()

	// After the mutation the P ⋉ T result gains "e"; the warm hint would
	// now under-report by one.
	p, _ := cat.Relation("P")
	p.InsertValues(relation.Str("e"))

	c2 := NewContext(cat)
	c2.Memo = memo
	it, err := Build(c2, plan)
	if err != nil {
		t.Fatal(err)
	}
	off := NewContext(cat)
	offIt, err := Build(off, plan) // no memo: the honest input-side hint
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hintOf(it), hintOf(offIt); got != want {
		t.Fatalf("post-mutation hint = %d, want input hint %d (stale entry len was %d)", got, want, stale)
	}
}

// TestMemoSingleFlightHammer is the -race hammer: many goroutines, one
// shared memo, the same fingerprint, all cold. Each run replays the entry
// if it is complete and otherwise evaluates (as the producer, or privately
// while the entry builds); every result equals the cache-off baseline, no
// clean run abandons a spool, and afterwards one complete entry replays.
func TestMemoSingleFlightHammer(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := ptuCatalog(t)
	plan := algebra.NewShared(memoProducer(cat))

	baseline, err := Run(NewContext(cat), plan)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	memo := NewMemo(0)
	ctxs := make([]*Context, n)
	results := make([]*relation.Relation, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		ctxs[i] = memoCtx(cat, memo)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = Run(ctxs[i], plan)
		}()
	}
	close(start)
	wg.Wait()

	var agg Stats
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !results[i].Equal(baseline) {
			t.Fatalf("run %d result differs from cache-off baseline", i)
		}
		agg.Add(*ctxs[i].Stats)
	}
	if agg.CacheMisses < 1 || agg.CacheHits+agg.CacheMisses != n {
		t.Fatalf("hits(%d) + misses(%d), want %d with at least one miss", agg.CacheHits, agg.CacheMisses, n)
	}
	if agg.CacheSpoolsAbandoned != 0 || memo.SpoolsAbandoned() != 0 {
		t.Fatalf("clean hammer abandoned %d spools", memo.SpoolsAbandoned())
	}
	warm := memoCtx(cat, memo)
	if out, err := Run(warm, plan); err != nil || !out.Equal(baseline) {
		t.Fatalf("warm run: %v", err)
	}
	if warm.Stats.CacheHits != 1 || warm.Stats.BaseTuplesRead != 0 || memo.Entries() != 1 {
		t.Fatalf("warm run did not replay the one complete entry: %s entries=%d", warm.Stats, memo.Entries())
	}
}

// TestMemoSelfNestedSharedDoesNotDeadlock drains two iterators of the same
// fingerprint interleaved on one goroutine: b finds the entry a is still
// building and evaluates privately instead of waiting — whether a belongs
// to the same execution (a producer suspended in b's own iterator tree) or
// to another one. Either way both deliver the full result, a publishes, and
// the next run replays it with zero base reads.
func TestMemoSelfNestedSharedDoesNotDeadlock(t *testing.T) {
	for _, tc := range []struct {
		name     string
		contexts int
	}{{"same execution", 1}, {"another execution", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			cat := ptuCatalog(t)
			memo := NewMemo(0)
			plan := algebra.NewShared(memoProducer(cat))
			want, err := Run(NewContext(cat), plan)
			if err != nil {
				t.Fatal(err)
			}
			ctxA := memoCtx(cat, memo)
			ctxB := ctxA
			if tc.contexts == 2 {
				ctxB = memoCtx(cat, memo)
			}
			a, err := Build(ctxA, plan)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Build(ctxB, plan)
			if err != nil {
				t.Fatal(err)
			}
			a.Open()
			b.Open()
			first, ok := next1(a)
			if !ok {
				t.Fatal("a is empty")
			}
			// b finds a building entry: private evaluation, never a wait.
			gotB := relation.New("b", want.Schema())
			for _, tup := range drain(b) {
				gotB.Insert(tup)
			}
			gotA := relation.New("a", want.Schema())
			gotA.Insert(first)
			for _, tup := range drain(a) {
				gotA.Insert(tup)
			}
			a.Close()
			b.Close()
			if !gotA.Equal(want) || !gotB.Equal(want) {
				t.Fatalf("a=%v b=%v, want %v", gotA, gotB, want)
			}
			var agg Stats
			agg.Add(*ctxA.Stats)
			if ctxB != ctxA {
				agg.Add(*ctxB.Stats)
			}
			if agg.CacheMisses != 2 || agg.CacheHits != 0 || agg.CacheTuplesSpooled != int64(want.Len()) {
				t.Fatalf("interleaved stats: %s", &agg)
			}
			if memo.Entries() != 1 {
				t.Fatal("producer a should have published")
			}

			next := memoCtx(cat, memo)
			out, err := Run(next, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Equal(want) || next.Stats.CacheHits != 1 || next.Stats.BaseTuplesRead != 0 {
				t.Fatalf("next run did not replay: %s", next.Stats)
			}
		})
	}
}

// TestMemoElectFaultKillsProducerTyped arms the memo.elect point with an
// error: the elected producer's run fails typed, nothing is published, and
// the memo keeps serving afterwards.
func TestMemoElectFaultKillsProducerTyped(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	plan := algebra.NewShared(memoProducer(cat))

	ctx := NewContext(cat)
	ctx.Memo = memo
	ctx.Faults = faultinject.New(faultinject.Arm{Point: faultinject.PointMemoElect, Kind: faultinject.KindError})
	_, err := Run(ctx, plan)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if memo.Entries() != 0 {
		t.Fatal("killed election left an entry")
	}
	if ctx.Stats.CacheSpoolsAbandoned != 1 {
		t.Fatalf("abandoned counter: %s", ctx.Stats)
	}

	c2 := NewContext(cat)
	c2.Memo = memo
	if _, err := Run(c2, plan); err != nil {
		t.Fatalf("post-fault run: %v", err)
	}
	if memo.Entries() != 1 {
		t.Fatal("post-fault run did not publish")
	}
}

// TestMemoAppendPanicAbandonsBeforeUnwinding arms memo.append with a panic:
// the abandon must happen before the panic leaves memoIter.NextBatch, so no
// building entry is left in the map and the next run produces again.
func TestMemoAppendPanicAbandonsBeforeUnwinding(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	plan := algebra.NewShared(memoProducer(cat))

	ctx := NewContext(cat)
	ctx.Memo = memo
	ctx.Faults = faultinject.New(faultinject.Arm{Point: faultinject.PointMemoAppend, Kind: faultinject.KindPanic})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not surface")
			}
			// The entry was abandoned before the unwind reached us.
			if memo.Entries() != 0 {
				t.Fatal("panicking producer left its entry building")
			}
		}()
		Run(ctx, plan)
	}()

	c2 := NewContext(cat)
	c2.Memo = memo
	if _, err := Run(c2, plan); err != nil {
		t.Fatalf("post-panic run: %v", err)
	}
	if memo.Entries() != 1 {
		t.Fatal("memo unusable after producer panic")
	}
}
