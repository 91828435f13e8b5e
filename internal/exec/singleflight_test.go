package exec

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/faultinject"
	"repro/internal/relation"
	"repro/internal/testutil"
)

// feedIter is a channel-fed iterator: each tuple sent on ch is yielded as a
// one-tuple block, and closing ch ends the stream. Tests use it to hold a
// memo producer at an exact spool position while consumers attach.
type feedIter struct {
	ch <-chan relation.Tuple
	b  Batch
}

// next1 pulls one block of demand 1 and returns its tuple.
func next1(it Iterator) (relation.Tuple, bool) {
	b, ok := it.NextBatch(1)
	if !ok {
		return nil, false
	}
	return b.Tuples[0], true
}

func (it *feedIter) Open() {}
func (it *feedIter) NextBatch(int) (*Batch, bool) {
	t, ok := <-it.ch
	if !ok {
		return nil, false
	}
	it.b.Tuples = []relation.Tuple{t}
	return &it.b, true
}
func (it *feedIter) Close() {}

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

// boomIter fails the test if anything opens or drains it: consumers that
// stream from a producer's spool must never evaluate their own input.
type boomIter struct{ t *testing.T }

func (it *boomIter) Open() { it.t.Error("consumer opened its input") }
func (it *boomIter) NextBatch(int) (*Batch, bool) {
	it.t.Error("consumer evaluated its input")
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

// drainAsync drains it on its own goroutine, streaming tuples out one per
// read so the test controls interleaving.
func drainAsync(it Iterator) (<-chan relation.Tuple, <-chan struct{}) {
	out := make(chan relation.Tuple)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(out)
		defer it.Close()
		it.Open()
		for {
			t, ok := next1(it)
			if !ok {
				return
			}
			out <- t
		}
	}()
	return out, done
}

// TestMemoConsumerStreamsBeforeCompletion is the deterministic core of the
// single-flight design: a consumer attached to an in-flight spool receives
// tuples while the producer is still mid-drain — it neither re-evaluates
// its input nor waits for publication.
func TestMemoConsumerStreamsBeforeCompletion(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := ptuCatalog(t)
	memo := NewMemo(0)

	feed := make(chan relation.Tuple)
	prodCtx := NewContext(cat)
	prodCtx.Memo = memo
	prod := &memoIter{ctx: prodCtx, in: &feedIter{ch: feed}, fp: 991, key: "gated"}

	consCtx := NewContext(cat)
	consCtx.Memo = memo
	cons := &memoIter{ctx: consCtx, in: &boomIter{t: t}, fp: 991, key: "gated"}

	ts := tupleSeq(1, 2, 3)
	prodOut, prodDone := drainAsync(prod)

	// Elect the producer and park it mid-spool after one tuple.
	feed <- ts[0]
	if got := <-prodOut; !got.Equal(ts[0]) {
		t.Fatalf("producer yielded %v", got)
	}

	// The consumer attaches while the entry is building and immediately
	// streams the already-spooled prefix.
	consOut, consDone := drainAsync(cons)
	if got := <-consOut; !got.Equal(ts[0]) {
		t.Fatalf("consumer streamed %v, want %v", got, ts[0])
	}
	if memo.Entries() != 1 {
		t.Fatal("entry should be in flight")
	}

	// Feed the rest; both sides see every tuple, then EOF after the close.
	feed <- ts[1]
	if got := <-prodOut; !got.Equal(ts[1]) {
		t.Fatalf("producer yielded %v", got)
	}
	if got := <-consOut; !got.Equal(ts[1]) {
		t.Fatalf("consumer streamed %v", got)
	}
	feed <- ts[2]
	<-prodOut
	<-consOut
	close(feed)
	<-prodDone
	<-consDone

	if consCtx.Stats.CacheDuplicatesAvoided != 1 {
		t.Fatalf("duplicates avoided = %d, want 1", consCtx.Stats.CacheDuplicatesAvoided)
	}
	if consCtx.Stats.CacheTuplesReplayed != 3 {
		t.Fatalf("consumer replayed %d tuples, want 3", consCtx.Stats.CacheTuplesReplayed)
	}
	if consCtx.Stats.CacheSingleFlightWaits == 0 {
		t.Fatal("consumer never blocked — the interleaving did not exercise the wait path")
	}
	if prodCtx.Stats.CacheMisses != 1 || prodCtx.Stats.CacheTuplesSpooled != 3 {
		t.Fatalf("producer stats: %s", prodCtx.Stats)
	}
	if memo.Entries() != 1 || memo.Tuples() != 3 {
		t.Fatalf("publication: entries=%d tuples=%d", memo.Entries(), memo.Tuples())
	}
}

// TestMemoProducerDeathReelection kills an elected producer mid-spool (early
// Close — the same path cancellation and panics funnel through) and checks
// an attached consumer is re-elected, resumes from scratch skipping the
// prefix it already delivered, and publishes the complete result.
func TestMemoProducerDeathReelection(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	ts := tupleSeq(10, 20, 30)

	feed := make(chan relation.Tuple, 1)
	prodCtx := NewContext(cat)
	prodCtx.Memo = memo
	prod := &memoIter{ctx: prodCtx, in: &feedIter{ch: feed}, fp: 992, key: "gated"}

	consCtx := NewContext(cat)
	consCtx.Memo = memo
	cons := &memoIter{ctx: consCtx, in: &listIter{ts: ts}, fp: 992, key: "gated"}

	prod.Open()
	feed <- ts[0] // buffered: the synchronous producer finds it at Next
	if got, ok := next1(prod); !ok || !got.Equal(ts[0]) {
		t.Fatalf("producer first Next: %v %v", got, ok)
	}

	consOut, consDone := drainAsync(cons)
	if got := <-consOut; !got.Equal(ts[0]) {
		t.Fatalf("consumer streamed %v", got)
	}

	// The producer dies with the consumer attached at pos 1.
	prod.Close()
	if prodCtx.Stats.CacheSpoolsAbandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", prodCtx.Stats.CacheSpoolsAbandoned)
	}

	// The consumer is re-elected, re-evaluates its own input, skips the one
	// tuple it already delivered, and finishes the stream.
	var rest []relation.Tuple
	for got := range consOut {
		rest = append(rest, got)
	}
	<-consDone
	if len(rest) != 2 || !rest[0].Equal(ts[1]) || !rest[1].Equal(ts[2]) {
		t.Fatalf("post-death stream = %v, want %v", rest, ts[1:])
	}
	if consCtx.Stats.CacheDuplicatesAvoided != 1 || consCtx.Stats.CacheMisses != 1 {
		t.Fatalf("consumer stats: %s", consCtx.Stats)
	}

	// The re-elected producer published the complete result; a fresh run
	// replays all three tuples.
	if memo.Entries() != 1 || memo.Tuples() != 3 {
		t.Fatalf("re-elected publication: entries=%d tuples=%d", memo.Entries(), memo.Tuples())
	}
	warmCtx := NewContext(cat)
	warmCtx.Memo = memo
	warm := &memoIter{ctx: warmCtx, in: &boomIter{t: t}, fp: 992, key: "gated"}
	warm.Open()
	for _, want := range ts {
		got, ok := next1(warm)
		if !ok || !got.Equal(want) {
			t.Fatalf("warm replay got %v %v, want %v", got, ok, want)
		}
	}
	if _, ok := next1(warm); ok {
		t.Fatal("warm replay overran")
	}
	warm.Close()
}

// TestMemoOverflowSendsConsumersPrivate overflows the memo budget mid-spool:
// the producer abandons and keeps streaming privately, and an attached
// consumer falls back to its own private evaluation (skipping the delivered
// prefix) instead of being re-elected into the same wall.
func TestMemoOverflowSendsConsumersPrivate(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := ptuCatalog(t)
	memo := NewMemo(2) // third append overflows
	ts := tupleSeq(1, 2, 3, 4)

	feed := make(chan relation.Tuple)
	prodCtx := NewContext(cat)
	prodCtx.Memo = memo
	prod := &memoIter{ctx: prodCtx, in: &feedIter{ch: feed}, fp: 993, key: "gated"}

	consCtx := NewContext(cat)
	consCtx.Memo = memo
	cons := &memoIter{ctx: consCtx, in: &listIter{ts: ts}, fp: 993, key: "gated"}

	prodOut, prodDone := drainAsync(prod)
	feed <- ts[0]
	<-prodOut

	consOut, consDone := drainAsync(cons)
	if got := <-consOut; !got.Equal(ts[0]) {
		t.Fatalf("consumer streamed %v", got)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // unblock the feed: the producer drains the rest
		defer wg.Done()
		feed <- ts[1]
		feed <- ts[2] // this append overflows the budget
		feed <- ts[3]
		close(feed)
	}()

	var prodGot, consGot []relation.Tuple
	prodGot = append(prodGot, ts[0])
	consGot = append(consGot, ts[0])
	for t := range prodOut {
		prodGot = append(prodGot, t)
	}
	for t := range consOut {
		consGot = append(consGot, t)
	}
	wg.Wait()
	<-prodDone
	<-consDone

	for i, want := range ts {
		if i >= len(prodGot) || !prodGot[i].Equal(want) {
			t.Fatalf("producer stream %v, want %v — overflow truncated it", prodGot, ts)
		}
		if i >= len(consGot) || !consGot[i].Equal(want) {
			t.Fatalf("consumer stream %v, want %v — overflow truncated it", consGot, ts)
		}
	}
	if memo.Entries() != 0 || memo.Tuples() != 0 {
		t.Fatalf("overflowed entry retained: entries=%d tuples=%d", memo.Entries(), memo.Tuples())
	}
	if memo.SpoolsAbandoned() != 1 {
		t.Fatalf("SpoolsAbandoned = %d, want 1", memo.SpoolsAbandoned())
	}
	if prodCtx.Stats.CacheSpoolsAbandoned != 1 {
		t.Fatalf("producer abandoned counter: %s", prodCtx.Stats)
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
	var got []relation.Tuple
	for {
		t, ok := next1(it)
		if !ok {
			break
		}
		got = append(got, t)
	}
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
// shared memo, the same fingerprint, all cold. Exactly one evaluates the
// producer subtree; everyone else replays or streams, and every result
// equals the cache-off baseline.
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
		i := i
		ctxs[i] = NewContext(cat)
		ctxs[i].Memo = memo
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
	// Exactly one producer evaluation: one miss, and the base relations were
	// read exactly once across all n runs (|P|+|T| = 7).
	if agg.CacheMisses != 1 {
		t.Fatalf("CacheMisses = %d, want exactly 1 (single flight)", agg.CacheMisses)
	}
	if agg.CacheHits+agg.CacheDuplicatesAvoided != n-1 {
		t.Fatalf("hits(%d) + duplicates avoided(%d) = %d, want %d",
			agg.CacheHits, agg.CacheDuplicatesAvoided, agg.CacheHits+agg.CacheDuplicatesAvoided, n-1)
	}
	if agg.BaseTuplesRead != 7 {
		t.Fatalf("BaseTuplesRead = %d, want 7 (one producer evaluation)", agg.BaseTuplesRead)
	}
	if agg.CacheSpoolsAbandoned != 0 {
		t.Fatalf("clean hammer abandoned %d spools", agg.CacheSpoolsAbandoned)
	}
}

// TestMemoSelfNestedSharedDoesNotDeadlock drains two iterators of the same
// fingerprint interleaved on one goroutine (one context): the second must
// detect its own execution as the producer and go private instead of
// blocking forever.
func TestMemoSelfNestedSharedDoesNotDeadlock(t *testing.T) {
	cat := ptuCatalog(t)
	ts := tupleSeq(1, 2)
	ctx := NewContext(cat)
	ctx.Memo = NewMemo(0)

	a := &memoIter{ctx: ctx, in: &listIter{ts: ts}, fp: 995, key: "gated"}
	b := &memoIter{ctx: ctx, in: &listIter{ts: ts}, fp: 995, key: "gated"}
	a.Open()
	b.Open()
	if got, ok := next1(a); !ok || !got.Equal(ts[0]) {
		t.Fatalf("a first: %v %v", got, ok)
	}
	// b finds a building entry owned by its own execution: private fallback.
	if got, ok := next1(b); !ok || !got.Equal(ts[0]) {
		t.Fatalf("b first: %v %v", got, ok)
	}
	if ctx.Stats.CacheMisses != 2 || ctx.Stats.CacheDuplicatesAvoided != 0 {
		t.Fatalf("self-nested stats: %s", ctx.Stats)
	}
	for _, it := range []Iterator{a, b} {
		if got, ok := next1(it); !ok || !got.Equal(ts[1]) {
			t.Fatalf("second tuple: %v %v", got, ok)
		}
		if _, ok := next1(it); ok {
			t.Fatal("overrun")
		}
	}
	a.Close()
	b.Close()
	if ctx.Memo.Entries() != 1 {
		t.Fatal("producer a should still have published")
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
// the abandon must happen before the panic leaves memoIter.NextBatch, so any
// attached consumer is woken rather than deadlocked.
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

// TestMemoReelectionUnderInjectedProducerDeath is the concurrent version of
// the fault tests: a producer killed at memo.append with a live consumer
// attached; the consumer must be re-elected and deliver the full result.
func TestMemoReelectionUnderInjectedProducerDeath(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	ts := tupleSeq(7, 8, 9)

	feed := make(chan relation.Tuple)
	prodCtx := NewContext(cat)
	prodCtx.Memo = memo
	prodCtx.Faults = faultinject.New(faultinject.Arm{Point: faultinject.PointMemoAppend, Kind: faultinject.KindError, After: 2})
	prod := &memoIter{ctx: prodCtx, in: &feedIter{ch: feed}, fp: 996, key: "gated"}

	consCtx := NewContext(cat)
	consCtx.Memo = memo
	cons := &memoIter{ctx: consCtx, in: &listIter{ts: ts}, fp: 996, key: "gated"}

	prodOut, prodDone := drainAsync(prod)
	feed <- ts[0]
	<-prodOut

	consOut, consDone := drainAsync(cons)
	if got := <-consOut; !got.Equal(ts[0]) {
		t.Fatalf("consumer streamed %v", got)
	}

	// The second append fires the injected error: the producer abandons
	// (still yielding the in-hand tuple) and stops; it never reads the feed
	// again, so close it now.
	feed <- ts[1]
	close(feed)
	var consGot []relation.Tuple
	consGot = append(consGot, ts[0])
	for t := range consOut {
		consGot = append(consGot, t)
	}
	for range prodOut {
	}
	<-prodDone
	<-consDone

	if len(consGot) != 3 {
		t.Fatalf("consumer stream = %v, want %v", consGot, ts)
	}
	for i, want := range ts {
		if !consGot[i].Equal(want) {
			t.Fatalf("consumer stream diverges at %d: %v", i, consGot)
		}
	}
	if !errors.Is(prodCtx.CancelErr(), faultinject.ErrInjected) {
		t.Fatalf("producer CancelErr = %v", prodCtx.CancelErr())
	}
	// The re-elected consumer published the full result.
	if memo.Entries() != 1 || memo.Tuples() != 3 {
		t.Fatalf("entries=%d tuples=%d after re-election", memo.Entries(), memo.Tuples())
	}
}
