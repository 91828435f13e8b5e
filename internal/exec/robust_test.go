package exec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/algebra"
	"repro/internal/faultinject"
	"repro/internal/testutil"
)

// TestMemoMidSpoolCancelNotPublished aborts a Shared drain mid-spool via
// context cancellation and checks the entry is never published truncated,
// the next evaluation re-spools, and the hit/miss/spool counters stay
// consistent.
func TestMemoMidSpoolCancelNotPublished(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	plan := algebra.NewShared(memoProducer(cat))

	goCtx, cancel := context.WithCancel(context.Background())
	ctx := NewContext(cat)
	ctx.Memo = memo
	ctx.CheckInterval = 1
	ctx.AttachContext(goCtx)
	it, err := Build(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	it.Open()
	if _, ok := it.NextBatch(1); !ok {
		t.Fatal("producer is non-empty")
	}
	cancel() // mid-spool: at least one tuple pulled, more remain
	for {
		if _, ok := it.NextBatch(1); !ok {
			break
		}
	}
	it.Close()
	if !errors.Is(ctx.CancelErr(), context.Canceled) {
		t.Fatalf("CancelErr = %v, want context.Canceled", ctx.CancelErr())
	}
	if memo.Entries() != 0 {
		t.Fatal("cancelled drain published a truncated entry")
	}
	if ctx.Stats.CacheMisses != 1 || ctx.Stats.CacheHits != 0 {
		t.Fatalf("counters after aborted spool: %s", ctx.Stats)
	}

	// The next evaluation re-spools from scratch and publishes.
	c2 := NewContext(cat)
	c2.Memo = memo
	want, err := Run(c2, plan)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Stats.CacheMisses != 1 || c2.Stats.CacheHits != 0 || c2.Stats.CacheTuplesSpooled != int64(want.Len()) {
		t.Fatalf("re-spool counters: %s", c2.Stats)
	}
	if memo.Entries() != 1 {
		t.Fatal("full re-drain should publish")
	}

	// And the third evaluation replays it.
	c3 := NewContext(cat)
	c3.Memo = memo
	got, err := Run(c3, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("replayed result differs")
	}
	if c3.Stats.CacheHits != 1 || c3.Stats.CacheMisses != 0 {
		t.Fatalf("warm counters: %s", c3.Stats)
	}
}

// TestMemoSpoolAbortedByInjectedFault aborts the drain through an injected
// iterator error instead of a cancellation.
func TestMemoSpoolAbortedByInjectedFault(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	plan := algebra.NewShared(memoProducer(cat))

	ctx := NewContext(cat)
	ctx.Memo = memo
	ctx.Faults = faultinject.New(faultinject.Arm{Point: faultinject.PointIterNext, Kind: faultinject.KindError, After: 2})
	_, err := Run(ctx, plan)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if memo.Entries() != 0 {
		t.Fatal("aborted spool was published")
	}

	c2 := NewContext(cat)
	c2.Memo = memo
	if _, err := Run(c2, plan); err != nil {
		t.Fatalf("post-fault evaluation: %v", err)
	}
	if memo.Entries() != 1 {
		t.Fatal("post-fault evaluation did not publish")
	}
}

// TestMemoPublishFaultLeavesMemoConsistent arms the memo.publish point: the
// query fails, nothing is published, and the memo keeps serving.
func TestMemoPublishFaultLeavesMemoConsistent(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	plan := algebra.NewShared(memoProducer(cat))

	ctx := NewContext(cat)
	ctx.Memo = memo
	ctx.Faults = faultinject.New(faultinject.Arm{Point: faultinject.PointMemoPublish, Kind: faultinject.KindError})
	_, err := Run(ctx, plan)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if memo.Entries() != 0 {
		t.Fatal("publish-point fault still published")
	}

	c2 := NewContext(cat)
	c2.Memo = memo
	if _, err := Run(c2, plan); err != nil {
		t.Fatalf("post-fault evaluation: %v", err)
	}
	if memo.Entries() != 1 {
		t.Fatal("memo unusable after publish fault")
	}
}

// TestGovernorAbortsSpoolMidDrain: a memory budget that the spool itself
// exceeds aborts the query, and the truncated spool is not published.
func TestGovernorAbortsSpoolMidDrain(t *testing.T) {
	cat := ptuCatalog(t)
	memo := NewMemo(0)
	plan := algebra.NewShared(memoProducer(cat))

	ctx := NewContext(cat)
	ctx.Memo = memo
	ctx.Gov = NewGovernor(1, 0)
	_, err := Run(ctx, plan)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *ResourceError", err)
	}
	if memo.Entries() != 0 {
		t.Fatal("budget-aborted spool was published")
	}
	// The spooled-tuple counter alone would overstate cache work here; the
	// abandoned counter records that the spool bought nothing.
	if ctx.Stats.CacheSpoolsAbandoned != 1 {
		t.Fatalf("CacheSpoolsAbandoned = %d, want 1: %s", ctx.Stats.CacheSpoolsAbandoned, ctx.Stats)
	}
	if memo.SpoolsAbandoned() != 1 {
		t.Fatalf("memo.SpoolsAbandoned() = %d, want 1", memo.SpoolsAbandoned())
	}
}
