package exec

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
)

func intTuples(n int) []relation.Tuple {
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.NewTuple(relation.Int(int64(i)))
	}
	return ts
}

func TestGovernorTupleLimitAborts(t *testing.T) {
	cat := randomJoinCatalog(1, 300)
	plan := &algebra.Join{Left: scan(cat, "R"), Right: scan(cat, "S"),
		On: []algebra.ColPair{{Left: 1, Right: 0}}}
	ctx := NewContext(cat)
	ctx.Gov = NewGovernor(50, 0)
	out, err := Run(ctx, plan)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *ResourceError", err)
	}
	if re.Limit != "tuples" || re.Operator == "" {
		t.Fatalf("unexpected violation: %+v", re)
	}
	if out != nil {
		t.Fatal("got a result alongside the budget error")
	}
	if ctx.Stats.LimitsTripped != 1 {
		t.Fatalf("LimitsTripped = %d, want 1", ctx.Stats.LimitsTripped)
	}
}

func TestGovernorMemoryBudgetAborts(t *testing.T) {
	cat := randomJoinCatalog(2, 300)
	plan := &algebra.Join{Left: scan(cat, "R"), Right: scan(cat, "S"),
		On: []algebra.ColPair{{Left: 1, Right: 0}}}
	ctx := NewContext(cat)
	ctx.Gov = NewGovernor(0, 2048)
	_, err := Run(ctx, plan)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *ResourceError", err)
	}
	if re.Limit != "memory" {
		t.Fatalf("limit = %q, want memory", re.Limit)
	}
	if !strings.Contains(re.Error(), "memory budget exceeded") {
		t.Fatalf("message: %s", re.Error())
	}
}

func TestGovernorGenerousBudgetIsTransparent(t *testing.T) {
	cat := randomJoinCatalog(3, 200)
	plan := &algebra.Join{Left: scan(cat, "R"), Right: scan(cat, "S"),
		On: []algebra.ColPair{{Left: 1, Right: 0}}}
	want, err := Run(NewContext(cat), plan)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(cat)
	ctx.Gov = NewGovernor(1<<40, 1<<40)
	got, err := Run(ctx, plan)
	if err != nil {
		t.Fatalf("governed run failed: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("generous governor changed the result")
	}
	if ctx.Stats.LimitsTripped != 0 || ctx.Stats.DegradedEvictions != 0 {
		t.Fatalf("clean run recorded robustness events: %s", ctx.Stats)
	}
	if ctx.Gov.TuplesUsed() == 0 || ctx.Gov.BytesUsed() == 0 {
		t.Fatal("governor accounted nothing")
	}
}

// TestGovernorParallelRunAborts runs four joins in parallel against one
// governor whose budget none of them fits: every run aborts with the same
// pinned *ResourceError.
func TestGovernorParallelRunAborts(t *testing.T) {
	cat := randomJoinCatalog(4, 400)
	plan := &algebra.Join{Left: scan(cat, "R"), Right: scan(cat, "S"),
		On: []algebra.ColPair{{Left: 1, Right: 0}}}
	gov := NewGovernor(100, 0)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := NewContext(cat)
			ctx.Gov = gov
			_, errs[g] = Run(ctx, plan)
		}()
	}
	wg.Wait()
	var first *ResourceError
	for g, err := range errs {
		var re *ResourceError
		if !errors.As(err, &re) {
			t.Fatalf("run %d: err = %v, want *ResourceError", g, err)
		}
		if first == nil {
			first = re
		} else if re != first {
			t.Errorf("run %d reported %v, want the pinned %v", g, re, first)
		}
	}
}

// TestGovernorConcurrentCharges drives one governor from several goroutines
// and checks the budget is enforced
// exactly once and every loser observes the same pinned violation. An
// observer polls the usage accessors meanwhile, so under -race a counter
// that is charged atomically but read plainly is reported.
func TestGovernorConcurrentCharges(t *testing.T) {
	gov := NewGovernor(1000, 0)
	stop, observed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(observed)
		for {
			_, _, _ = gov.TuplesUsed(), gov.BytesUsed(), gov.Err()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var mu sync.Mutex
	var granted int64
	errs := make(map[*ResourceError]struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_, err := gov.charge("test", 1, 10)
				mu.Lock()
				if err == nil {
					granted++
				} else {
					var re *ResourceError
					if !errors.As(err, &re) {
						t.Errorf("charge error %v is not a *ResourceError", err)
					} else {
						errs[re] = struct{}{}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-observed
	if granted > 1000 {
		t.Fatalf("granted %d charges over a 1000-tuple budget", granted)
	}
	if len(errs) != 1 {
		t.Fatalf("workers observed %d distinct violations, want the single pinned one", len(errs))
	}
}

// TestGovernorShedsMemoUnderPressure checks graceful degradation: memory
// pressure first evicts warm memo entries, crediting the freed bytes, and
// only fails the query when shedding is not enough.
func TestGovernorShedsMemoUnderPressure(t *testing.T) {
	memo := NewMemo(0)
	warm := intTuples(10) // 10 × 64 = 640 estimated bytes
	if !publishEntry(memo, 1, 7, "warm", warm) {
		t.Fatal("publish warm entry")
	}

	gov := NewGovernor(0, 1000)
	gov.AttachMemo(memo)
	if _, err := gov.charge("op", 1, 900); err != nil {
		t.Fatalf("in-budget charge failed: %v", err)
	}
	evicted, err := gov.charge("op", 1, 200)
	if err != nil {
		t.Fatalf("charge should have been relieved by shedding: %v", err)
	}
	if evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if memo.Entries() != 0 {
		t.Fatalf("memo still holds %d entries", memo.Entries())
	}
	// 900 + 200 - 640 freed = 460 accounted.
	if got := gov.BytesUsed(); got != 460 {
		t.Fatalf("BytesUsed = %d, want 460", got)
	}
	// With nothing left to shed, the next oversized charge trips for good.
	if _, err := gov.charge("op", 1, 700); err == nil {
		t.Fatal("charge over budget with empty memo did not trip")
	}
	if gov.Err() == nil {
		t.Fatal("tripped governor reports no error")
	}
	if _, err := gov.charge("op", 1, 1); err == nil {
		t.Fatal("tripped governor accepted a later charge")
	}
}

// TestCheckIntervalBoundsCancelLatency pins the satellite fix: the context
// poll interval is configurable, and a small interval bounds — in tuples —
// how far a scan runs past cancellation.
func TestCheckIntervalBoundsCancelLatency(t *testing.T) {
	cat := randomJoinCatalog(5, 5000)
	goCtx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := NewContext(cat)
	ctx.CheckInterval = 8
	ctx.AttachContext(goCtx)
	if _, err := Run(ctx, scan(cat, "R")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ctx.Stats.BaseTuplesRead > 8 {
		t.Fatalf("read %d tuples past cancellation with CheckInterval=8", ctx.Stats.BaseTuplesRead)
	}
	// Default interval: the same run reads up to DefaultCheckInterval tuples.
	ctx2 := NewContext(cat)
	ctx2.AttachContext(goCtx)
	if _, err := Run(ctx2, scan(cat, "R")); !errors.Is(err, context.Canceled) {
		t.Fatalf("default interval: err = %v", err)
	}
	if ctx2.Stats.BaseTuplesRead > DefaultCheckInterval {
		t.Fatalf("read %d tuples, want ≤ %d", ctx2.Stats.BaseTuplesRead, DefaultCheckInterval)
	}
}

// TestGovernorOutputLimitOnScan checks the root Run loop itself is governed:
// even a plan with no materializing operator is bounded.
func TestGovernorOutputLimitOnScan(t *testing.T) {
	cat := randomJoinCatalog(6, 500)
	ctx := NewContext(cat)
	ctx.Gov = NewGovernor(10, 0)
	_, err := Run(ctx, scan(cat, "R"))
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *ResourceError", err)
	}
	if re.Operator != "output" {
		t.Fatalf("operator = %q, want output", re.Operator)
	}
}
