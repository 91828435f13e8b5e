package exec

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/faultinject"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// chaosSeedCount returns how many seeds the chaos sweeps cover: 16 by
// default, overridden by the CHAOS_SEEDS environment variable (the `make
// chaos` gate raises it).
func chaosSeedCount(t testing.TB) int64 {
	t.Helper()
	n := int64(16)
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 1 {
			t.Fatalf("bad CHAOS_SEEDS %q", s)
		}
		n = v
	}
	return n
}

// chaosPlan covers every injection point in one plan: base scans
// (iter.open/iter.next) under a join, and a Shared producer whose spool
// publishes into the memo (memo.publish).
func chaosPlan(cat *storage.Catalog) algebra.Plan {
	join := &algebra.Join{Left: scan(cat, "R"), Right: scan(cat, "S"),
		On: []algebra.ColPair{{Left: 1, Right: 0}}}
	sh := algebra.NewShared(&algebra.Project{Input: join, Cols: []int{0, 2}})
	return &algebra.Union{
		Left:  sh,
		Right: &algebra.Select{Input: sh, Pred: algebra.True{}},
	}
}

// TestChaosMemoProducerDeath sweeps every way a memo producer can die at
// the memo.elect and memo.append points — injected error, panic, delay —
// while a second execution runs the same plan on the same cold memo (and
// finds the entry complete, absent or still building, in which case it
// evaluates privately). See chaosProducerDeathRound for the invariant.
func TestChaosMemoProducerDeath(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := randomJoinCatalog(43, 150)
	plan := chaosPlan(cat)
	baseline, err := Run(NewContext(cat), plan)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	points := []string{faultinject.PointMemoElect, faultinject.PointMemoAppend}
	kinds := []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindDelay}
	for _, point := range points {
		for _, kind := range kinds {
			for after := int64(1); after <= 3; after++ {
				arm := faultinject.Arm{Point: point, Kind: kind, After: after}
				t.Run(fmt.Sprintf("%s/%s@%d", point, kind, after), func(t *testing.T) {
					chaosProducerDeathRound(t, cat, plan, baseline, arm, 0)
				})
			}
		}
	}
}

// chaosProducerDeathRound runs plan from two goroutines on one cold memo
// with arm installed (batchSize 0 = the default block capacity). Both runs
// must terminate; failures are the injected ones; survivors return the
// baseline. A delay arm fails nothing, so its round is clean: every Shared
// evaluation is a hit or a miss (2 references × 2 runs) and no spool is
// abandoned. Afterwards a clean run on the same memo returns the baseline
// and publishes, and the run after it replays the complete entry without
// reading a base tuple — a dead producer abandons, and the next evaluation
// produces again.
func chaosProducerDeathRound(t *testing.T, cat *storage.Catalog, plan algebra.Plan, baseline *relation.Relation, arm faultinject.Arm, batchSize int) {
	t.Helper()
	memo := NewMemo(0) // cold: the fault points actually fire
	fplan := faultinject.New(arm)
	newCtx := func() *Context {
		ctx := NewContext(cat)
		ctx.Memo = memo
		ctx.BatchSize = batchSize
		return ctx
	}
	ctxs := []*Context{newCtx(), newCtx()}
	var wg sync.WaitGroup
	for _, ctx := range ctxs {
		ctx.Faults = fplan
		ctx.CheckInterval = GovernedCheckInterval
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				recover() // injected panics surface raw at this layer
			}()
			out, err := Run(ctx, plan)
			if err != nil {
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Errorf("non-injected error: %v", err)
				}
			} else if !out.Equal(baseline) {
				t.Error("surviving run returned a wrong result")
			}
		}()
	}
	wg.Wait()
	if arm.Kind == faultinject.KindDelay {
		var agg Stats
		for _, ctx := range ctxs {
			agg.Add(*ctx.Stats)
		}
		if agg.CacheHits+agg.CacheMisses != 4 {
			t.Errorf("clean round: hits(%d)+misses(%d) != 4", agg.CacheHits, agg.CacheMisses)
		}
		if agg.CacheSpoolsAbandoned != 0 || memo.SpoolsAbandoned() != 0 {
			t.Errorf("clean round abandoned %d spools", memo.SpoolsAbandoned())
		}
	}

	for i := 0; i < 2; i++ {
		ctx := newCtx()
		out, err := Run(ctx, plan)
		if err != nil {
			t.Fatalf("post-fault run %d: %v", i, err)
		}
		if !out.Equal(baseline) {
			t.Fatalf("post-fault run %d differs from baseline", i)
		}
		if i == 1 && (ctx.Stats.CacheMisses != 0 || ctx.Stats.BaseTuplesRead != 0) {
			t.Fatalf("second post-fault run did not replay the complete entry: %s", ctx.Stats)
		}
	}
}

// TestChaosSeededSweep arms one deterministically derived fault per seed and
// asserts, for every seed: the process survives (an injected panic surfaces
// raw and recoverable), the
// fault surfaces as an injected error when it is an error, and afterwards
// the same catalog and the same memo answer a fresh run with exactly the
// fault-free result — i.e. no truncated memo entry, no corrupted catalog,
// no leaked goroutine.
func TestChaosSeededSweep(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := randomJoinCatalog(42, 200)
	plan := chaosPlan(cat)
	baseline, err := Run(NewContext(cat), plan)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	memo := NewMemo(0) // shared across all seeds: survivability includes the cache
	seeds := chaosSeedCount(t)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fplan := faultinject.Seeded(seed)
			func() {
				defer func() {
					recover() // injected panics surface raw at this layer; the engine boundary lives in core
				}()
				ctx := NewContext(cat)
				ctx.Memo = memo
				ctx.Faults = fplan
				ctx.CheckInterval = GovernedCheckInterval
				out, err := Run(ctx, plan)
				if err != nil {
					if !errors.Is(err, faultinject.ErrInjected) {
						t.Errorf("non-injected error: %v", err)
					}
				} else if !out.Equal(baseline) {
					// Delay faults (and error faults that fire after the
					// relevant drain) must not change the answer.
					t.Error("survived run returned a wrong result")
				}
			}()

			// Post-fault health: same catalog, same memo, no faults.
			after := NewContext(cat)
			after.Memo = memo
			out, err := Run(after, plan)
			if err != nil {
				t.Fatalf("post-fault run: %v", err)
			}
			if !out.Equal(baseline) {
				t.Fatal("post-fault run differs from baseline (cache-on ≡ cache-off broken)")
			}
		})
	}
}
