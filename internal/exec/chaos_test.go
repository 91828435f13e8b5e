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

// TestChaosMemoProducerDeath sweeps every way an elected single-flight
// producer can die at the memo.elect and memo.append points — injected
// error, panic, delay — with a concurrent consumer attached, on a cold memo
// every round. The invariant: both runs terminate (a deadlocked waiter
// would hang the test), failures are typed, survivors return the baseline,
// and the same memo afterwards serves a clean run — i.e. producer death
// re-elects or fails, never leaves partial publications.
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
				name := fmt.Sprintf("%s/%s@%d", point, kind, after)
				t.Run(name, func(t *testing.T) {
					memo := NewMemo(0) // cold: the fault points actually fire
					fplan := faultinject.New(faultinject.Arm{Point: point, Kind: kind, After: after})
					var wg sync.WaitGroup
					for g := 0; g < 2; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							defer func() {
								recover() // injected panics surface raw at this layer
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
								t.Error("surviving run returned a wrong result")
							}
						}()
					}
					wg.Wait()

					after := NewContext(cat)
					after.Memo = memo
					out, err := Run(after, plan)
					if err != nil {
						t.Fatalf("post-fault run: %v", err)
					}
					if !out.Equal(baseline) {
						t.Fatal("post-fault run differs from baseline")
					}
				})
			}
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
