package core

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/testutil"
)

// chaosSeedCount mirrors the exec-layer sweep: 16 seeds by default, raised
// via CHAOS_SEEDS by the `make chaos` gate.
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

// robustClosedQuery is the sweep's closed ∀/∃ query: it runs through
// EvalBool's demand-1 emptiness probes, not Run.
const robustClosedQuery = `forall x: student(x) => (x < "s45" or exists y: attends(x, y))`

// sameAnswer compares two results of one query: rows when open, truth when
// closed.
func sameAnswer(a, b *Result) bool {
	if a.Open {
		return a.Rows.Equal(b.Rows)
	}
	return a.Truth == b.Truth
}

// TestChaosEngineSurvivesSeededFaults is the engine-boundary counterpart of
// the exec sweep: one seeded fault per query per iteration against a cached
// engine, for an open query (Run) and a closed one (EvalBool
// probes). For every seed each call must return — typed error or correct
// result, never a crash — and after clearing the plan the SAME engine (same
// catalog, same warm plan cache) must answer exactly the fault-free answer.
func TestChaosEngineSurvivesSeededFaults(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := robustDB()
	baseline := NewEngine(db) // cache-off reference
	queries := []string{robustQuery, robustClosedQuery}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = baseline.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	eng := NewEngine(db, WithPlanCache(0))
	seeds := chaosSeedCount(t)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for i, q := range queries {
				eng.Configure(WithFaultPlan(faultinject.Seeded(seed)))
				res, err := eng.Query(q)
				if err != nil {
					assertTypedError(t, err)
					if !errors.Is(err, faultinject.ErrInjected) {
						// Panic arms do not carry the sentinel; they must at
						// least have crossed the recovery boundary.
						var ee *ExecError
						if !errors.As(err, &ee) {
							t.Fatalf("seed %d %q: untyped failure %T(%v)", seed, q, err, err)
						}
					}
				} else if !sameAnswer(res, want[i]) {
					t.Fatalf("seed %d %q: survived run returned a wrong result", seed, q)
				}

				// Post-fault health on the same engine: cache-on must still
				// equal the cache-off baseline.
				eng.Configure(WithFaultPlan(nil))
				res, err = eng.Query(q)
				if err != nil {
					t.Fatalf("seed %d %q: post-fault query: %v", seed, q, err)
				}
				if !sameAnswer(res, want[i]) {
					t.Fatalf("seed %d %q: post-fault answer differs (cache-on ≢ cache-off)", seed, q)
				}
			}
		})
	}
}
