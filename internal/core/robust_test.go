package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/relation"
	"repro/internal/testutil"
)

// robustDB is a university small enough for fast sweeps but large enough
// that every drain runs for dozens of tuples (so mid-drain faults and
// budget trips have room to fire).
func robustDB() *DB {
	db := NewDB()
	st := db.MustDefine("student", "name")
	att := db.MustDefine("attends", "name", "lecture")
	lec := db.MustDefine("lecture", "id")
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("s%02d", i)
		st.InsertValues(relation.Str(name))
		if i%3 != 0 {
			att.InsertValues(relation.Str(name), relation.Str(fmt.Sprintf("l%d", i%5)))
		}
	}
	for i := 0; i < 5; i++ {
		lec.InsertValues(relation.Str(fmt.Sprintf("l%d", i)))
	}
	return db
}

const robustQuery = `{ x | student(x) and not exists y: attends(x, y) }`

func assertTypedError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a typed error, got nil")
	}
	var ee *ExecError
	var ple *PlanError
	var re *ResourceError
	if !errors.As(err, &ee) && !errors.As(err, &ple) && !errors.As(err, &re) {
		t.Fatalf("error %T(%v) is not in the typed family", err, err)
	}
}

func TestWithTupleLimitAborts(t *testing.T) {
	eng := NewEngine(robustDB(), WithTupleLimit(5))
	_, err := eng.Query(robustQuery)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T(%v), want *ResourceError", err, err)
	}
	if re.Limit != "tuples" {
		t.Fatalf("limit = %q, want tuples", re.Limit)
	}
	if s := eng.Snapshot(); s.LimitsTripped < 1 || s.Runs != 1 {
		t.Fatalf("the failed run must count and its trip must be recorded: %+v", s)
	}
	// The same engine, unbounded, answers immediately afterwards.
	eng.Configure(WithTupleLimit(0))
	res, err := eng.Query(robustQuery)
	if err != nil || res.Rows.Len() != 20 {
		t.Fatalf("post-trip query: %v (rows=%v)", err, res)
	}
}

func TestWithMemoryBudgetAborts(t *testing.T) {
	eng := NewEngine(robustDB(), WithMemoryBudget(512))
	_, err := eng.Query(robustQuery)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T(%v), want *ResourceError", err, err)
	}
	if re.Limit != "memory" {
		t.Fatalf("limit = %q, want memory", re.Limit)
	}
}

// TestCoddCartesianBlowupBounded pins the acceptance criterion: the Codd
// reduction's cartesian product of domain ranges — the paper's motivating
// blowup — is aborted deterministically by a tuple budget.
func TestCoddCartesianBlowupBounded(t *testing.T) {
	// The answer has 20 rows, but the Codd reduction materializes domain
	// products worth thousands of tuples on the way; Bry needs under 500.
	var first *ResourceError
	for run := 0; run < 2; run++ {
		eng := NewEngine(robustDB(), WithStrategy(StrategyCodd), WithTupleLimit(1000))
		_, err := eng.Query(robustQuery)
		var re *ResourceError
		if !errors.As(err, &re) {
			t.Fatalf("run %d: err = %T(%v), want *ResourceError", run, err, err)
		}
		if re.Limit != "tuples" || re.Used <= 1000 {
			t.Fatalf("run %d: violation %+v", run, re)
		}
		if first == nil {
			first = re
		} else if re.Limit != first.Limit || re.Operator != first.Operator || re.Used != first.Used {
			t.Fatalf("non-deterministic abort: %+v vs %+v", first, re)
		}
		// Bry evaluates the same query under the same budget without
		// tripping: the enforcement layer rewards the better plan shape.
		bry := NewEngine(robustDB(), WithTupleLimit(1000))
		if _, err := bry.Query(robustQuery); err != nil {
			t.Fatalf("Bry strategy tripped the same budget: %v", err)
		}
	}
}

func TestPerCallLimitOverride(t *testing.T) {
	eng := NewEngine(robustDB())
	// Unbounded engine, bounded call.
	ctx := WithQueryLimits(context.Background(), Limits{Tuples: 3})
	_, err := eng.QueryContext(ctx, robustQuery)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("per-call limit: err = %T(%v), want *ResourceError", err, err)
	}
	// Bounded engine, generous call: the override replaces the engine bound.
	eng.Configure(WithTupleLimit(3))
	if _, err := eng.Query(robustQuery); err == nil {
		t.Fatal("engine-level limit did not trip")
	}
	res, err := eng.QueryContext(WithQueryLimits(context.Background(), Limits{Tuples: 1 << 30}), robustQuery)
	if err != nil || res.Rows.Len() != 20 {
		t.Fatalf("generous override: %v", err)
	}
	// A zero override disables budgets for that call entirely.
	if _, err := eng.QueryContext(WithQueryLimits(context.Background(), Limits{}), robustQuery); err != nil {
		t.Fatalf("zero override: %v", err)
	}
}

// TestMemoryPressureShedsPlanCache: graceful degradation at engine level —
// under a budget smaller than the warm cache entry, the engine sheds the
// entry, credits the freed bytes, and the query still completes.
func TestMemoryPressureShedsPlanCache(t *testing.T) {
	eng := NewEngine(robustDB(), WithPlanCache(0))
	want, err := eng.Query(robustQuery)
	if err != nil {
		t.Fatal(err)
	}
	if entries := eng.Snapshot().CacheEntries; entries < 1 {
		t.Fatal("warm-up query did not populate the plan cache")
	}
	eng.Configure(WithMemoryBudget(256))
	res, err := eng.Query(robustQuery)
	if err != nil {
		t.Fatalf("degraded query failed outright: %v", err)
	}
	if !res.Rows.Equal(want.Rows) {
		t.Fatal("degraded query changed the answer")
	}
	if res.Stats.DegradedEvictions < 1 {
		t.Fatalf("expected shed entries, stats: %s", &res.Stats)
	}
	if entries := eng.Snapshot().CacheEntries; entries != 0 {
		t.Fatalf("cache still holds %d entries after shedding", entries)
	}
	if eng.Snapshot().DegradedEvictions < 1 {
		t.Fatal("cumulative DegradedEvictions not recorded")
	}
}

// TestEveryInjectionPointSurfacesTyped pins the acceptance criterion: an
// injected error or panic at every registered point surfaces as a typed
// error — never a crash — and the engine answers the same query correctly
// once the fault plan is removed.
func TestEveryInjectionPointSurfacesTyped(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := robustDB()
	baseline := NewEngine(db)
	want, err := baseline.Query(robustQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range faultinject.Points() {
		for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindPanic} {
			t.Run(fmt.Sprintf("%s-%s", pt, kind), func(t *testing.T) {
				fp := faultinject.New(faultinject.Arm{Point: pt, Kind: kind})
				eng := NewEngine(db, WithPlanCache(0), WithFaultPlan(fp))
				_, err := eng.Query(robustQuery)
				if fired := fp.Fired(); len(fired) != 1 {
					t.Fatalf("arm did not fire on this plan (fired=%v)", fired)
				}
				assertTypedError(t, err)
				if kind == faultinject.KindError && !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("injected error lost its sentinel: %v", err)
				}
				if kind == faultinject.KindPanic {
					var ee *ExecError
					if !errors.As(err, &ee) {
						t.Fatalf("panic fault = %T(%v), want *ExecError", err, err)
					}
					var pe *exec.PanicError
					if !errors.As(err, &pe) {
						t.Fatalf("ExecError does not unwrap to *PanicError: %v", err)
					}
					if eng.Snapshot().PanicsRecovered < 1 {
						t.Fatal("recovered panic not counted")
					}
				}
				// The same engine heals once the plan is removed.
				eng.Configure(WithFaultPlan(nil))
				res, err := eng.Query(robustQuery)
				if err != nil {
					t.Fatalf("post-fault query: %v", err)
				}
				if !res.Rows.Equal(want.Rows) {
					t.Fatal("post-fault answer differs from baseline")
				}
			})
		}
	}
}

// TestStreamContextGuarded: the streaming entry point shares the isolation
// boundary — a scan panic mid-stream surfaces typed, with partial stats.
func TestStreamContextGuarded(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := robustDB()
	eng := NewEngine(db,
		WithFaultPlan(faultinject.New(faultinject.Arm{Point: faultinject.PointIterNext, Kind: faultinject.KindPanic})))
	p, err := eng.Prepare(robustQuery)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.StreamContext(context.Background(), p, func(relation.Tuple) bool { return true })
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %T(%v), want *ExecError", err, err)
	}
	if ee.Stage != "stream" {
		t.Fatalf("stage = %q, want stream", ee.Stage)
	}
	if st.PanicsRecovered != 1 {
		t.Fatalf("partial stats lost the recovery: %s", &st)
	}
}

func TestRobustnessOptionsAccessors(t *testing.T) {
	fp := faultinject.New()
	eng := NewEngine(robustDB(), WithTupleLimit(7), WithMemoryBudget(1024), WithFaultPlan(fp))
	if eng.TupleLimit() != 7 || eng.MemoryBudget() != 1024 || eng.FaultPlan() != fp {
		t.Fatalf("accessors disagree: %d %d %v", eng.TupleLimit(), eng.MemoryBudget(), eng.FaultPlan())
	}
	eng.Configure(WithTupleLimit(-1), WithMemoryBudget(-1), WithFaultPlan(nil))
	if eng.TupleLimit() != 0 || eng.MemoryBudget() != 0 || eng.FaultPlan() != nil {
		t.Fatalf("clamping failed: %d %d %v", eng.TupleLimit(), eng.MemoryBudget(), eng.FaultPlan())
	}
	rc := eng.Snapshot()
	if rc.PanicsRecovered != 0 || rc.LimitsTripped != 0 || rc.DegradedEvictions != 0 {
		t.Fatalf("fresh engine has robustness history: %+v", rc)
	}
}
