package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/relation"
)

// TestTypedErrors checks that Prepare failures classify into the three
// wrapper types and stay errors.As/Is-compatible.
func TestTypedErrors(t *testing.T) {
	eng := NewEngine(demoDB())

	_, err := eng.Query(`{ x | student( }`)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("syntax failure = %T(%v), want *ParseError", err, err)
	}
	if pe.Input == "" || pe.Unwrap() == nil {
		t.Fatalf("ParseError missing context: %+v", pe)
	}

	_, err = eng.Query(`{ x | not student(x) }`)
	var se *SafetyError
	if !errors.As(err, &se) {
		t.Fatalf("unsafe query = %T(%v), want *SafetyError", err, err)
	}
	if errors.As(err, &pe) {
		t.Fatal("safety error must not classify as parse error")
	}

	_, err = eng.Query(`{ x | no_such_relation(x) }`)
	var le *PlanError
	if !errors.As(err, &le) {
		t.Fatalf("unknown relation = %T(%v), want *PlanError", err, err)
	}
	if le.Stage == "" {
		t.Fatalf("PlanError missing stage: %+v", le)
	}
}

// largeDB builds a university big enough that the product-shaped query in
// the deadline tests runs for much longer than the test deadlines.
func largeDB(t *testing.T) *DB {
	t.Helper()
	p := dataset.DefaultUniversity(20000)
	p.Lectures = 60
	p.AttendProb = 0.02
	cat := dataset.University(p)
	db := NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	return db
}

const longQuery = `{ x, y | student(x) and cs_lecture(y) and not attends(x, y) }`

// TestWithTimeoutAbortsLongQuery: an engine-level WithTimeout cancels a
// long-running query within its deadline, surfacing
// context.DeadlineExceeded.
func TestWithTimeoutAbortsLongQuery(t *testing.T) {
	eng := NewEngine(largeDB(t), WithTimeout(5*time.Millisecond))
	start := time.Now()
	res, err := eng.Query(longQuery)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v (res=%v), want context.DeadlineExceeded", err, res)
	}
	// Generous bound: the point is that it aborted, not that it was
	// instantaneous (cancellation is polled every 1024 tuples).
	if elapsed > 2*time.Second {
		t.Fatalf("abort took %s", elapsed)
	}
}

// TestQueryContextCancel: a caller-supplied context cancels a run.
func TestQueryContextCancel(t *testing.T) {
	db := largeDB(t)
	eng := NewEngine(db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryContext(ctx, longQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryContextCompletes: an inert context changes nothing.
func TestQueryContextCompletes(t *testing.T) {
	eng := NewEngine(demoDB())
	const q = `{ x | student(x) and not exists y: attends(x, y) }`
	want, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Rows.Equal(want.Rows) {
		t.Fatalf("context run disagrees:\n%s\nvs\n%s", got.Rows, want.Rows)
	}
}

// TestCheckContext: the context-first constraint check works and still
// rejects open queries.
func TestCheckContext(t *testing.T) {
	eng := NewEngine(demoDB())
	ok, err := eng.CheckContext(context.Background(), `forall x, y: attends(x, y) => student(x)`)
	if err != nil || !ok {
		t.Fatalf("constraint: %v %v", ok, err)
	}
	if _, err := eng.CheckContext(context.Background(), `{ x | student(x) }`); err == nil {
		t.Fatal("open queries are not constraints")
	}
}

// TestStreamContextCancel: cancellation surfaces from StreamContext with
// partial stats.
func TestStreamContextCancel(t *testing.T) {
	db := largeDB(t)
	eng := NewEngine(db)
	p, err := eng.Prepare(longQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	_, err = eng.StreamContext(ctx, p, func(relation.Tuple) bool { n++; return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConfigureAccessors: options land in the accessors, and invalid
// values are clamped.
func TestConfigureAccessors(t *testing.T) {
	eng := NewEngine(demoDB(),
		WithStrategy(StrategyCodd),
		WithIndexes(true),
		WithBatchSize(8),
		WithTimeout(time.Second),
	)
	if eng.Strategy() != StrategyCodd || !eng.UseIndexes() || eng.BatchSize() != 8 || eng.Timeout() != time.Second {
		t.Fatalf("accessors disagree with options: %v %v %v %v",
			eng.Strategy(), eng.UseIndexes(), eng.BatchSize(), eng.Timeout())
	}
	eng.Configure(WithBatchSize(-3), WithTimeout(-time.Second), WithStrategy(StrategyBry))
	if eng.BatchSize() != exec.DefaultBatchSize || eng.Timeout() != 0 || eng.Strategy() != StrategyBry {
		t.Fatalf("clamping failed: %v %v", eng.BatchSize(), eng.Timeout())
	}
}
