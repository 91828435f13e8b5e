package exec

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/storage"
)

// randomJoinCatalog builds R(a,b) and S(b,c) with controlled key overlap so
// every join kind exercises matched, unmatched and duplicate-key tuples.
func randomJoinCatalog(seed int64, n int) *storage.Catalog {
	rng := rand.New(rand.NewSource(seed))
	cat := storage.NewCatalog()
	r := cat.MustDefine("R", relation.NewSchema("a", "b"))
	s := cat.MustDefine("S", relation.NewSchema("b", "c"))
	dom := int64(n/2 + 1)
	for i := 0; i < n; i++ {
		r.InsertValues(relation.Int(int64(i)), relation.Int(rng.Int63n(dom)))
		s.InsertValues(relation.Int(rng.Int63n(dom)), relation.Int(rng.Int63n(4)))
	}
	// A few string-keyed tuples to exercise mixed-kind hashing.
	r.InsertValues(relation.Int(int64(n)), relation.Str("k1"))
	s.InsertValues(relation.Str("k1"), relation.Int(0))
	s.InsertValues(relation.Str("k2"), relation.Int(1))
	return cat
}

// joinFamilyPlans returns one plan per join-family member over R and S,
// including a residual-predicate join and a constrained-outer-join chain
// whose second hop is gated on the first hop's flag column.
func joinFamilyPlans(cat *storage.Catalog) map[string]algebra.Plan {
	on := []algebra.ColPair{{Left: 1, Right: 0}}
	mk := func() (algebra.Plan, algebra.Plan) { return scan(cat, "R"), scan(cat, "S") }
	plans := map[string]algebra.Plan{}

	l, r := mk()
	plans["join"] = &algebra.Join{Left: l, Right: r, On: on}
	l, r = mk()
	plans["join-residual"] = &algebra.Join{Left: l, Right: r, On: on,
		Residual: algebra.CmpCols{Left: 0, Op: relation.OpGt, Right: 3}}
	l, r = mk()
	plans["semijoin"] = &algebra.SemiJoin{Left: l, Right: r, On: on}
	l, r = mk()
	plans["complementjoin"] = &algebra.ComplementJoin{Left: l, Right: r, On: on}
	l, r = mk()
	plans["outerjoin"] = &algebra.OuterJoin{Left: l, Right: r, On: on}
	l, r = mk()
	c1 := &algebra.ConstrainedOuterJoin{Left: l, Right: r, On: on}
	plans["coj-chain"] = &algebra.ConstrainedOuterJoin{
		Left: c1, Right: scan(cat, "S"),
		On:         []algebra.ColPair{{Left: 1, Right: 0}},
		Constraint: []algebra.NullCond{{Col: 2, IsNull: true}},
	}
	return plans
}

// TestJoinEdgeCases covers empty inputs and an empty key-column list (a
// pure existence product: every tuple shares the one key) against the
// reference evaluator.
func TestJoinEdgeCases(t *testing.T) {
	cat := storage.NewCatalog()
	r := cat.MustDefine("R", relation.NewSchema("a"))
	cat.MustDefine("Empty", relation.NewSchema("a"))
	for i := 0; i < 10; i++ {
		r.InsertValues(relation.Int(int64(i)))
	}

	cases := map[string]algebra.Plan{
		"empty-right-outer": &algebra.OuterJoin{Left: scan(cat, "R"), Right: scan(cat, "Empty"),
			On: []algebra.ColPair{{Left: 0, Right: 0}}},
		"empty-left": &algebra.SemiJoin{Left: scan(cat, "Empty"), Right: scan(cat, "R"),
			On: []algebra.ColPair{{Left: 0, Right: 0}}},
		"no-key-cols": &algebra.SemiJoin{Left: scan(cat, "R"), Right: scan(cat, "R"), On: nil},
		"complement-vs-empty": &algebra.ComplementJoin{Left: scan(cat, "R"), Right: scan(cat, "Empty"),
			On: []algebra.ColPair{{Left: 0, Right: 0}}},
	}
	for name, plan := range cases {
		got, err := Run(NewContext(cat), plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := refEval(t, cat, plan); !got.Equal(want) {
			t.Errorf("%s: %d tuples, reference %d", name, got.Len(), want.Len())
		}
	}
}

// TestRunCancellation checks that a cancelled context aborts a join and
// surfaces context.Canceled.
func TestRunCancellation(t *testing.T) {
	cat := randomJoinCatalog(1, 5000)
	plan := &algebra.Join{Left: scan(cat, "R"), Right: scan(cat, "S"),
		On: []algebra.ColPair{{Left: 1, Right: 0}}}
	goCtx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must abort, not finish
	ctx := NewContext(cat)
	ctx.AttachContext(goCtx)
	out, err := Run(ctx, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("got partial result with error")
	}
}

// TestRunDeadline checks that an expired deadline surfaces as
// context.DeadlineExceeded from Run.
func TestRunDeadline(t *testing.T) {
	cat := randomJoinCatalog(2, 5000)
	plan := &algebra.Join{Left: scan(cat, "R"), Right: scan(cat, "S"),
		On: []algebra.ColPair{{Left: 1, Right: 0}}}
	goCtx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	ctx := NewContext(cat)
	ctx.AttachContext(goCtx)
	if _, err := Run(ctx, plan); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestUncancelledRunKeepsResult checks that attaching a context that never
// fires changes nothing about the run's outcome.
func TestUncancelledRunKeepsResult(t *testing.T) {
	cat := randomJoinCatalog(3, 200)
	plan := &algebra.Join{Left: scan(cat, "R"), Right: scan(cat, "S"),
		On: []algebra.ColPair{{Left: 1, Right: 0}}}
	want, err := Run(NewContext(cat), plan)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	ctx := NewContext(cat)
	ctx.AttachContext(context.Background())
	got, err := Run(ctx, plan)
	if err != nil {
		t.Fatalf("attached run: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("attaching an inert context changed the result")
	}
}
