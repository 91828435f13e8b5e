package exec

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/faultinject"
	"repro/internal/planopt"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// batchParityPlans extends the join family with composite shapes covering
// the streaming operators (select, project, union), one plan per blocking
// operator (×, ∖, ∩, ÷, group-count, materialize), and a Shared node feeding
// the memo spool.
func batchParityPlans(cat *storage.Catalog) map[string]algebra.Plan {
	three := cat.MustDefine("T3", relation.NewSchema("t"))
	for i := int64(0); i < 3; i++ {
		three.InsertValues(relation.Int(i))
	}
	plans := joinFamilyPlans(cat)
	plans["select-project"] = &algebra.Project{
		Input: &algebra.Select{Input: scan(cat, "R"),
			Pred: algebra.CmpCols{Left: 0, Op: relation.OpGt, Right: 1}},
		Cols: []int{1},
	}
	plans["union"] = &algebra.Union{Left: scan(cat, "R"), Right: scan(cat, "S")}
	plans["product"] = &algebra.Product{Left: scan(cat, "R"), Right: scan(cat, "T3")}
	rb := func() algebra.Plan { return &algebra.Project{Input: scan(cat, "R"), Cols: []int{1}} }
	sb := func() algebra.Plan { return &algebra.Project{Input: scan(cat, "S"), Cols: []int{0}} }
	plans["diff"] = &algebra.Diff{Left: rb(), Right: sb()}
	plans["intersect"] = &algebra.Intersect{Left: rb(), Right: sb()}
	plans["division"] = &algebra.Division{
		Dividend: scan(cat, "S"),
		Divisor:  &algebra.Project{Input: scan(cat, "S"), Cols: []int{1}},
		KeyCols:  []int{0},
		DivCols:  []int{1},
	}
	plans["groupcount"] = &algebra.GroupCount{Input: scan(cat, "R"), GroupCols: []int{1}}
	plans["materialize"] = &algebra.Materialize{Input: scan(cat, "R"), Label: "tmp"}
	plans["shared-union"] = chaosPlan(cat)
	return plans
}

// refEval is the parity test's independent reference: each operator written
// straight from its set-theoretic definition as nested loops over
// materialized inputs — no iterators, blocks, hashing or demand.
// (internal/loopeval cannot serve here: it imports this package, and its
// calculus has no ∅-padded outer-join results to compare with.)
func refEval(t *testing.T, cat *storage.Catalog, p algebra.Plan) *relation.Relation {
	t.Helper()
	out := relation.NewUnnamed(p.Schema())
	eval := func(q algebra.Plan) []relation.Tuple { return refEval(t, cat, q).Tuples() }
	partners := func(l relation.Tuple, right []relation.Tuple, on []algebra.ColPair) (ms []relation.Tuple) {
		lk, rk := splitPairs(on)
		for _, r := range right {
			if l.EqualOn(lk, r, rk) {
				ms = append(ms, r)
			}
		}
		return ms
	}
	contains := func(ts []relation.Tuple, t relation.Tuple) bool {
		for _, u := range ts {
			if t.Equal(u) {
				return true
			}
		}
		return false
	}
	switch n := p.(type) {
	case *algebra.Scan:
		r, err := cat.Relation(n.Name)
		if err != nil {
			t.Fatal(err)
		}
		return r
	case *algebra.Materialize:
		return refEval(t, cat, n.Input)
	case *algebra.Shared:
		return refEval(t, cat, n.Input)
	case *algebra.Select:
		for _, u := range eval(n.Input) {
			if keep, _ := n.Pred.Eval(u); keep {
				out.Insert(u)
			}
		}
	case *algebra.Project:
		for _, u := range eval(n.Input) {
			out.Insert(u.Project(n.Cols))
		}
	case *algebra.Union:
		for _, u := range append(eval(n.Left), eval(n.Right)...) {
			out.Insert(u)
		}
	case *algebra.Product:
		right := eval(n.Right)
		for _, l := range eval(n.Left) {
			for _, r := range right {
				out.Insert(l.Concat(r))
			}
		}
	case *algebra.Diff:
		right := eval(n.Right)
		for _, l := range eval(n.Left) {
			if !contains(right, l) {
				out.Insert(l)
			}
		}
	case *algebra.Intersect:
		right := eval(n.Right)
		for _, l := range eval(n.Left) {
			if contains(right, l) {
				out.Insert(l)
			}
		}
	case *algebra.Join:
		right := eval(n.Right)
		for _, l := range eval(n.Left) {
			for _, r := range partners(l, right, n.On) {
				j := l.Concat(r)
				if n.Residual != nil {
					if keep, _ := n.Residual.Eval(j); !keep {
						continue
					}
				}
				out.Insert(j)
			}
		}
	case *algebra.SemiJoin:
		right := eval(n.Right)
		for _, l := range eval(n.Left) {
			if len(partners(l, right, n.On)) > 0 {
				out.Insert(l)
			}
		}
	case *algebra.ComplementJoin:
		right := eval(n.Right)
		for _, l := range eval(n.Left) {
			if len(partners(l, right, n.On)) == 0 {
				out.Insert(l)
			}
		}
	case *algebra.OuterJoin:
		right := eval(n.Right)
		for _, l := range eval(n.Left) {
			ms := partners(l, right, n.On)
			if len(ms) == 0 {
				ms = []relation.Tuple{nullTuple(n.Right.Schema().Arity())}
			}
			for _, r := range ms {
				out.Insert(l.Concat(r))
			}
		}
	case *algebra.ConstrainedOuterJoin:
		right := eval(n.Right)
		for _, l := range eval(n.Left) {
			flag := relation.Null()
			if n.ConstraintHolds(l) && len(partners(l, right, n.On)) > 0 {
				flag = relation.Mark()
			}
			out.Insert(l.Append(flag))
		}
	case *algebra.Division:
		dividend, divisor := eval(n.Dividend), eval(n.Divisor)
		for _, l := range dividend {
			key, all := l.Project(n.KeyCols), true
			for _, d := range divisor {
				found := false
				for _, u := range dividend {
					found = found || (u.Project(n.KeyCols).Equal(key) && u.Project(n.DivCols).Equal(d))
				}
				all = all && found
			}
			if all {
				out.Insert(key)
			}
		}
	case *algebra.GroupCount:
		in := eval(n.Input)
		for _, l := range in {
			key, count := l.Project(n.GroupCols), int64(0)
			for _, u := range in {
				if u.Project(n.GroupCols).Equal(key) {
					count++
				}
			}
			out.Insert(key.Append(relation.Int(count)))
		}
		if len(n.GroupCols) == 0 && len(in) == 0 {
			out.Insert(relation.Tuple{relation.Int(0)})
		}
	default:
		t.Fatalf("refEval: unknown plan node %T", p)
	}
	return out
}

// normalizeBatchStats folds away the counters that legitimately differ
// between block capacities: block counts are physical, not logical.
func normalizeBatchStats(s Stats) Stats {
	s.BatchesEmitted, s.BatchTuples = 0, 0
	return s
}

// TestBatchSizeParity is the cross-capacity property test of DESIGN.md §9:
// for every plan shape — join family, streaming composites, every blocking
// operator, a Shared memo spool — block capacities 1, 7 and 1024 must return
// exactly the reference relation and charge identical logical stats, memo
// on and off. The second catalog is larger than the default capacity, so
// every blocking drain straddles a block boundary at all three capacities.
func TestBatchSizeParity(t *testing.T) {
	for seed, n := range map[int64]int{11: 250, 12: 1100} {
		cat := randomJoinCatalog(seed, n)
		for name, plan := range batchParityPlans(cat) {
			want := refEval(t, cat, plan)
			for _, withMemo := range []bool{false, true} {
				var base *Stats
				for _, bs := range []int{1, 7, 1024} {
					ctx := NewContext(cat)
					ctx.BatchSize = bs
					if withMemo {
						ctx.Memo = NewMemo(0) // cold per run: spool counters stay comparable
					}
					got, err := Run(ctx, plan)
					if err != nil {
						t.Fatalf("seed %d %s memo=%v bs=%d: %v", seed, name, withMemo, bs, err)
					}
					if !got.Equal(want) {
						t.Errorf("seed %d %s memo=%v bs=%d: result differs from the reference\ngot %d tuples, want %d",
							seed, name, withMemo, bs, got.Len(), want.Len())
					}
					if want.Len() > 0 && ctx.Stats.BatchesEmitted == 0 {
						t.Errorf("seed %d %s memo=%v bs=%d: no block was counted",
							seed, name, withMemo, bs)
					}
					gotStats := normalizeBatchStats(*ctx.Stats)
					if base == nil {
						base = &gotStats
					} else if gotStats != *base {
						t.Errorf("seed %d %s memo=%v: stats diverge between capacities\nbs=%d: %s\nbs=1: %s",
							seed, name, withMemo, bs, gotStats.String(), base.String())
					}
				}
			}
		}
	}
}

// TestBatchHintZeroAllocatesNothing pins the sizeHint contract: a hint of 0
// (a provably empty input) must reserve no block anywhere. blockCap,
// presizeBlocks, planopt.BlocksFor and the memo spool presize all skip
// allocation, and an empty streaming pipeline emits no block and leaves its
// reusable output buffers at capacity zero.
func TestBatchHintZeroAllocatesNothing(t *testing.T) {
	capCases := []struct{ hint, bs, want int }{
		{0, DefaultBatchSize, 0}, // the regression: hint 0 must not allocate a full block
		{5, 8, 5},
		{8, 8, 8},
		{9, 8, 8},
		{-1, 8, 8}, // unbounded: a full block
	}
	for _, c := range capCases {
		if got := blockCap(c.hint, c.bs); got != c.want {
			t.Errorf("blockCap(%d, %d) = %d, want %d", c.hint, c.bs, got, c.want)
		}
	}
	presizeCases := []struct{ hint, bs, want int }{
		{0, 1024, 0},
		{-1, 1024, 0},
		{1, 1024, 1024},
		{1500, 1024, 2048}, // rounds UP to whole blocks
	}
	for _, c := range presizeCases {
		if got := presizeBlocks(c.hint, c.bs); got != c.want {
			t.Errorf("presizeBlocks(%d, %d) = %d, want %d", c.hint, c.bs, got, c.want)
		}
	}
	blockCases := []struct{ n, bs, want int }{
		{0, 1024, 0}, {-5, 1024, 0}, {5, 0, 0}, {5, -1, 0},
		{1, 1024, 1}, {1024, 1024, 1}, {1025, 1024, 2},
	}
	for _, c := range blockCases {
		if got := planopt.BlocksFor(c.n, c.bs); got != c.want {
			t.Errorf("planopt.BlocksFor(%d, %d) = %d, want %d", c.n, c.bs, got, c.want)
		}
	}

	// Behavioral half: a pipeline over an empty relation emits nothing and
	// its buffering operators take the scan's 0 hint instead of a block.
	cat := storage.NewCatalog()
	cat.MustDefine("Empty", relation.NewSchema("a", "b"))
	ctx := NewContext(cat)
	plan := &algebra.Project{
		Input: &algebra.Select{Input: scan(cat, "Empty"), Pred: algebra.True{}},
		Cols:  []int{0},
	}
	it, err := Build(ctx, plan)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	it.Open()
	defer it.Close()
	if b, ok := it.NextBatch(DefaultBatchSize); ok {
		t.Fatalf("empty pipeline emitted a block of %d tuples", len(b.Tuples))
	}
	pj, ok := it.(*projectIter)
	if !ok {
		t.Fatalf("root iterator is %T, want *projectIter", it)
	}
	if cap(pj.blk.out) != 0 {
		t.Errorf("project allocated a %d-cap output block over an empty input", cap(pj.blk.out))
	}
	sel, ok := pj.in.in.(*selectIter)
	if !ok {
		t.Fatalf("project input is %T, want *selectIter", pj.in.in)
	}
	if cap(sel.blk.out) != 0 {
		t.Errorf("select allocated a %d-cap output block over an empty input", cap(sel.blk.out))
	}

	// The memo spool presize takes the same whole-block reservation: 0 for
	// an empty producer, rounded-up blocks otherwise.
	m := NewMemo(1 << 20)
	e := &memoEntry{state: spoolBuilding}
	m.presizeSpool(e, presizeBlocks(0, 1024))
	if cap(e.tuples) != 0 {
		t.Errorf("memo spool reserved %d slots for a 0 hint", cap(e.tuples))
	}
	m.presizeSpool(e, presizeBlocks(1500, 1024))
	if cap(e.tuples) != 2048 {
		t.Errorf("memo spool reserved %d slots for a 1500 hint at block 1024, want 2048", cap(e.tuples))
	}
}

// TestChaosBatchParallelProducerDeath is TestChaosMemoProducerDeath at a
// tiny block size: the producer appends many blocks per spool, so faults
// strike the append path mid-spool while the second execution runs. The
// invariant is chaosProducerDeathRound's: a dead producer abandons and never
// publishes partial blocks, and the next evaluation produces again.
func TestChaosBatchParallelProducerDeath(t *testing.T) {
	testutil.CheckGoroutines(t)
	cat := randomJoinCatalog(44, 150)
	plan := chaosPlan(cat)
	baseline, err := Run(NewContext(cat), plan)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	kinds := []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindDelay}
	for _, kind := range kinds {
		for _, after := range []int64{1, 3, 5} {
			arm := faultinject.Arm{Point: faultinject.PointMemoAppend, Kind: kind, After: after}
			t.Run(fmt.Sprintf("%s/%s@%d", arm.Point, kind, after), func(t *testing.T) {
				chaosProducerDeathRound(t, cat, plan, baseline, arm, 7) // several appendSpoolBlock calls per spool
			})
		}
	}
}
