package exec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/relation"
)

// This file implements the per-query resource governor. Every operator that
// buffers tuples — hash-join build tables, explicit materializations, dedup
// sets, cartesian-product buffers, division and aggregate groupings, memo
// spools and the root result — charges the
// governor as it allocates. A query that exceeds its tuple or memory budget
// aborts with a typed *ResourceError naming the limit and the operator that
// tripped it, instead of exhausting the process: the enforcement-layer
// counterpart of the paper's plan-shape discipline, which avoids unbounded
// intermediates by construction but cannot bound a hostile query's output.
//
// Counters are atomic, so a governor may be shared by concurrent executions
// and charged lock-free; with no governor installed every charge site is a
// single nil pointer check.

// ResourceError reports a query aborted for exceeding a resource budget.
// Limit names the budget ("tuples" or "memory"), Operator the
// materialization point that tripped it.
type ResourceError struct {
	Limit    string // "tuples" or "memory"
	Operator string // e.g. "join-build", "materialize", "memo-spool"
	Used     int64  // accounted usage at the trip (tuples or bytes)
	Budget   int64  // the configured bound
}

func (e *ResourceError) Error() string {
	unit := "tuples"
	if e.Limit == "memory" {
		unit = "bytes"
	}
	return fmt.Sprintf("exec: %s budget exceeded at %s: %d > %d %s",
		e.Limit, e.Operator, e.Used, e.Budget, unit)
}

// Governor enforces per-query resource budgets. It is safe for concurrent
// use.
type Governor struct {
	tupleLimit int64 // 0 = unlimited
	memBudget  int64 // estimated bytes; 0 = unlimited

	tuples atomic.Int64
	bytes  atomic.Int64
	// tripped pins the first budget violation so every later charge fails
	// fast with the same error.
	tripped atomic.Pointer[ResourceError]
	// memo, when attached, is shed under memory pressure before the query is
	// failed: warm cache entries are the one materialization the engine can
	// give back without breaking anything.
	memo *Memo
}

// NewGovernor builds a governor with the given budgets; zero (or negative)
// disables the corresponding bound.
func NewGovernor(tupleLimit, memBudget int64) *Governor {
	if tupleLimit < 0 {
		tupleLimit = 0
	}
	if memBudget < 0 {
		memBudget = 0
	}
	return &Governor{tupleLimit: tupleLimit, memBudget: memBudget}
}

// AttachMemo lets the governor evict warm memo entries under memory
// pressure before failing the query (graceful degradation).
func (g *Governor) AttachMemo(m *Memo) { g.memo = m }

// TupleLimit returns the tuple budget (0 = unlimited).
func (g *Governor) TupleLimit() int64 { return g.tupleLimit }

// MemoryBudget returns the byte budget (0 = unlimited).
func (g *Governor) MemoryBudget() int64 { return g.memBudget }

// TuplesUsed returns the tuples accounted so far.
func (g *Governor) TuplesUsed() int64 { return g.tuples.Load() }

// BytesUsed returns the estimated bytes accounted so far.
func (g *Governor) BytesUsed() int64 { return g.bytes.Load() }

// Err returns the budget violation that tripped the governor, if any.
func (g *Governor) Err() error {
	if e := g.tripped.Load(); e != nil {
		return e
	}
	return nil
}

// charge accounts n tuples totalling b estimated bytes materialized by op.
// It returns the number of memo entries evicted to relieve memory pressure
// and the budget violation, if the charge (still) does not fit.
func (g *Governor) charge(op string, n, b int64) (evicted int64, err error) {
	if e := g.tripped.Load(); e != nil {
		return 0, e
	}
	t := g.tuples.Add(n)
	if g.tupleLimit > 0 && t > g.tupleLimit {
		return 0, g.trip(&ResourceError{Limit: "tuples", Operator: op, Used: t, Budget: g.tupleLimit})
	}
	by := g.bytes.Add(b)
	if g.memBudget <= 0 || by <= g.memBudget {
		return 0, nil
	}
	// Memory pressure: shed warm memo entries first. Evicted entries free
	// engine-held memory, so the freed bytes are credited against the
	// query's accounted footprint before the budget is re-checked.
	if g.memo != nil {
		freed, ev := g.memo.shed(by - g.memBudget)
		if ev > 0 {
			evicted = int64(ev)
			by = g.bytes.Add(-freed)
		}
	}
	if by <= g.memBudget {
		return evicted, nil
	}
	return evicted, g.trip(&ResourceError{Limit: "memory", Operator: op, Used: by, Budget: g.memBudget})
}

// ChargeTuples bulk-charges n tuples materialized by op with no byte
// estimate, in one atomic transaction. It is the executor's amortized
// entry point — one call per block instead of one per tuple — and keeps the
// pinned-first *ResourceError semantics: the first violation is the one
// every later charge reports. A bulk charge can overshoot the
// budget by at most one block before tripping, which the budget's
// order-of-magnitude contract tolerates.
func (g *Governor) ChargeTuples(op string, n int64) (evicted int64, err error) {
	return g.charge(op, n, 0)
}

// ChargeBytesN bulk-charges n tuples totalling bytes estimated bytes, with
// the same semantics as ChargeTuples (memo shedding is attempted before a
// memory trip, exactly as for single-tuple charges).
func (g *Governor) ChargeBytesN(op string, n, bytes int64) (evicted int64, err error) {
	return g.charge(op, n, bytes)
}

// trip pins the first violation; concurrent trippers all report the winner
// so every charger of one governor fails with the same typed error.
func (g *Governor) trip(e *ResourceError) *ResourceError {
	if g.tripped.CompareAndSwap(nil, e) {
		return e
	}
	return g.tripped.Load()
}

// tupleBytes estimates the heap footprint of one buffered tuple: the slice
// header, the per-value records, and string payloads. An estimate is enough —
// the budget bounds the order of magnitude of a runaway query, not the
// allocator's exact arithmetic.
func tupleBytes(t relation.Tuple) int64 {
	const sliceHeader, valueSize = 24, 40
	n := int64(sliceHeader + valueSize*len(t))
	for _, v := range t {
		if v.Kind() == relation.KindString {
			n += int64(len(v.AsString()))
		}
	}
	return n
}
