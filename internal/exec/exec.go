package exec

import (
	"context"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/faultinject"
	"repro/internal/relation"
	"repro/internal/storage"
)

// DefaultCheckInterval is how many Interrupted polls pass between actual
// reads of the attached context.Context when the Context does not choose
// its own interval. Iterator hot loops call Interrupted once per tuple, so
// the common case is a single integer increment; a cancellation or deadline
// is observed within N tuples.
const DefaultCheckInterval = 1024

// GovernedCheckInterval is the tighter poll interval selected automatically
// when a Governor or fault plan is installed: abort latency is then bounded
// by a budget the caller chose, so the engine trades a little poll overhead
// for tuple-bounded limit and cancel latency.
const GovernedCheckInterval = 64

// Context carries everything an execution needs: the catalog holding the
// base relations, the stats record charged by every operator, the tuning
// knobs (indexes, block capacity) and an optional context.Context whose
// cancellation every iterator observes. One execution runs on one
// goroutine: no operator starts goroutines of its own.
type Context struct {
	Catalog *storage.Catalog
	Stats   *Stats
	// UseIndexes lets join-like operators probe persistent catalog hash
	// indexes instead of building transient hash tables when their right
	// side is a (selection over a) base relation scan. Index probes charge
	// comparisons and the reads of fetched candidates, but no build cost —
	// which is what makes the §3.2 emptiness tests terminate after
	// near-constant work.
	UseIndexes bool
	// Memo is the optional result cache consulted by algebra.Shared nodes.
	// nil makes Shared transparent. The memo is engine-wide and
	// mutex-guarded, shared by concurrent executions. Only complete results
	// are replayed: an evaluation that finds its fingerprint still building
	// evaluates privately (memo.go).
	Memo *Memo
	// Gov is the optional per-query resource governor. Every materializing
	// operator charges it; a budget violation aborts the run with a typed
	// *ResourceError.
	Gov *Governor
	// Faults is the optional deterministic fault-injection plan consulted at
	// the registered faultinject points. nil (the production state) reduces
	// every point to a single pointer check.
	Faults *faultinject.Plan
	// CheckInterval overrides how many Interrupted polls pass between reads
	// of the attached context.Context; 0 selects DefaultCheckInterval.
	// Installing a Governor or fault plan is expected to lower it (the
	// engine uses GovernedCheckInterval) so abort latency stays
	// tuple-bounded.
	CheckInterval int
	// BatchSize is the block capacity Run and every blocking consumer (hash
	// build, dedup/group/materialize buffers) ask their inputs for; zero or
	// negative selects DefaultBatchSize. Streaming
	// operators have no capacity of their own: they pass their consumer's
	// demand down (see Iterator), so an emptiness probe's single demand-1
	// pull reads exactly one tuple from each streaming leaf.
	BatchSize int

	// goCtx is the cancellation source; nil means uncancellable.
	goCtx context.Context
	// ticks counts Interrupted calls since the last context poll.
	ticks int
	// cancelErr is the sticky abort cause: a context cancellation observed
	// by Interrupted, a governor budget violation, or an injected fault.
	// Once set, every later iterator call stops immediately.
	cancelErr error
}

// NewContext builds a context with a fresh stats record.
func NewContext(cat *storage.Catalog) *Context {
	return &Context{Catalog: cat, Stats: &Stats{}}
}

// NewIndexedContext builds a context with UseIndexes enabled.
func NewIndexedContext(cat *storage.Catalog) *Context {
	ctx := NewContext(cat)
	ctx.UseIndexes = true
	return ctx
}

// AttachContext ties the execution to a context.Context: once it is
// cancelled or its deadline passes, every iterator's Next loop terminates
// within cancelCheckInterval tuples and Run/EvalBool report the context's
// error instead of a partial result.
func (c *Context) AttachContext(ctx context.Context) { c.goCtx = ctx }

// Interrupted reports (stickily) whether the run has been aborted — by
// context cancellation (polled every checkInterval calls), a governor
// budget trip, or an injected fault. Iterator hot loops call it once per
// tuple; the sticky check is a single comparison.
func (c *Context) Interrupted() bool { return c.interruptedN(1) }

// interruptedN is Interrupted with a tick weight: a batch operator that is
// about to process (or just processed) n tuples advances the poll counter
// by n, so the CheckInterval cancellation-latency contract stays denominated
// in tuples — not in calls — under block execution. A weight-n check before
// emitting a block guarantees fewer than checkInterval tuples flow between
// two real context polls, the same bound the per-tuple path provides.
func (c *Context) interruptedN(n int) bool {
	if c.cancelErr != nil {
		return true
	}
	if c.goCtx == nil {
		return false
	}
	c.ticks += n
	if c.ticks < c.checkInterval() {
		return false
	}
	c.ticks = 0
	select {
	case <-c.goCtx.Done():
		c.cancelErr = c.goCtx.Err()
		return true
	default:
		return false
	}
}

// checkInterval returns the effective context poll interval.
func (c *Context) checkInterval() int {
	if c.CheckInterval > 0 {
		return c.CheckInterval
	}
	return DefaultCheckInterval
}

// CancelErr returns the abort cause once Interrupted has observed one (a
// context error, a *ResourceError, or an injected fault), and nil
// otherwise. A run whose iterators drained normally before the context
// fired keeps its (complete, correct) result.
func (c *Context) CancelErr() error { return c.cancelErr }

// fail records err as the context's sticky abort cause; the first cause
// wins. Iterators observe it through Interrupted on their next call.
func (c *Context) fail(err error) {
	if c.cancelErr == nil && err != nil {
		c.cancelErr = err
	}
}

// fireFault passes through a fault-injection point: without a plan it is a
// single nil check; with one, an armed error fault becomes the context's
// abort cause (panic and delay faults realize inside Invoke).
func (c *Context) fireFault(point string) {
	if c.Faults == nil {
		return
	}
	c.fail(c.Faults.Invoke(point))
}

// chargeTuple accounts one tuple buffered by op against the governor and
// reports whether execution may continue. With no governor it is a nil
// check. A budget violation becomes the context's sticky abort cause.
func (c *Context) chargeTuple(op string, t relation.Tuple) bool {
	if c.Gov == nil {
		return true
	}
	return c.chargeN(op, 1, tupleBytes(t))
}

// ChargeTuple is chargeTuple for materialization points outside this
// package: the engine's streaming dedup set buffers one entry per distinct
// output tuple and must account for it like any other operator state.
func (c *Context) ChargeTuple(op string, t relation.Tuple) bool { return c.chargeTuple(op, t) }

// chargeBatch accounts a slice of already-buffered tuples in one governor
// transaction (one drained block, or a buffering operator's output block).
func (c *Context) chargeBatch(op string, ts []relation.Tuple) bool {
	if c.Gov == nil || len(ts) == 0 {
		return true
	}
	var b int64
	for _, t := range ts {
		b += tupleBytes(t)
	}
	return c.chargeN(op, int64(len(ts)), b)
}

func (c *Context) chargeN(op string, n, bytes int64) bool {
	evicted, err := c.Gov.ChargeBytesN(op, n, bytes)
	c.Stats.DegradedEvictions += evicted
	if err != nil {
		// Charge once per context: a context that is already aborting
		// stays quiet.
		if c.cancelErr == nil {
			c.Stats.LimitsTripped++
		}
		c.fail(err)
		return false
	}
	return true
}

// DefaultBatchSize is the block capacity used when the context does not
// choose one. 1024 tuples keeps a block of pointer-sized headers within a
// few cache pages while amortizing the per-block bookkeeping ~1000×.
const DefaultBatchSize = 1024

// blockSize returns the effective block capacity.
func (c *Context) blockSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// noteBatch records one emitted block of n tuples. Only producing operators
// call it — scan, select, project, union, the joins, the blocking operators'
// output side, and the memo producer/private paths. Memo replay does NOT:
// it re-delivers blocks another evaluation produced, so BatchesEmitted
// counts each block once, where it was made.
func (c *Context) noteBatch(n int) {
	c.Stats.BatchesEmitted++
	c.Stats.BatchTuples += int64(n)
}

// Batch is one block of tuples flowing between operators. Tuples is never
// empty on a successful NextBatch.
type Batch struct {
	Tuples []relation.Tuple
}

// Iterator is the executor's only operator contract: a block-at-a-time
// volcano interface driven by consumer demand. Open prepares the operator
// (join builds and the other blocking operators buffer here), NextBatch(max)
// yields the next block of 1..max tuples or reports exhaustion, Close
// releases resources. Iterators are single-use.
//
// Demand: the consumer decides max. Run and every blocking consumer ask for
// Context.blockSize(); streaming operators (scan, select, project, union,
// the probe side of the join family, the memo) pass their own consumer's max straight down. Early termination is
// therefore not a second engine but demand 1: an emptiness probe pulls one
// block of max 1 and reads exactly the tuples a tuple-at-a-time pipeline
// would, while the blocking drains below it still move full blocks.
//
// Ownership: a *Batch returned by NextBatch is valid only until the next
// NextBatch or Close call on the same iterator — producers reuse both the
// Batch struct and (for buffering operators) its backing slice. The tuples
// themselves are immutable once emitted, so retaining a tuple is always
// safe; retaining the slice is not. Zero-copy emitters (scan, materialize,
// memo replay) return stable views,
// but consumers must not rely on that.
//
// Per-tuple bookkeeping — context polls, fireFault hooks, governor charges —
// is paid once per block. Cancellation polls stay tuple-denominated: each
// per-block poll goes through Context.interruptedN weighted by the block's
// tuple count, so the CheckInterval latency bound ("fewer than CheckInterval
// tuples flow past a cancellation") holds at any demand.
type Iterator interface {
	Open()
	NextBatch(max int) (*Batch, bool)
	Close()
}

// Build compiles a plan into an iterator tree against the context's catalog.
// All catalog resolution errors surface here, so NextBatch can stay
// error-free.
func Build(ctx *Context, p algebra.Plan) (Iterator, error) {
	switch n := p.(type) {
	case *algebra.Scan:
		r, err := ctx.Catalog.Relation(n.Name)
		if err != nil {
			return nil, err
		}
		if r.Arity() != n.Sch.Arity() {
			return nil, fmt.Errorf("exec: scan of %q expects arity %d, catalog has %d", n.Name, n.Sch.Arity(), r.Arity())
		}
		return &scanIter{ctx: ctx, rel: r}, nil
	case *algebra.Select:
		in, err := Build(ctx, n.Input)
		if err != nil {
			return nil, err
		}
		return &selectIter{ctx: ctx, in: cursor{in: in}, pred: n.Pred}, nil
	case *algebra.Project:
		in, err := Build(ctx, n.Input)
		if err != nil {
			return nil, err
		}
		it := &projectIter{ctx: ctx, in: cursor{in: in}, cols: n.Cols}
		if !n.NoDedup {
			it.seen = newTupleSet()
		}
		return it, nil
	case *algebra.Join:
		return buildJoinLike(ctx, joinSpec{kind: kindJoin, left: n.Left, right: n.Right, on: n.On, residual: n.Residual})
	case *algebra.SemiJoin:
		return buildJoinLike(ctx, joinSpec{kind: kindSemiJoin, left: n.Left, right: n.Right, on: n.On})
	case *algebra.ComplementJoin:
		return buildJoinLike(ctx, joinSpec{kind: kindComplementJoin, left: n.Left, right: n.Right, on: n.On})
	case *algebra.OuterJoin:
		return buildJoinLike(ctx, joinSpec{kind: kindOuterJoin, left: n.Left, right: n.Right, on: n.On, rightArity: n.Right.Schema().Arity()})
	case *algebra.ConstrainedOuterJoin:
		return buildJoinLike(ctx, joinSpec{kind: kindConstrainedOuterJoin, left: n.Left, right: n.Right, on: n.On, coj: n})
	case *algebra.Union:
		l, r, err := buildPair(ctx, n.Left, n.Right)
		if err != nil {
			return nil, err
		}
		return &unionIter{ctx: ctx, left: cursor{in: l}, right: cursor{in: r}}, nil
	case *algebra.Product:
		l, r, err := buildPair(ctx, n.Left, n.Right)
		if err != nil {
			return nil, err
		}
		return &productIter{ctx: ctx, left: cursor{in: l}, right: r}, nil
	case *algebra.Diff:
		l, r, err := buildPair(ctx, n.Left, n.Right)
		if err != nil {
			return nil, err
		}
		return &diffIter{ctx: ctx, left: cursor{in: l}, right: r, keep: false}, nil
	case *algebra.Intersect:
		l, r, err := buildPair(ctx, n.Left, n.Right)
		if err != nil {
			return nil, err
		}
		return &diffIter{ctx: ctx, left: cursor{in: l}, right: r, keep: true}, nil
	case *algebra.Division:
		l, r, err := buildPair(ctx, n.Dividend, n.Divisor)
		if err != nil {
			return nil, err
		}
		return &divisionIter{ctx: ctx, dividend: l, divisor: r, keyCols: n.KeyCols, divCols: n.DivCols}, nil
	case *algebra.GroupCount:
		in, err := Build(ctx, n.Input)
		if err != nil {
			return nil, err
		}
		return &groupCountIter{ctx: ctx, in: in, groupCols: n.GroupCols}, nil
	case *algebra.Materialize:
		in, err := Build(ctx, n.Input)
		if err != nil {
			return nil, err
		}
		return &materializeIter{ctx: ctx, in: in, schema: n.Schema()}, nil
	case *algebra.Shared:
		// The input is built eagerly either way, so catalog errors surface
		// at build time even when the first NextBatch will hit the memo.
		in, err := Build(ctx, n.Input)
		if err != nil {
			return nil, err
		}
		if ctx.Memo == nil {
			return in, nil
		}
		return &memoIter{ctx: ctx, in: in, fp: n.FP, key: algebra.Canonical(n.Input)}, nil
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", p)
	}
}

func buildPair(ctx *Context, l, r algebra.Plan) (Iterator, Iterator, error) {
	li, err := Build(ctx, l)
	if err != nil {
		return nil, nil, err
	}
	ri, err := Build(ctx, r)
	if err != nil {
		return nil, nil, err
	}
	return li, ri, nil
}

// Run executes a plan to completion and materializes its result: one
// cancellation poll and one bulk output charge per full-capacity block. If
// the context's attached context.Context fires mid-run, Run returns its
// error (context.Canceled or context.DeadlineExceeded) instead of a partial
// result.
func Run(ctx *Context, p algebra.Plan) (*relation.Relation, error) {
	it, err := Build(ctx, p)
	if err != nil {
		return nil, err
	}
	out := relation.NewUnnamed(p.Schema())
	it.Open()
	defer it.Close()
	for {
		b, ok := it.NextBatch(ctx.blockSize())
		// The poll is weighted by the block just received so output-driven
		// cancellation latency (e.g. a high-fanout join under a slow sink)
		// stays bounded in tuples.
		if !ok || ctx.interruptedN(len(b.Tuples)) {
			break
		}
		if !ctx.chargeBatch("output", b.Tuples) {
			break
		}
		for _, t := range b.Tuples {
			out.Insert(t)
		}
		ctx.Stats.OutputTuples += int64(len(b.Tuples))
	}
	if err := ctx.CancelErr(); err != nil {
		return nil, err
	}
	return out, nil
}

// EvalBool evaluates a boolean plan (§3.2). Emptiness tests pull at most
// one tuple from their relational input; connectives short-circuit left to
// right. This realizes algebraically the early termination of the Fig. 1
// loop algorithms.
func EvalBool(ctx *Context, p algebra.BoolPlan) (bool, error) {
	switch n := p.(type) {
	case *algebra.NotEmpty:
		return probeNonEmpty(ctx, n.Input)
	case *algebra.IsEmpty:
		ok, err := probeNonEmpty(ctx, n.Input)
		return !ok, err
	case *algebra.BoolAnd:
		for _, c := range n.Inputs {
			ok, err := EvalBool(ctx, c)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	case *algebra.BoolOr:
		for _, c := range n.Inputs {
			ok, err := EvalBool(ctx, c)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case *algebra.BoolNot:
		ok, err := EvalBool(ctx, n.Input)
		return !ok, err
	case *algebra.BoolConst:
		return n.Value, nil
	default:
		return false, fmt.Errorf("exec: unknown boolean plan node %T", p)
	}
}

// probeNonEmpty opens the plan and pulls one block of demand 1: streaming
// operators read exactly one tuple from each leaf (§3.2).
func probeNonEmpty(ctx *Context, p algebra.Plan) (bool, error) {
	it, err := Build(ctx, p)
	if err != nil {
		return false, err
	}
	it.Open()
	defer it.Close()
	_, ok := it.NextBatch(1)
	if err := ctx.CancelErr(); err != nil {
		return false, err
	}
	return ok, nil
}
