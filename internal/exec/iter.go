package exec

import (
	"repro/internal/algebra"
	"repro/internal/faultinject"
	"repro/internal/planopt"
	"repro/internal/relation"
)

// This file holds the operators outside the join family: the streaming ones
// (scan, select, project, union), which pass their consumer's demand down,
// and the blocking ones (product, ∖/∩, ÷, group-count, materialize), which
// drain an input in full-capacity blocks at Open. The join family lives in
// join.go, the memo spool in memo.go.

// sizeHinter is implemented by iterators that can cheaply bound how many
// tuples they will produce. Buffers are pre-sized from the hint; it is never
// relied on for correctness.
type sizeHinter interface {
	sizeHint() int
}

// hintOf returns an upper bound on the iterator's output cardinality in
// tuples, or -1 when it cannot be bounded without running the plan.
func hintOf(it Iterator) int {
	if h, ok := it.(sizeHinter); ok {
		return h.sizeHint()
	}
	return -1
}

// blockCap bounds a block buffer's initial capacity by the operator's size
// hint: an operator that promises fewer than max tuples allocates only that
// many slots, and a hint of 0 allocates no block at all. Hints are
// per-tuple counts; see planopt.BlocksFor for the per-block rounding used
// when whole blocks are reserved (the memo spool presize).
func blockCap(hint, max int) int {
	if hint >= 0 && hint < max {
		return hint
	}
	return max
}

// presizeBlocks converts a per-tuple size hint into a whole-block
// reservation: hints round UP to full blocks (a producer that promises 1500
// tuples will emit two blocks), except that a hint of 0 reserves nothing.
func presizeBlocks(hint, bs int) int {
	if hint < 0 {
		return 0
	}
	return planopt.BlocksFor(hint, bs) * bs
}

// cursor walks a streaming operator's input tuple by tuple while pulling it
// block by block, at whatever demand the operator's own consumer stated. A
// block the operator did not finish (its output filled first) stays pending
// for the next call, so nothing is read twice or dropped.
type cursor struct {
	in      Iterator
	pending []relation.Tuple
	pos     int
}

// next returns the next input tuple, pulling a block of at most max tuples
// when the pending one is used up.
func (c *cursor) next(max int) (relation.Tuple, bool) {
	if c.pos >= len(c.pending) && !c.fill(max) {
		return nil, false
	}
	t := c.pending[c.pos]
	c.pos++
	return t, true
}

func (c *cursor) fill(max int) bool {
	b, ok := c.in.NextBatch(max)
	if !ok {
		return false
	}
	c.pending, c.pos = b.Tuples, 0
	return true
}

func (c *cursor) open()  { c.in.Open() }
func (c *cursor) close() { c.in.Close() }

// block is a densifying operator's reusable output buffer: survivors are
// packed into blocks of the consumer's demand so selective operators do not
// starve downstream ones with fragments. Input blocks cannot be filtered in
// place — scans hand out views of the base relation.
type block struct {
	out   []relation.Tuple
	batch Batch
}

// begin empties the buffer for the next output block. The first call
// allocates it, bounded by the consumer's demand and by the size hint of in
// — the input the operator cannot out-produce, nil when there is none — so
// a demand-1 probe never pays for a full-capacity block.
func (b *block) begin(in Iterator, max int) {
	if b.out == nil {
		b.out = make([]relation.Tuple, 0, blockCap(hintOf(in), max))
	}
	b.out = b.out[:0]
}

func (b *block) push(t relation.Tuple) {
	//lint:ignore govcharge streaming block bounded by the consumer's demand and reused every NextBatch — not a materialization; operators that retain what they emit charge per block
	b.out = append(b.out, t)
}

// yield hands the filled block downstream, or reports exhaustion when the
// operator produced nothing.
func (b *block) yield(ctx *Context) (*Batch, bool) {
	if len(b.out) == 0 {
		return nil, false
	}
	ctx.noteBatch(len(b.out))
	b.batch.Tuples = b.out
	return &b.batch, true
}

// view yields a zero-copy window src[*pos:*pos+max] of an already buffered
// result and advances pos.
func (b *block) view(ctx *Context, src []relation.Tuple, pos *int, max int) (*Batch, bool) {
	if *pos >= len(src) {
		return nil, false
	}
	end := *pos + max
	if end > len(src) {
		end = len(src)
	}
	b.batch.Tuples = src[*pos:end:end]
	*pos = end
	ctx.noteBatch(len(b.batch.Tuples))
	return &b.batch, true
}

// drain opens a blocking operator's input and consumes it to exhaustion in
// full-capacity blocks — whatever demand the operator itself is under —
// charging each block to op before handing it to sink. A failed charge
// stops the drain; the budget violation is already the context's abort
// cause.
func (c *Context) drain(in Iterator, op string, sink func([]relation.Tuple)) {
	in.Open()
	for {
		b, ok := in.NextBatch(c.blockSize())
		if !ok || !c.chargeBatch(op, b.Tuples) {
			return
		}
		sink(b.Tuples)
	}
}

// scanIter streams a base relation in zero-copy blocks: each block is a view
// of the relation's backing slice, so a scan allocates nothing per block.
// One fault hook and one cancellation poll per block.
type scanIter struct {
	ctx *Context
	rel *relation.Relation
	pos int
	blk block
}

func (it *scanIter) Open() {
	it.pos = 0
	it.ctx.fireFault(faultinject.PointIterOpen)
}

func (it *scanIter) NextBatch(max int) (*Batch, bool) {
	it.ctx.fireFault(faultinject.PointIterNext)
	n := it.rel.Len() - it.pos
	if n > max {
		n = max
	}
	// Weight the poll by the block about to be read, BEFORE reading it, so
	// "fewer than CheckInterval tuples read past cancellation" holds at the
	// source. Scans feed every pipeline leaf, so this one check bounds how
	// long any streaming plan can outlive its context's cancellation.
	if n <= 0 || it.ctx.interruptedN(n) {
		return nil, false
	}
	it.ctx.Stats.BaseTuplesRead += int64(n)
	return it.blk.view(it.ctx, it.rel.Tuples(), &it.pos, n)
}

func (it *scanIter) Close() {}

func (it *scanIter) sizeHint() int { return it.rel.Len() }

// selectIter filters by a predicate, charging its comparisons.
type selectIter struct {
	ctx  *Context
	in   cursor
	pred algebra.Pred
	blk  block
}

func (it *selectIter) Open() { it.in.open() }

func (it *selectIter) NextBatch(max int) (*Batch, bool) {
	it.blk.begin(it.in.in, max)
	for len(it.blk.out) < max {
		t, ok := it.in.next(max)
		if !ok {
			break
		}
		keep, c := it.pred.Eval(t)
		it.ctx.Stats.Comparisons += int64(c)
		if keep {
			it.blk.push(t)
		}
	}
	return it.blk.yield(it.ctx)
}

func (it *selectIter) Close() { it.in.close() }

// A selection never produces more than its input.
func (it *selectIter) sizeHint() int { return hintOf(it.in.in) }

// projectIter projects columns, deduplicating through a 64-bit-hash tupleSet
// unless the planner proved the projection duplicate-free (seen == nil).
// Retained tuples are charged once per output block.
type projectIter struct {
	ctx  *Context
	in   cursor
	cols []int
	seen *tupleSet
	blk  block
}

func (it *projectIter) Open() { it.in.open() }

func (it *projectIter) NextBatch(max int) (*Batch, bool) {
	it.blk.begin(it.in.in, max)
	for len(it.blk.out) < max {
		t, ok := it.in.next(max)
		if !ok {
			break
		}
		t = t.Project(it.cols)
		if it.seen == nil || it.seen.add(t) {
			it.blk.push(t)
		}
	}
	if it.seen != nil {
		if !it.ctx.chargeBatch("project-dedup", it.blk.out) {
			return nil, false
		}
		it.ctx.Stats.HashInserts += int64(len(it.blk.out))
	}
	return it.blk.yield(it.ctx)
}

func (it *projectIter) Close() { it.in.close() }

// A projection (deduplicating or not) never produces more than its input.
func (it *projectIter) sizeHint() int { return hintOf(it.in.in) }

// unionIter streams left then right, deduplicating across both. The dedup
// buffer is charged as intermediate storage: a union result is held in full,
// which is precisely the cost the constrained outer-join strategy avoids.
type unionIter struct {
	ctx         *Context
	left, right cursor
	seen        *tupleSet
	onRight     bool
	blk         block
}

func (it *unionIter) Open() {
	it.left.open()
	it.right.open()
	it.seen = newTupleSet()
	it.onRight = false
}

func (it *unionIter) NextBatch(max int) (*Batch, bool) {
	it.blk.begin(it, max)
	for len(it.blk.out) < max {
		side := &it.left
		if it.onRight {
			side = &it.right
		}
		t, ok := side.next(max)
		if !ok {
			if it.onRight {
				break
			}
			it.onRight = true
			continue
		}
		if it.seen.add(t) {
			it.blk.push(t)
		}
	}
	if !it.ctx.chargeBatch("union", it.blk.out) {
		return nil, false
	}
	it.ctx.Stats.HashInserts += int64(len(it.blk.out))
	it.ctx.Stats.IntermediateTuples += int64(len(it.blk.out))
	return it.blk.yield(it.ctx)
}

func (it *unionIter) Close() { it.left.close(); it.right.close() }

// A union never produces more than its inputs combined; the hint survives
// only when both sides can bound themselves.
func (it *unionIter) sizeHint() int {
	l, r := hintOf(it.left.in), hintOf(it.right.in)
	if l < 0 || r < 0 {
		return -1
	}
	return l + r
}

// productIter is the cartesian product; the right input is buffered at Open.
type productIter struct {
	ctx      *Context
	left     cursor
	right    Iterator
	rightBuf []relation.Tuple
	cur      relation.Tuple // left tuple being paired with rightBuf[ri:]
	curOK    bool
	ri       int
	blk      block
}

func (it *productIter) Open() {
	it.left.open()
	it.ctx.drain(it.right, "product", func(ts []relation.Tuple) {
		it.rightBuf = append(it.rightBuf, ts...)
		it.ctx.Stats.IntermediateTuples += int64(len(ts))
	})
}

func (it *productIter) NextBatch(max int) (*Batch, bool) {
	it.blk.begin(nil, max)
	for len(it.blk.out) < max {
		if !it.curOK || it.ri >= len(it.rightBuf) {
			if it.cur, it.curOK = it.left.next(max); !it.curOK {
				break
			}
			it.ri = 0
			continue
		}
		it.blk.push(it.cur.Concat(it.rightBuf[it.ri]))
		it.ri++
	}
	return it.blk.yield(it.ctx)
}

func (it *productIter) Close() { it.left.close(); it.right.Close() }

// diffIter implements set difference (keep=false) and intersection
// (keep=true) by materializing the right side's keys and streaming the left.
type diffIter struct {
	ctx       *Context
	left      cursor
	right     Iterator
	keep      bool
	rightKeys *tupleSet
	emitted   *tupleSet
	blk       block
}

func (it *diffIter) Open() {
	it.rightKeys = newTupleSet()
	it.ctx.drain(it.right, "difference", func(ts []relation.Tuple) {
		for _, t := range ts {
			it.rightKeys.add(t)
		}
		it.ctx.Stats.HashInserts += int64(len(ts))
		it.ctx.Stats.IntermediateTuples += int64(len(ts))
	})
	it.left.open()
	it.emitted = newTupleSet()
}

func (it *diffIter) NextBatch(max int) (*Batch, bool) {
	it.blk.begin(it.left.in, max)
	for len(it.blk.out) < max {
		t, ok := it.left.next(max)
		if !ok {
			break
		}
		it.ctx.Stats.Comparisons++
		if it.rightKeys.has(t) == it.keep && it.emitted.add(t) {
			it.blk.push(t)
		}
	}
	if !it.ctx.chargeBatch("difference", it.blk.out) {
		return nil, false
	}
	return it.blk.yield(it.ctx)
}

func (it *diffIter) Close() { it.left.close(); it.right.Close() }

// divisionIter implements the generalized division of the paper's Prop. 4
// case 5. Both inputs are blocking: the divisor's key list and the
// dividend's key groups are built at Open. The divisor's distinct keys are
// kept in arrival order and swept in that order, so the comparison count of
// a group that misses a divisor tuple is the same on every run.
type divisionIter struct {
	ctx      *Context
	dividend Iterator
	divisor  Iterator
	keyCols  []int
	divCols  []int

	divs   []string // distinct divisor keys, arrival order
	order  []string // dividend group keys, arrival order
	reps   map[string]relation.Tuple
	groups map[string]map[string]struct{}
	pos    int
	blk    block
}

func (it *divisionIter) Open() {
	seen := make(map[string]struct{})
	it.ctx.drain(it.divisor, "division", func(ts []relation.Tuple) {
		for _, t := range ts {
			k := t.Key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				it.divs = append(it.divs, k)
			}
		}
		it.ctx.Stats.HashInserts += int64(len(ts))
		it.ctx.Stats.IntermediateTuples += int64(len(ts))
	})
	it.reps = make(map[string]relation.Tuple)
	it.groups = make(map[string]map[string]struct{})
	it.ctx.drain(it.dividend, "division", func(ts []relation.Tuple) {
		for _, t := range ts {
			key := t.Project(it.keyCols)
			kk := key.Key()
			g, seen := it.groups[kk]
			if !seen {
				g = make(map[string]struct{})
				it.groups[kk] = g
				it.reps[kk] = key
				it.order = append(it.order, kk)
			}
			g[t.Project(it.divCols).Key()] = struct{}{}
		}
		it.ctx.Stats.HashInserts += int64(len(ts))
		it.ctx.Stats.IntermediateTuples += int64(len(ts))
	})
}

func (it *divisionIter) NextBatch(max int) (*Batch, bool) {
	it.blk.begin(nil, max)
	// The group×divisor sweep runs on buffered data, out of reach of the
	// scan-level check, so it polls for cancellation itself.
	for len(it.blk.out) < max && it.pos < len(it.order) && !it.ctx.Interrupted() {
		kk := it.order[it.pos]
		it.pos++
		g := it.groups[kk]
		all := true
		for _, d := range it.divs {
			it.ctx.Stats.Comparisons++
			if _, ok := g[d]; !ok {
				all = false
				break
			}
		}
		if all {
			it.blk.push(it.reps[kk])
		}
	}
	return it.blk.yield(it.ctx)
}

func (it *divisionIter) Close() { it.dividend.Close(); it.divisor.Close() }

// groupCountIter implements the aggregate of the Quel-style baseline: it
// drains its input at Open, groups by the listed columns, and emits one
// tuple per group carrying the group's cardinality. Like any aggregate it
// is blocking; its buffering is charged as intermediate storage — exactly
// the cost the paper's introduction holds against the counting approach
// ("intermediate results … in principle not needed for answering").
type groupCountIter struct {
	ctx       *Context
	in        Iterator
	groupCols []int

	order  []string
	reps   map[string]relation.Tuple
	counts map[string]int64
	pos    int
	blk    block
}

func (it *groupCountIter) Open() {
	it.reps = make(map[string]relation.Tuple)
	it.counts = make(map[string]int64)
	it.ctx.drain(it.in, "group-count", func(ts []relation.Tuple) {
		for _, t := range ts {
			key := t.Project(it.groupCols)
			kk := key.Key()
			if _, seen := it.counts[kk]; !seen {
				it.reps[kk] = key
				it.order = append(it.order, kk)
			}
			it.counts[kk]++
		}
		it.ctx.Stats.HashInserts += int64(len(ts))
		it.ctx.Stats.IntermediateTuples += int64(len(ts))
	})
	// With no group columns the count of an empty input is still a row.
	if len(it.groupCols) == 0 && len(it.order) == 0 {
		it.reps[""] = relation.Tuple{}
		it.counts[""] = 0
		it.order = append(it.order, "")
	}
}

func (it *groupCountIter) NextBatch(max int) (*Batch, bool) {
	it.blk.begin(nil, max)
	for ; len(it.blk.out) < max && it.pos < len(it.order); it.pos++ {
		kk := it.order[it.pos]
		it.blk.push(it.reps[kk].Append(relation.Int(it.counts[kk])))
	}
	return it.blk.yield(it.ctx)
}

func (it *groupCountIter) Close() { it.in.Close() }

// materializeIter drains its child into a temporary relation at Open and
// then streams zero-copy views of it. It models the conventional strategy of
// storing intermediate results, and is charged as such.
type materializeIter struct {
	ctx    *Context
	in     Iterator
	schema relation.Schema
	buf    *relation.Relation
	pos    int
	blk    block
}

func (it *materializeIter) Open() {
	it.buf = relation.NewUnnamed(it.schema)
	it.ctx.drain(it.in, "materialize", func(ts []relation.Tuple) {
		for _, t := range ts {
			if it.buf.Insert(t) {
				it.ctx.Stats.IntermediateTuples++
			}
		}
	})
	it.ctx.Stats.Materializations++
}

func (it *materializeIter) NextBatch(max int) (*Batch, bool) {
	return it.blk.view(it.ctx, it.buf.Tuples(), &it.pos, max)
}

func (it *materializeIter) Close() { it.in.Close() }

// Before Open the bound is the child's; after Open the buffer is exact.
// A memo producer presizes its spool from hintOf before opening its input,
// so propagating the child's hint keeps hints alive across materialization
// boundaries.
func (it *materializeIter) sizeHint() int {
	if it.buf != nil {
		return it.buf.Len()
	}
	return hintOf(it.in)
}
