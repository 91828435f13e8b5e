package exec

import (
	"repro/internal/algebra"
	"repro/internal/relation"
)

// This file implements the hash-join family (⋈, ⋉, ⊼, ⟕, ⟕⊥): one join
// iterator whose probing side is a hash-chained table (64-bit HashCols keys,
// EqualOn verification — no per-probe key allocations) or a persistent
// catalog index. It charges one HashInsert and one IntermediateTuple per
// build tuple, one Comparison per probe, residual comparisons per examined
// pair.

// joinKind names the member of the join family being executed.
type joinKind int

const (
	kindJoin joinKind = iota
	kindSemiJoin
	kindComplementJoin
	kindOuterJoin
	kindConstrainedOuterJoin
)

// joinSpec describes one member of the hash-join family to buildJoinLike.
type joinSpec struct {
	kind        joinKind
	left, right algebra.Plan
	on          []algebra.ColPair
	residual    algebra.Pred                  // kindJoin only
	rightArity  int                           // kindOuterJoin only
	coj         *algebra.ConstrainedOuterJoin // kindConstrainedOuterJoin only
}

func splitPairs(on []algebra.ColPair) (left, right []int) {
	left = make([]int, len(on))
	right = make([]int, len(on))
	for i, p := range on {
		left[i] = p.Left
		right[i] = p.Right
	}
	return left, right
}

// keyed pairs a build tuple with the hash of its join columns, computed
// once while draining the build side.
type keyed struct {
	t relation.Tuple
	h uint64
}

// chainedTable is the join family's one build table: build tuples with equal 64-bit key hashes are chained through a
// flat next-index slice — head holds 1-based indexes into entries (0 is "no
// entry", which makes the missing-key lookup free), next[i] links entry i to
// the previous entry with its hash. Two allocations total, no tuple is moved
// or copied, unlike a map[hash][]Tuple whose per-bucket slices dominate the
// build's allocation profile. It implements prober, so the join runs
// unchanged over a persistent catalog index instead.
type chainedTable struct {
	cols    []int
	entries []keyed
	head    map[uint64]int32
	next    []int32
	scratch []relation.Tuple
}

// buildChainedTable drains the right input in full-capacity blocks, charging
// the governor once per block ("join-build") and the stats per build tuple,
// and indexes the hashed build tuples on their key columns.
func buildChainedTable(ctx *Context, in Iterator, keyCols []int) *chainedTable {
	var entries []keyed
	ctx.drain(in, "join-build", func(ts []relation.Tuple) {
		for _, t := range ts {
			entries = append(entries, keyed{t: t, h: t.HashCols(keyCols)})
		}
		ctx.Stats.HashInserts += int64(len(ts))
		ctx.Stats.IntermediateTuples += int64(len(ts))
	})
	h := &chainedTable{
		cols:    keyCols,
		entries: entries,
		head:    make(map[uint64]int32, len(entries)),
		next:    make([]int32, len(entries)),
	}
	for i, e := range entries {
		h.next[i] = h.head[e.h]
		h.head[e.h] = int32(i + 1)
	}
	return h
}

// probe returns the build tuples whose key columns equal the left tuple's,
// charging one comparison for the lookup. Hash chains may hold colliding
// keys, so candidates are verified with EqualOn. The chain links
// newest-first; scratch reverses it back to build order. The returned slice
// is scratch: valid until the next probe.
func (h *chainedTable) probe(ctx *Context, t relation.Tuple, keyCols []int) []relation.Tuple {
	ctx.Stats.Comparisons++
	h.scratch = h.scratch[:0]
	for j := h.head[t.HashCols(keyCols)]; j != 0; j = h.next[j-1] {
		if e := h.entries[j-1]; t.EqualOn(keyCols, e.t, h.cols) {
			//lint:ignore govcharge transient probe scratch aliasing build tuples already charged at build time, reset per probe
			h.scratch = append(h.scratch, e.t)
		}
	}
	for i, j := 0, len(h.scratch)-1; i < j; i, j = i+1, j-1 {
		h.scratch[i], h.scratch[j] = h.scratch[j], h.scratch[i]
	}
	return h.scratch
}

// joinIter executes every join-family member: pull left tuples at the
// consumer's demand, probe each, densify the outputs into blocks of that
// demand. One iterator covers all five kinds. The probing side is realized at
// Open: a persistent catalog index (index != nil, no build cost — what §3.2
// emptiness tests rely on) or a chained table built from the right input.
type joinIter struct {
	ctx   *Context
	spec  joinSpec
	left  cursor
	index *indexProber // exactly one of index and right is set
	right Iterator
	lk    []int
	rk    []int

	table   prober
	cur     relation.Tuple   // left tuple whose matches are mid-flush (⋈, ⟕)
	matches []relation.Tuple // its remaining probe matches
	mpos    int
	nulls   relation.Tuple // ⟕ padding
	blk     block
}

func (it *joinIter) Open() {
	if it.index != nil {
		it.table = it.index
	} else {
		it.table = buildChainedTable(it.ctx, it.right, it.rk)
	}
	it.left.open()
	if it.spec.kind == kindOuterJoin {
		it.nulls = nullTuple(it.spec.rightArity)
	}
}

// nullTuple is the ∅ padding of an unmatched outer-join tuple.
func nullTuple(arity int) relation.Tuple {
	nulls := make(relation.Tuple, arity)
	for i := range nulls {
		nulls[i] = relation.Null()
	}
	return nulls
}

func (it *joinIter) NextBatch(max int) (*Batch, bool) {
	// Weighted by the block about to be assembled, so a join emitting full
	// blocks polls the context at a per-tuple rate.
	if it.ctx.interruptedN(max) {
		return nil, false
	}
	it.blk.begin(nil, max)
	for len(it.blk.out) < max {
		// Flush pending matches of the current left tuple first. matches
		// aliases the prober's scratch, which is only overwritten by the
		// next probe — after the flush completes.
		if it.mpos < len(it.matches) {
			r := it.matches[it.mpos]
			it.mpos++
			joined := it.cur.Concat(r)
			if it.spec.residual != nil {
				ok, c := it.spec.residual.Eval(joined)
				it.ctx.Stats.Comparisons += int64(c)
				if !ok {
					continue
				}
			}
			it.blk.push(joined)
			continue
		}
		t, ok := it.left.next(max)
		if !ok {
			break
		}
		switch it.spec.kind {
		case kindJoin:
			it.cur = t
			it.matches = it.table.probe(it.ctx, t, it.lk)
			it.mpos = 0
		case kindSemiJoin:
			if len(it.table.probe(it.ctx, t, it.lk)) > 0 {
				it.blk.push(t)
			}
		case kindComplementJoin:
			if len(it.table.probe(it.ctx, t, it.lk)) == 0 {
				it.blk.push(t)
			}
		case kindOuterJoin:
			it.cur = t
			it.matches = it.table.probe(it.ctx, t, it.lk)
			it.mpos = 0
			if len(it.matches) == 0 {
				it.blk.push(t.Concat(it.nulls))
			}
		case kindConstrainedOuterJoin:
			// Checking the 'const' gate examines flag columns the tuple
			// already carries — no data access, so no comparison is charged;
			// the point of the gate is precisely to avoid the (charged) probe.
			if it.spec.coj.ConstraintHolds(t) && len(it.table.probe(it.ctx, t, it.lk)) > 0 {
				it.blk.push(t.Append(relation.Mark()))
			} else {
				it.blk.push(t.Append(relation.Null()))
			}
		}
	}
	// Join outputs are streamed, not retained: they are charged only where
	// something buffers them (the root's "output", a downstream build).
	return it.blk.yield(it.ctx)
}

func (it *joinIter) Close() {
	it.left.close()
	if it.right != nil {
		it.right.Close()
	}
}

// buildJoinLike picks the probing side of a join-family node: a persistent
// catalog index (UseIndexes and an indexable right side), else a chained
// table built from the right input.
func buildJoinLike(ctx *Context, spec joinSpec) (Iterator, error) {
	lk, rk := splitPairs(spec.on)
	l, err := Build(ctx, spec.left)
	if err != nil {
		return nil, err
	}
	if ctx.UseIndexes {
		if ip := indexProberFor(ctx, spec.right, rk); ip != nil {
			return &joinIter{ctx: ctx, spec: spec, left: cursor{in: l}, index: ip, lk: lk}, nil
		}
	}
	r, err := Build(ctx, spec.right)
	if err != nil {
		return nil, err
	}
	return &joinIter{ctx: ctx, spec: spec, left: cursor{in: l}, right: r, lk: lk, rk: rk}, nil
}
