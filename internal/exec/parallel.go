package exec

import (
	"sync"

	"repro/internal/faultinject"
	"repro/internal/relation"
)

// This file implements the partition-parallel executor for the hash-join
// family (⋈, ⋉, ⊼, ⟕, ⟕⊥). Both sides are hash-partitioned on their join
// columns into Parallelism disjoint partitions; each partition's build and
// probe run on a dedicated worker with a forked stats shard, so the hot
// path takes no locks. Partitioning is sound for every member of the
// family, including the complement-join and the constrained outer-joins:
// all potential partners of a tuple share its key hash and therefore its
// partition, so "has no partner in my partition" equals "has no partner at
// all" — the property Bry's Definition 6/7 operators need.
//
// Each partition builds the same chainedTable as the serial join; the key
// hash is computed once, during partitioning, and reused for the table
// insert and the probe.
//
// Worker forks carry the engine memo (fork keeps the pointer): inputs are
// drained on the parent goroutine before workers start, so workers never
// drive memoIters themselves today, but any read-side consultation from a
// fork is safe — the memo is mutex-guarded and single-flight entries
// identify their producer by execution, not by context pointer.

// parallelJoinIter is the streaming partition-parallel join. Open drains and
// scatters both inputs (single-threaded: the inputs are serial sources, and
// their stats charge the parent context as usual) and starts one
// runPartition worker per partition — but does NOT wait for them: NextBatch
// streams partition outputs in partition-index order, sliced at the
// consumer's demand, blocking only on the per-partition done channel of the
// partition it is currently slicing. A downstream memo producer
// therefore appends partition 0's blocks to the shared spool while
// partitions 1..p-1 are still computing — the elected producer's workers
// fill the spool in parallel — and the partition-index order keeps the
// spool prefix deterministic, which re-election after a producer death
// relies on.
type parallelJoinIter struct {
	ctx         *Context
	spec        joinSpec
	left, right Iterator
	lk, rk      []int

	p        int
	outs     [][]relation.Tuple
	done     []chan struct{}
	workers  []*Context
	panics   []*PanicError
	absorbed []bool
	wg       sync.WaitGroup
	started  bool
	panicked bool
	part     int
	pos      int
	blk      block
}

func (it *parallelJoinIter) Open() {
	p := it.ctx.parallelism()
	it.p = p

	// Phase 1 — partition (parent goroutine), in full-capacity blocks.
	rparts := drainPartitions(it.ctx, it.right, it.rk, p)
	lparts := drainPartitions(it.ctx, it.left, it.lk, p)

	// Phase 2 — per-partition build+probe on worker goroutines with private
	// stats shards. Each worker signals its own done channel; nobody waits
	// for the full fan-in before streaming.
	it.outs = make([][]relation.Tuple, p)
	it.done = make([]chan struct{}, p)
	it.workers = make([]*Context, p)
	it.panics = make([]*PanicError, p)
	it.absorbed = make([]bool, p)
	for i := 0; i < p; i++ {
		w := it.ctx.fork()
		it.workers[i] = w
		it.done[i] = make(chan struct{})
		it.wg.Add(1)
		go func(i int, w *Context) {
			defer it.wg.Done()
			// Deferred LIFO: the recover below runs first, so panics[i] is
			// published before done[i] closes and the streaming goroutine
			// never reads a half-set slot.
			defer close(it.done[i])
			defer func() {
				if r := recover(); r != nil {
					it.panics[i] = CapturePanic(r, "partition-worker")
				}
			}()
			it.outs[i] = runPartition(w, it.spec, lparts[i], rparts[i], it.lk, it.rk)
		}(i, w)
	}
	it.started = true
	it.part, it.pos = 0, 0
}

func (it *parallelJoinIter) NextBatch(max int) (*Batch, bool) {
	if it.ctx.interruptedN(max) {
		return nil, false
	}
	for it.part < it.p {
		if !it.absorbed[it.part] {
			// Workers always terminate: they run over fully drained
			// partitions and poll Interrupted, so this wait is bounded.
			<-it.done[it.part]
			it.ctx.absorb(it.workers[it.part])
			it.absorbed[it.part] = true
			if pe := it.panics[it.part]; pe != nil {
				// Re-surface on the consuming goroutine after the remaining
				// shards are absorbed, so no worker's stats are lost and the
				// isolation boundary converts it to a typed error.
				it.finish()
				it.panicked = true
				panic(pe)
			}
		}
		if b, ok := it.blk.view(it.ctx, it.outs[it.part], &it.pos, max); ok {
			return b, true
		}
		it.part++
		it.pos = 0
	}
	return nil, false
}

// finish waits for every worker and absorbs the shards not yet absorbed by
// the streaming loop. Idempotent.
func (it *parallelJoinIter) finish() {
	it.wg.Wait()
	for i := 0; i < it.p; i++ {
		if !it.absorbed[i] {
			it.ctx.absorb(it.workers[i])
			it.absorbed[i] = true
		}
	}
}

func (it *parallelJoinIter) Close() {
	it.left.Close()
	it.right.Close()
	if !it.started {
		return
	}
	it.finish()
	if it.panicked {
		return // already re-surfaced from NextBatch; Close runs during unwind
	}
	// An early close (emptiness probe, cancelled run) may leave a captured
	// worker panic unsurfaced: re-panic here so it still reaches the
	// isolation boundary instead of being silently dropped. Run checks
	// CancelErr before its deferred Close, so this is the last exit.
	for _, pe := range it.panics {
		if pe != nil {
			it.panicked = true
			panic(pe)
		}
	}
}

// drainPartitions opens and drains an iterator, hashing each tuple's key
// columns and scattering it into p partitions by hash, with the governor
// charged once per block ("partition"). When the source can bound its
// cardinality (sizeHinter), the partitions are pre-sized: the scatter
// buffers are the partitioner's dominant allocation, and append growth on
// large slices wastes several times the final footprint.
func drainPartitions(ctx *Context, in Iterator, keyCols []int, p int) [][]keyed {
	parts := make([][]keyed, p)
	if hint := hintOf(in); hint > 0 {
		per := hint/p + hint/(4*p) + 8 // uniform share plus skew slack
		for i := range parts {
			parts[i] = make([]keyed, 0, per)
		}
	}
	ctx.drain(in, "partition", func(ts []relation.Tuple) {
		for _, t := range ts {
			h := t.HashCols(keyCols)
			i := int(h % uint64(p))
			parts[i] = append(parts[i], keyed{t: t, h: h})
		}
	})
	return parts
}

// runPartition executes one partition of the join: build a hash table over
// the right pieces, probe it with the left pieces, emit per the join kind.
// Stats parity with the serial executor is deliberate: one HashInsert and
// one IntermediateTuple per build tuple, one Comparison per probe, and no
// probe charge for constraint-gated tuples — so serial and parallel runs of
// the same plan report identical work (modulo PartitionsExecuted).
func runPartition(w *Context, spec joinSpec, left, right []keyed, lk, rk []int) []relation.Tuple {
	w.Stats.PartitionsExecuted++
	w.fireFault(faultinject.PointWorker)
	if w.Interrupted() {
		return nil
	}

	table := newChainedTable(right, rk)
	w.Stats.HashInserts += int64(len(right))
	w.Stats.IntermediateTuples += int64(len(right))

	// Every join kind emits at most one output per probe-side match pair,
	// and the semi/complement/constrained kinds at most one per left tuple;
	// len(left) is the right starting capacity for all of them. emit charges
	// each buffered output against the shared governor, so a blowup inside
	// one partition is bounded mid-loop, not after the fact.
	out := make([]relation.Tuple, 0, len(left))
	emit := func(t relation.Tuple) bool {
		if !w.chargeTuple("parallel-join", t) {
			return false
		}
		out = append(out, t)
		return true
	}
	var nulls relation.Tuple
	if spec.kind == kindOuterJoin {
		nulls = nullTuple(spec.rightArity)
	}

	matches := func(kt keyed) []relation.Tuple { return table.probeHash(w, kt.t, kt.h, lk) }

	for _, kt := range left {
		if w.Interrupted() {
			return out
		}
		switch spec.kind {
		case kindJoin:
			for _, rt := range matches(kt) {
				joined := kt.t.Concat(rt)
				if spec.residual != nil {
					ok, c := spec.residual.Eval(joined)
					w.Stats.Comparisons += int64(c)
					if !ok {
						continue
					}
				}
				if !emit(joined) {
					return out
				}
			}
		case kindSemiJoin:
			if len(matches(kt)) > 0 && !emit(kt.t) {
				return out
			}
		case kindComplementJoin:
			if len(matches(kt)) == 0 && !emit(kt.t) {
				return out
			}
		case kindOuterJoin:
			m := matches(kt)
			if len(m) == 0 {
				if !emit(kt.t.Concat(nulls)) {
					return out
				}
				continue
			}
			for _, rt := range m {
				if !emit(kt.t.Concat(rt)) {
					return out
				}
			}
		case kindConstrainedOuterJoin:
			// The 'const' gate reads flag columns the tuple already carries:
			// no probe, no comparison charged (mirrors the serial joinIter).
			if !spec.coj.ConstraintHolds(kt.t) {
				if !emit(kt.t.Append(relation.Null())) {
					return out
				}
				continue
			}
			var flagged relation.Tuple
			if len(matches(kt)) > 0 {
				flagged = kt.t.Append(relation.Mark())
			} else {
				flagged = kt.t.Append(relation.Null())
			}
			if !emit(flagged) {
				return out
			}
		}
	}
	return out
}
