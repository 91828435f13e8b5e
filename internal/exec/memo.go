package exec

import (
	"container/list"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/relation"
)

// This file implements the result memo behind the memoizing subplan cache.
// The planner (internal/planopt) wraps repeated subtrees in algebra.Shared
// nodes; at execution, the first evaluation of a fingerprint becomes the
// entry's *producer* and spools its tuples as it streams them downstream.
// Once the producer has drained its input fully, the entry is published and
// every later evaluation of the same fingerprint — in the same plan (union
// branches, ⋉/⊼ twins) or in a later Query/Check/Run on the same engine —
// replays it without touching base relations. Entries are verified against
// the full canonical plan string, so a 64-bit fingerprint collision degrades
// to a miss, never to a wrong result; and the memo remembers the catalog
// generation it was filled under, so any base-relation mutation flushes it
// wholesale.
//
// An entry is either building, and private to its producer, or complete and
// replayable:
//
//	building → complete        (producer drained its input fully)
//	building → abandoned       (producer cancelled / tripped / panicked /
//	                            closed early, the spool outgrew the budget,
//	                            or a generation flush raced the build)
//
// An evaluation that finds its fingerprint still building evaluates its own
// subtree privately; it never waits on, nor reads from, a spool that is not
// complete. So within one execution a second reference to a subplan whose
// producer is suspended in the same iterator tree cannot deadlock, and an
// abandoned entry is simply dropped: the next evaluation produces it again.
// Collapsing identical *concurrent* requests is one layer up, in the query
// service's flight table (internal/service/flight.go).

// DefaultMemoBudget bounds the memo's total buffered tuples when the caller
// does not pick a budget.
const DefaultMemoBudget = 1 << 20

// spoolState is the lifecycle state of one memo entry.
type spoolState uint8

const (
	// spoolBuilding: the producer is appending tuples; nobody else reads
	// the entry.
	spoolBuilding spoolState = iota
	// spoolComplete: the producer drained its input fully; the tuple slice
	// is immutable and the entry sits in the LRU.
	spoolComplete
	// spoolAbandoned: the producer died, the spool outgrew the budget, or a
	// flush dropped it; the entry is out of the map and its producer, still
	// holding it, stops appending.
	spoolAbandoned
)

// memoRole is what acquire hands an evaluation of a Shared node.
type memoRole uint8

const (
	// rolePrivate: evaluate the subtree transparently, no memo interaction
	// (stale generation, fingerprint collision, or an entry still building).
	rolePrivate memoRole = iota
	// roleReplay: the entry is complete; stream its immutable snapshot.
	roleReplay
	// roleProduce: producer of a fresh building entry.
	roleProduce
)

// Memo is a bounded, generation-invalidated result cache keyed by plan
// fingerprint, shared by every execution on one engine. All state is
// guarded by one mutex, held only for map, LRU and slice bookkeeping.
type Memo struct {
	mu      sync.Mutex
	budget  int
	gen     int64
	tuples  int // buffered tuples across all entries, in-flight spools included
	entries map[uint64]*memoEntry
	lru     *list.List // front = most recently used; complete entries only
	// abandoned counts spools abandoned over the memo's lifetime (producer
	// death, budget overflow, or a generation flush racing an in-flight
	// build); surfaced by queryctl \cache status.
	abandoned int64
}

type memoEntry struct {
	fp     uint64
	key    string // canonical plan string: the collision check
	state  spoolState
	tuples []relation.Tuple

	elem *list.Element // non-nil once complete (position in the LRU)
}

// NewMemo builds a memo bounded to at most budget buffered tuples across all
// entries; budget <= 0 selects DefaultMemoBudget.
func NewMemo(budget int) *Memo {
	if budget <= 0 {
		budget = DefaultMemoBudget
	}
	return &Memo{
		budget:  budget,
		gen:     -1,
		entries: make(map[uint64]*memoEntry),
		lru:     list.New(),
	}
}

// Budget returns the tuple budget.
func (m *Memo) Budget() int { return m.budget }

// Entries returns the number of cached results, in-flight spools included.
func (m *Memo) Entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Tuples returns the number of buffered tuples across all entries,
// in-flight spools included.
func (m *Memo) Tuples() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tuples
}

// SpoolsAbandoned returns how many spools have been abandoned over the
// memo's lifetime (producer death, budget overflow, generation flush).
func (m *Memo) SpoolsAbandoned() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.abandoned
}

// Flush drops every entry.
func (m *Memo) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushLocked()
}

// flushLocked empties the memo. In-flight spools are abandoned first so
// their producers stop publishing and finish privately.
func (m *Memo) flushLocked() {
	for _, e := range m.entries {
		if e.state == spoolBuilding {
			e.state = spoolAbandoned
			m.abandoned++
		}
	}
	m.entries = make(map[uint64]*memoEntry)
	m.lru.Init()
	m.tuples = 0
}

// advance flushes the memo when a newer catalog generation is observed.
// Generations are monotonic, so gen < m.gen identifies a stale caller (a
// run that started before a mutation); those neither read nor write.
// Returns whether gen is current. Callers hold the mutex.
func (m *Memo) advance(gen int64) bool {
	if gen > m.gen {
		m.flushLocked()
		m.gen = gen
	}
	return gen == m.gen
}

// acquire resolves one evaluation of fingerprint fp under catalog
// generation gen: replay a complete entry, produce a fresh one, or fall
// back to private evaluation (stale generation, collision, or an entry that
// is still building — whichever execution owns it).
func (m *Memo) acquire(gen int64, fp uint64, key string) (*memoEntry, memoRole) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.advance(gen) {
		return nil, rolePrivate
	}
	if e, ok := m.entries[fp]; ok {
		// A colliding plan (the incumbent stays) or a spool that is not
		// complete yet: evaluate privately.
		if e.key != key || e.state != spoolComplete {
			return nil, rolePrivate
		}
		m.lru.MoveToFront(e.elem)
		return e, roleReplay
	}
	e := &memoEntry{fp: fp, key: key, state: spoolBuilding}
	//lint:ignore govcharge acquire inserts an empty spool container; tuples are charged as the producer appends them
	m.entries[fp] = e
	return e, roleProduce
}

// appendSpoolBlock adds a block the producer just yielded to its building
// entry. On budget overflow it appends the prefix that still fits before
// abandoning the entry, so CacheTuplesSpooled does not depend on the demand
// the producer runs under: the entry fills to the budget boundary and is
// abandoned on the first tuple past it. A generation flush may also have
// abandoned the entry. Returns how many tuples were appended and whether
// the spool is still publishable; when it is not, the producer keeps
// streaming privately.
func (m *Memo) appendSpoolBlock(e *memoEntry, ts []relation.Tuple) (appended int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.state != spoolBuilding {
		return 0, false
	}
	if room := m.budget - len(e.tuples); len(ts) > room {
		if room < 0 {
			room = 0
		}
		//lint:ignore govcharge the producer charges memo-spool via chargeBatch before calling appendSpoolBlock
		e.tuples = append(e.tuples, ts[:room]...)
		m.tuples += room
		m.abandonLocked(e)
		return room, false
	}
	//lint:ignore govcharge the producer charges memo-spool via chargeBatch before calling appendSpoolBlock
	e.tuples = append(e.tuples, ts...)
	m.tuples += len(ts)
	return len(ts), true
}

// presizeSpool reserves spool capacity for an expected result size. The
// caller converts its per-tuple hint into a whole-block reservation
// (planopt.BlocksFor rounds up; a hint of 0 reserves nothing) and this
// clamps it to the memo budget — an entry can never publish more than the
// budget, so reserving past it only wastes memory.
func (m *Memo) presizeSpool(e *memoEntry, capHint int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.state != spoolBuilding || capHint <= 0 {
		return
	}
	if capHint > m.budget {
		capHint = m.budget
	}
	if cap(e.tuples) >= capHint {
		return
	}
	grown := make([]relation.Tuple, len(e.tuples), capHint)
	copy(grown, e.tuples)
	e.tuples = grown
}

// complete publishes a fully drained spool: the entry becomes immutable,
// joins the LRU front, and least-recently-used complete entries are evicted
// until the budget holds again. In-flight spools are never evicted.
func (m *Memo) complete(e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.state != spoolBuilding {
		return
	}
	e.state = spoolComplete
	e.elem = m.lru.PushFront(e)
	for m.tuples > m.budget {
		back := m.lru.Back()
		if back == nil || back == e.elem {
			break
		}
		m.evictLocked(back.Value.(*memoEntry))
	}
}

// abandon marks a building entry dead and drops it from the map, so the
// next evaluation of its fingerprint produces again.
func (m *Memo) abandon(e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.abandonLocked(e)
}

func (m *Memo) abandonLocked(e *memoEntry) {
	if e.state != spoolBuilding {
		return
	}
	e.state = spoolAbandoned
	if cur, ok := m.entries[e.fp]; ok && cur == e {
		delete(m.entries, e.fp)
	}
	m.tuples -= len(e.tuples)
	m.abandoned++
}

// evictLocked removes a complete entry from both map and LRU.
func (m *Memo) evictLocked(victim *memoEntry) {
	m.lru.Remove(victim.elem)
	if cur, ok := m.entries[victim.fp]; ok && cur == victim {
		delete(m.entries, victim.fp)
	}
	m.tuples -= len(victim.tuples)
}

// shed evicts least-recently-used complete entries until at least need
// estimated bytes are freed (or no complete entry is left), returning the
// bytes freed and the entry count evicted. The governor calls it under
// memory pressure: warm cache entries are engine-held memory the query can
// give back without affecting correctness — only later hit rates.
// In-flight spools are not in the LRU and are never shed.
func (m *Memo) shed(need int64) (freed int64, evicted int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for freed < need {
		back := m.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*memoEntry)
		m.evictLocked(victim)
		for _, t := range victim.tuples {
			freed += tupleBytes(t)
		}
		evicted++
	}
	return freed, evicted
}

// HasComplete reports whether a published (complete, current-generation)
// entry exists for fp/key without touching LRU order. The service tier's
// degraded mode consults it before admitting a cache-only execution: a true
// answer is advisory — the entry can still be evicted before the run reads
// it, in which case the run simply evaluates cold — but a false answer is a
// reliable "this plan would evaluate from scratch".
func (m *Memo) HasComplete(gen int64, fp uint64, key string) bool {
	return m.entryLen(gen, fp, key) >= 0
}

// entryLen returns the published result's length for fp/key under catalog
// generation gen without touching LRU order; -1 when absent, still
// building, or stale. Threading gen through matters: after a base-relation
// mutation the old entry's length must not leak out as a size hint.
func (m *Memo) entryLen(gen int64, fp uint64, key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.advance(gen) {
		return -1
	}
	if e, ok := m.entries[fp]; ok && e.key == key && e.state == spoolComplete {
		return len(e.tuples)
	}
	return -1
}

// memoMode is the execution mode a memoIter settles into at its first
// NextBatch (a producer drops to private when its spool is abandoned).
type memoMode uint8

const (
	modeUnstarted memoMode = iota
	modeReplay             // streaming a complete entry's snapshot
	modeProduce            // producer: evaluating, appending, yielding
	modePrivate            // transparent evaluation, no memo interaction
)

// memoIter executes an algebra.Shared node against the context memo. It is
// deliberately lazy: the memo acquire and the input Open both happen at the
// first NextBatch, not at Open — all iterators of a plan Open before any
// drains, so an eager acquire would make a producer of a result a sibling
// branch is about to publish, and an eager input Open would run blocking
// hash builds that a replay makes unnecessary. It spools and replays blocks
// of its consumer's demand: the producer appends one block per lock
// acquisition (appendSpoolBlock), and a replay slices the published
// snapshot.
type memoIter struct {
	ctx *Context
	in  Iterator
	fp  uint64
	key string

	mode     memoMode
	entry    *memoEntry       // building entry (produce mode)
	repl     []relation.Tuple // immutable snapshot (replay mode)
	pos      int              // replay position in repl
	inOpened bool
	batch    Batch
}

func (it *memoIter) Open() {
	it.mode = modeUnstarted
	it.entry = nil
	it.repl = nil
	it.pos = 0
	it.inOpened = false
}

func (it *memoIter) NextBatch(max int) (*Batch, bool) {
	// A panic below — the subtree's iterators, an injected fault at
	// memo.elect/memo.append — must not leave a building entry in the map,
	// where every later evaluation of the fingerprint would go private
	// until the next flush: abandon first, then let the panic continue to
	// the isolation boundary.
	defer func() {
		if r := recover(); r != nil {
			it.abandonProduce()
			panic(r)
		}
	}()
	if it.ctx.interruptedN(max) {
		it.abandonProduce()
		return nil, false
	}
	if it.mode == modeUnstarted {
		it.start(max)
	}
	switch it.mode {
	case modeReplay:
		if it.pos >= len(it.repl) {
			return nil, false
		}
		end := min(it.pos+max, len(it.repl))
		ts := it.repl[it.pos:end:end]
		it.pos = end
		// A replay re-delivers blocks another evaluation produced: not an
		// emission, so no noteBatch.
		it.ctx.Stats.CacheTuplesReplayed += int64(len(ts))
		it.batch.Tuples = ts
		return &it.batch, true
	case modeProduce:
		return it.produceNextBatch(max)
	default:
		return it.privateNextBatch(max)
	}
}

// start resolves the memo at the first NextBatch. A producer whose consumer
// asks for more than one tuple pre-sizes the fresh spool from the input's
// size hint, rounded up to whole blocks (a hint of 0 reserves nothing); a
// demand-1 consumer — an emptiness probe — has said it may stop after any
// tuple, so nothing is reserved for it.
func (it *memoIter) start(max int) {
	if it.ctx.Memo == nil {
		it.mode = modePrivate
		return
	}
	e, role := it.ctx.Memo.acquire(it.ctx.Catalog.Generation(), it.fp, it.key)
	switch role {
	case roleReplay:
		it.ctx.Stats.CacheHits++
		it.repl = e.tuples
		it.mode = modeReplay
	case roleProduce:
		it.ctx.Stats.CacheMisses++
		it.entry = e
		it.mode = modeProduce
		if max > 1 {
			it.ctx.Memo.presizeSpool(e, presizeBlocks(hintOf(it.in), max))
		}
		// The election fault point: an injected error here cancels the
		// context (the producer abandons on its next step); an injected
		// panic unwinds through the abandon guard.
		it.ctx.fireFault(faultinject.PointMemoElect)
	default:
		it.ctx.Stats.CacheMisses++
		it.mode = modePrivate
	}
}

// produceNextBatch advances the producer by one input block: charge it,
// append it to the spool, yield it. A complete drain publishes; any abort
// abandons.
func (it *memoIter) produceNextBatch(max int) (*Batch, bool) {
	if it.ctx.interruptedN(max) {
		it.abandonProduce()
		return nil, false
	}
	if !it.inOpened {
		it.in.Open()
		it.inOpened = true
	}
	b, ok := it.in.NextBatch(max)
	if !ok {
		// Complete drain: publish, unless cancellation may have truncated
		// the stream. The fault point sits before the publication so an
		// injected failure here proves aborted spools are never published.
		if it.ctx.CancelErr() == nil {
			it.ctx.fireFault(faultinject.PointMemoPublish)
		}
		if it.ctx.CancelErr() == nil {
			it.ctx.Memo.complete(it.entry)
			it.entry = nil
			it.mode = modePrivate // input exhausted; stays empty
		} else {
			it.abandonProduce()
		}
		return nil, false
	}
	ts := b.Tuples
	// A failed governor charge abandons the spool but still yields the
	// block: the pinned *ResourceError surfaces at the root, so the stream
	// is never silently truncated relative to a cache-off run.
	if !it.ctx.chargeBatch("memo-spool", ts) {
		it.abandonProduce()
		return it.emit(ts)
	}
	it.ctx.fireFault(faultinject.PointMemoAppend)
	if it.ctx.CancelErr() != nil {
		it.abandonProduce()
		return it.emit(ts)
	}
	appended, ok := it.ctx.Memo.appendSpoolBlock(it.entry, ts)
	it.ctx.Stats.CacheTuplesSpooled += int64(appended)
	if !ok {
		// Overflow (the entry outgrew the memo budget, possibly after a
		// partial append) or a generation flush raced the build: the spool
		// is gone, keep streaming privately.
		it.entry = nil
		it.mode = modePrivate
		it.ctx.Stats.CacheSpoolsAbandoned++
	}
	return it.emit(ts)
}

// privateNextBatch evaluates the subtree transparently.
func (it *memoIter) privateNextBatch(max int) (*Batch, bool) {
	if !it.inOpened {
		it.in.Open()
		it.inOpened = true
	}
	if it.ctx.interruptedN(max) {
		return nil, false
	}
	b, ok := it.in.NextBatch(max)
	if !ok {
		return nil, false
	}
	return it.emit(b.Tuples)
}

// emit hands a block this iterator produced downstream.
func (it *memoIter) emit(ts []relation.Tuple) (*Batch, bool) {
	it.ctx.noteBatch(len(ts))
	it.batch.Tuples = ts
	return &it.batch, true
}

// abandonProduce abandons the building entry this iterator produces, if
// any, and drops to private mode. Safe to call in any mode (Close and the
// panic guard call it unconditionally).
func (it *memoIter) abandonProduce() {
	if it.mode != modeProduce {
		return
	}
	it.ctx.Memo.abandon(it.entry)
	it.ctx.Stats.CacheSpoolsAbandoned++
	it.entry = nil
	it.mode = modePrivate
}

func (it *memoIter) Close() {
	// An early close while producing — an emptiness probe that stopped at
	// its first witness, a cancelled run unwinding — abandons the spool: a
	// partial result is never published, and the next evaluation of the
	// fingerprint produces it again.
	it.abandonProduce()
	if it.inOpened {
		it.in.Close()
	}
	it.repl = nil
}

// sizeHint bounds the output: exactly the entry length on a warm cache
// under the current catalog generation, otherwise whatever the input can
// promise.
func (it *memoIter) sizeHint() int {
	if n := it.ctx.Memo.entryLen(it.ctx.Catalog.Generation(), it.fp, it.key); n >= 0 {
		return n
	}
	return hintOf(it.in)
}
