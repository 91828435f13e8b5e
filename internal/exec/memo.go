package exec

import (
	"container/list"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/relation"
)

// This file implements the result memo behind the memoizing subplan cache.
// The planner (internal/planopt) wraps repeated subtrees in algebra.Shared
// nodes; at execution, the first evaluation of a fingerprint is elected the
// entry's *producer* and streams its tuples into a spool that every other
// evaluation of the same fingerprint — in the same plan (union branches,
// ⋉/⊼ twins) or in a concurrent or later Query/Check/Run on the same engine
// — consumes without touching base relations. Entries are verified against
// the full canonical plan string, so a 64-bit fingerprint collision degrades
// to a miss, never to a wrong result; and the memo remembers the catalog
// generation it was filled under, so any base-relation mutation flushes it
// wholesale.
//
// Spool entries are SINGLE-FLIGHT and STREAMING. An entry moves through a
// small state machine:
//
//	building → complete        (producer drained its input fully)
//	building → abandoned       (producer cancelled / tripped / panicked /
//	                            closed early, or the spool outgrew the budget)
//
// While an entry is building, concurrent evaluations of its fingerprint do
// not re-evaluate and do not wait for full publication: they attach as
// consumers and stream tuples as the producer appends them, blocking (on a
// per-entry wait channel that also observes their own context's
// cancellation) only when they catch up with the producer. If the producer
// dies, the entry is marked abandoned and every waiter is woken: the first
// to re-acquire is re-elected producer (resuming publication from scratch
// while skipping the prefix it already delivered downstream — evaluation is
// deterministic for a fixed catalog generation), the rest re-attach to the
// new entry. An entry abandoned because its result outgrew the memo budget
// instead sends every waiter down the private (transparent) path, since any
// re-elected producer would hit the same wall. Only a complete, uncancelled
// drain is ever published; partial spools are never replayed.

// DefaultMemoBudget bounds the memo's total buffered tuples when the caller
// does not pick a budget.
const DefaultMemoBudget = 1 << 20

// spoolState is the lifecycle state of one memo entry.
type spoolState uint8

const (
	// spoolBuilding: an elected producer is appending tuples; consumers may
	// attach and stream.
	spoolBuilding spoolState = iota
	// spoolComplete: the producer drained its input fully; the tuple slice
	// is immutable and the entry sits in the LRU.
	spoolComplete
	// spoolAbandoned: the producer died or the spool outgrew the budget;
	// the entry is out of the map and exists only so attached consumers can
	// observe the abandonment and re-elect (or go private).
	spoolAbandoned
)

// memoRole is what acquire hands an evaluation of a Shared node.
type memoRole uint8

const (
	// rolePrivate: evaluate the subtree transparently, no memo interaction
	// (stale generation, fingerprint collision, or the building entry's
	// producer belongs to this same execution — waiting on a producer that
	// is suspended in our own iterator tree would self-deadlock).
	rolePrivate memoRole = iota
	// roleReplay: the entry is complete; stream its immutable snapshot.
	roleReplay
	// roleConsume: another execution is producing; attach and stream.
	roleConsume
	// roleProduce: elected producer of a fresh building entry.
	roleProduce
)

// consumeStatus reports the outcome of one consumeWaitBlock call.
type consumeStatus uint8

const (
	consumeTuple     consumeStatus = iota // at least one tuple was streamed
	consumeEOF                            // entry complete and fully consumed
	consumeAbandoned                      // producer died: re-acquire (re-election)
	consumeOverflow                       // result outgrew the budget: go private
	consumeCancelled                      // the consumer's own context fired
)

// Memo is a bounded, generation-invalidated result cache keyed by plan
// fingerprint, shared by every execution on one engine. All state is
// guarded by one mutex; consumers blocked on an in-flight spool wait on a
// per-entry channel, never on the mutex.
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
	gen    int64  // catalog generation the spool is being filled under
	state  spoolState
	tuples []relation.Tuple

	// producer identifies the elected producer's execution (Context.execID)
	// so evaluations from the same execution never wait on themselves.
	producer uint64
	// overflow marks an abandonment caused by the spool outgrowing the memo
	// budget: waiters must not re-elect, they go private.
	overflow bool
	// waiters counts consumers blocked on updated; producers close and
	// replace the channel only when someone is actually waiting.
	waiters int
	updated chan struct{}

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
// their producers stop publishing and their consumers wake: the waiters
// re-acquire under their (now stale) generation and fall back to private
// evaluation.
func (m *Memo) flushLocked() {
	for _, e := range m.entries {
		if e.state == spoolBuilding {
			e.state = spoolAbandoned
			m.abandoned++
			m.wakeLocked(e)
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

// wakeLocked wakes every consumer blocked on e. The channel is closed and
// replaced only when someone is waiting, so the producer's per-append cost
// in the uncontended case is a lock and an integer compare.
func (m *Memo) wakeLocked(e *memoEntry) {
	if e.waiters > 0 {
		close(e.updated)
		e.updated = make(chan struct{})
	}
}

// acquire resolves one evaluation of fingerprint fp under catalog
// generation gen for execution execID: replay a complete entry, attach to a
// building one, get elected producer of a fresh one, or fall back to
// private evaluation (stale generation, collision, or self-owned producer).
func (m *Memo) acquire(gen int64, fp uint64, key string, execID uint64) (*memoEntry, memoRole) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.advance(gen) {
		return nil, rolePrivate
	}
	if e, ok := m.entries[fp]; ok {
		if e.key != key {
			// Fingerprint collision between distinct plans: the incumbent
			// stays, the newcomer evaluates privately.
			return nil, rolePrivate
		}
		switch e.state {
		case spoolComplete:
			m.lru.MoveToFront(e.elem)
			return e, roleReplay
		default: // spoolBuilding (abandoned entries never stay in the map)
			if e.producer == execID {
				// Our own producer is suspended somewhere below us in this
				// very iterator tree; waiting would deadlock one goroutine.
				return nil, rolePrivate
			}
			return e, roleConsume
		}
	}
	e := &memoEntry{
		fp:       fp,
		key:      key,
		gen:      gen,
		state:    spoolBuilding,
		producer: execID,
		updated:  make(chan struct{}),
	}
	//lint:ignore govcharge acquire inserts an empty spool container; tuples are charged as the producer appends them
	m.entries[fp] = e
	return e, roleProduce
}

// appendSpoolBlock adds a block the producer just yielded to its building
// entry and wakes any consumer that caught up. On budget overflow it appends
// the prefix that still fits before abandoning the entry as overflow, so
// CacheTuplesSpooled does not depend on the demand the producer runs under:
// the entry fills to the budget boundary and is abandoned on the first tuple
// past it. A generation flush may also have abandoned the entry. Returns how
// many tuples were appended and whether the spool is still publishable; when
// it is not, the producer keeps streaming privately.
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
		m.abandonLocked(e, true)
		return room, false
	}
	//lint:ignore govcharge the producer charges memo-spool via chargeBatch before calling appendSpoolBlock
	e.tuples = append(e.tuples, ts...)
	m.tuples += len(ts)
	m.wakeLocked(e)
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
	m.wakeLocked(e)
}

// abandon marks a building entry dead and wakes its consumers. overflow
// distinguishes "the result does not fit the memo" (waiters go private)
// from "the producer died" (waiters re-elect).
func (m *Memo) abandon(e *memoEntry, overflow bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.abandonLocked(e, overflow)
}

func (m *Memo) abandonLocked(e *memoEntry, overflow bool) {
	if e.state != spoolBuilding {
		return
	}
	e.state = spoolAbandoned
	e.overflow = overflow
	if cur, ok := m.entries[e.fp]; ok && cur == e {
		delete(m.entries, e.fp)
	}
	m.tuples -= len(e.tuples)
	m.abandoned++
	m.wakeLocked(e)
}

// evictLocked removes a complete entry from both map and LRU.
func (m *Memo) evictLocked(victim *memoEntry) {
	m.lru.Remove(victim.elem)
	if cur, ok := m.entries[victim.fp]; ok && cur == victim {
		delete(m.entries, victim.fp)
	}
	m.tuples -= len(victim.tuples)
}

// consumeWaitBlock streams up to max tuples starting at pos out of e,
// blocking only while the producer has not appended tuple pos yet. done is
// the consumer's own cancellation channel (nil = uncancellable). blocked
// reports whether the call had to wait at least once (the single-flight
// wait counter). The returned slice is a view of the spool
// taken under the mutex; the spool prefix below the published length is
// immutable (producers only append, and appends past a reallocation leave
// the old backing array intact), so reading it after unlock is safe — the
// mutex acquisition orders this read after the producer's writes.
func (m *Memo) consumeWaitBlock(e *memoEntry, pos, max int, done <-chan struct{}) (ts []relation.Tuple, st consumeStatus, blocked bool) {
	m.mu.Lock()
	for {
		if pos < len(e.tuples) {
			end := pos + max
			if end > len(e.tuples) {
				end = len(e.tuples)
			}
			ts = e.tuples[pos:end:end]
			m.mu.Unlock()
			return ts, consumeTuple, blocked
		}
		switch e.state {
		case spoolComplete:
			m.mu.Unlock()
			return nil, consumeEOF, blocked
		case spoolAbandoned:
			overflow := e.overflow
			m.mu.Unlock()
			if overflow {
				return nil, consumeOverflow, blocked
			}
			return nil, consumeAbandoned, blocked
		}
		// Caught up with the producer: wait for the next append or state
		// change. The waiter count is adjusted under the mutex, so a wake
		// between unlock and the select is never lost (the channel we hold
		// is the one the producer will close).
		e.waiters++
		ch := e.updated
		m.mu.Unlock()
		blocked = true
		select {
		case <-ch:
		case <-done:
			m.mu.Lock()
			e.waiters--
			m.mu.Unlock()
			return nil, consumeCancelled, blocked
		}
		// Re-acquire at the loop bottom: control jumps back to the loop
		// head, where every exit path unlocks.
		m.mu.Lock()
		e.waiters--
	}
}

// lookup returns the published result for fp under catalog generation gen,
// or nil/false. The canonical key must match: a fingerprint collision is a
// miss, and an in-flight spool is not yet a hit. A hit moves the entry to
// the LRU front. The returned slice is shared and must not be mutated.
func (m *Memo) lookup(gen int64, fp uint64, key string) ([]relation.Tuple, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.advance(gen) {
		return nil, false
	}
	e, ok := m.entries[fp]
	if !ok || e.key != key || e.state != spoolComplete {
		return nil, false
	}
	m.lru.MoveToFront(e.elem)
	return e.tuples, true
}

// store publishes an already materialized result in one step (tests and
// warm-priming). Oversized results, results under a superseded generation,
// and fingerprints that already have an entry — complete or in flight —
// are dropped.
func (m *Memo) store(gen int64, fp uint64, key string, tuples []relation.Tuple) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.advance(gen) || len(tuples) > m.budget {
		return
	}
	if _, ok := m.entries[fp]; ok {
		return
	}
	e := &memoEntry{fp: fp, key: key, gen: gen, state: spoolComplete, tuples: tuples, updated: make(chan struct{})}
	e.elem = m.lru.PushFront(e)
	//lint:ignore govcharge store warm-primes already-materialized results; the run that built them paid the charge
	m.entries[fp] = e
	m.tuples += len(tuples)
	for m.tuples > m.budget {
		back := m.lru.Back()
		if back == nil || back == e.elem {
			break
		}
		m.evictLocked(back.Value.(*memoEntry))
	}
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
// NextBatch (and may move between when a producer dies or a spool overflows).
type memoMode uint8

const (
	modeUnstarted memoMode = iota
	modeReplay             // streaming a complete entry's snapshot
	modeConsume            // streaming a building entry another execution fills
	modeProduce            // elected producer: evaluating, appending, yielding
	modePrivate            // transparent evaluation, no memo interaction
)

// memoIter executes an algebra.Shared node against the context memo. It is
// deliberately lazy: the memo acquire and the input Open both happen at the
// first NextBatch, not at Open — all iterators of a plan Open before any
// drains, so an eager acquire would elect producers for results a sibling
// branch is about to publish, and an eager input Open would run blocking
// hash builds that a replay makes unnecessary. It spools, replays and
// consumes blocks of its consumer's demand: the producer appends one block
// per entry-lock acquisition (appendSpoolBlock) and consumers drain as many
// published tuples as fit the demand per wait (consumeWaitBlock).
type memoIter struct {
	ctx *Context
	in  Iterator
	fp  uint64
	key string

	mode  memoMode
	gen   int64
	entry *memoEntry       // building entry (produce/consume modes)
	repl  []relation.Tuple // immutable snapshot (replay mode)
	// pos counts tuples already delivered downstream; across a producer
	// re-election or a private fallback it becomes the skip count, since
	// re-evaluation regenerates the same deterministic prefix.
	pos      int
	skip     int
	inOpened bool
	batch    Batch
}

func (it *memoIter) Open() {
	it.mode = modeUnstarted
	it.entry = nil
	it.repl = nil
	it.pos = 0
	it.skip = 0
	it.inOpened = false
}

func (it *memoIter) NextBatch(max int) (*Batch, bool) {
	// A panic below — the subtree's iterators, an injected fault at
	// memo.elect/memo.append — must not strand consumers on a building
	// entry: abandon first, then let the panic continue to the isolation
	// boundary.
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
	for {
		switch it.mode {
		case modeReplay:
			if it.pos >= len(it.repl) {
				return nil, false
			}
			end := it.pos + max
			if end > len(it.repl) {
				end = len(it.repl)
			}
			return it.redeliver(it.repl[it.pos:end:end])
		case modeProduce:
			return it.produceNextBatch(max)
		case modePrivate:
			return it.privateNextBatch(max)
		default: // modeConsume
			b, ok, resolved := it.consumeNextBatch(max)
			if resolved {
				return b, ok
			}
			// Producer died or the entry state changed: mode was switched;
			// loop and continue under the new mode.
		}
	}
}

// start resolves the memo at the first NextBatch. An elected producer whose
// consumer asks for more than one tuple pre-sizes the fresh spool from the
// input's size hint, rounded up to whole blocks (a hint of 0 reserves
// nothing); a demand-1 consumer — an emptiness probe — has said it may stop
// after any tuple, so nothing is reserved for it.
func (it *memoIter) start(max int) {
	it.gen = it.ctx.Catalog.Generation()
	if it.ctx.Memo == nil {
		it.mode = modePrivate
		return
	}
	e, role := it.ctx.Memo.acquire(it.gen, it.fp, it.key, it.ctx.execID)
	switch role {
	case roleReplay:
		it.ctx.Stats.CacheHits++
		it.repl = e.tuples
		it.mode = modeReplay
	case roleConsume:
		it.ctx.Stats.CacheDuplicatesAvoided++
		it.entry = e
		it.mode = modeConsume
	case roleProduce:
		it.ctx.Stats.CacheMisses++
		it.entry = e
		it.mode = modeProduce
		if max > 1 {
			it.ctx.Memo.presizeSpool(e, presizeBlocks(hintOf(it.in), max))
		}
		// The election fault point: an injected error here cancels the
		// context (the producer abandons on its next step and waiters
		// re-elect); an injected panic unwinds through the abandon guard.
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
	for {
		b, ok := it.in.NextBatch(max)
		if !ok {
			// Complete drain: publish, unless cancellation may have
			// truncated the stream. The fault point sits before the
			// publication so an injected failure here proves aborted spools
			// are never published.
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
		// block: the pinned *ResourceError surfaces at the root, so the
		// stream is never silently truncated relative to a cache-off run.
		if !it.ctx.chargeBatch("memo-spool", ts) {
			it.abandonProduce()
			return it.yieldProducedBlock(ts, max)
		}
		it.ctx.fireFault(faultinject.PointMemoAppend)
		if it.ctx.CancelErr() != nil {
			it.abandonProduce()
			return it.yieldProducedBlock(ts, max)
		}
		appended, ok := it.ctx.Memo.appendSpoolBlock(it.entry, ts)
		it.ctx.Stats.CacheTuplesSpooled += int64(appended)
		if !ok {
			// Overflow (the entry outgrew the memo budget, possibly after a
			// partial append) or a generation flush raced the build: the
			// spool is gone, keep streaming privately.
			it.entry = nil
			it.mode = modePrivate
			it.ctx.Stats.CacheSpoolsAbandoned++
			return it.yieldProducedBlock(ts, max)
		}
		if it.skip >= len(ts) {
			// Re-elected producer: this whole block was already delivered
			// downstream while consuming the abandoned entry.
			it.skip -= len(ts)
			continue
		}
		return it.yieldProducedBlock(ts, max)
	}
}

// yieldProducedBlock delivers one produced block downstream, honouring the
// re-election skip prefix (possibly trimming the block's head).
func (it *memoIter) yieldProducedBlock(ts []relation.Tuple, max int) (*Batch, bool) {
	if it.skip >= len(ts) {
		it.skip -= len(ts)
		return it.NextBatch(max)
	}
	ts = ts[it.skip:]
	it.skip = 0
	it.ctx.noteBatch(len(ts))
	return it.deliver(ts)
}

// deliver hands a block downstream and advances the delivered-prefix count.
func (it *memoIter) deliver(ts []relation.Tuple) (*Batch, bool) {
	it.pos += len(ts)
	it.batch.Tuples = ts
	return &it.batch, true
}

// redeliver delivers a block another evaluation produced (replay, or
// consumption of an in-flight spool). That is not an emission, so it is not
// a noteBatch — BatchesEmitted stays deterministic under concurrency.
func (it *memoIter) redeliver(ts []relation.Tuple) (*Batch, bool) {
	it.ctx.Stats.CacheTuplesReplayed += int64(len(ts))
	return it.deliver(ts)
}

// consumeNextBatch streams up to one block from another execution's
// building entry. resolved=false means the entry reached a terminal state
// and the iterator switched modes; the caller loops.
func (it *memoIter) consumeNextBatch(max int) (*Batch, bool, bool) {
	ts, st, blocked := it.ctx.Memo.consumeWaitBlock(it.entry, it.pos, max, it.ctx.doneChan())
	if blocked {
		it.ctx.Stats.CacheSingleFlightWaits++
	}
	switch st {
	case consumeTuple:
		b, ok := it.redeliver(ts)
		return b, ok, true
	case consumeEOF:
		return nil, false, true
	case consumeCancelled:
		it.ctx.observeCancel()
		return nil, false, true
	case consumeOverflow:
		// The result does not fit the memo: nobody should produce into it.
		// Evaluate privately, regenerating and discarding the prefix already
		// streamed downstream.
		it.entry = nil
		it.mode = modePrivate
		it.skip = it.pos
		return nil, false, false
	default: // consumeAbandoned — the producer died; re-elect.
		e, role := it.ctx.Memo.acquire(it.gen, it.fp, it.key, it.ctx.execID)
		switch role {
		case roleReplay:
			// Another waiter was re-elected and already finished.
			it.repl = e.tuples
			it.mode = modeReplay
		case roleConsume:
			it.entry = e
			it.mode = modeConsume
		case roleProduce:
			it.ctx.Stats.CacheMisses++
			it.entry = e
			it.mode = modeProduce
			it.skip = it.pos
			it.ctx.fireFault(faultinject.PointMemoElect)
		default:
			it.entry = nil
			it.mode = modePrivate
			it.skip = it.pos
		}
		return nil, false, false
	}
}

// privateNextBatch evaluates the subtree transparently, discarding the
// deterministic prefix already delivered downstream from a dead spool.
func (it *memoIter) privateNextBatch(max int) (*Batch, bool) {
	if !it.inOpened {
		it.in.Open()
		it.inOpened = true
	}
	for {
		if it.ctx.interruptedN(max) {
			return nil, false
		}
		b, ok := it.in.NextBatch(max)
		if !ok {
			return nil, false
		}
		if it.skip >= len(b.Tuples) {
			it.skip -= len(b.Tuples)
			continue
		}
		return it.yieldProducedBlock(b.Tuples, max)
	}
}

// abandonProduce abandons the building entry this iterator produces, if
// any, and drops to private mode. Safe to call in any mode (Close and the
// panic guard call it unconditionally).
func (it *memoIter) abandonProduce() {
	if it.mode == modeProduce && it.entry != nil {
		it.ctx.Memo.abandon(it.entry, false)
		it.ctx.Stats.CacheSpoolsAbandoned++
	}
	if it.mode == modeProduce {
		it.entry = nil
		it.mode = modePrivate
	}
}

func (it *memoIter) Close() {
	// An early close while producing — an emptiness probe that stopped at
	// its first witness, a cancelled run unwinding — abandons the spool so
	// attached consumers re-elect instead of waiting forever.
	it.abandonProduce()
	if it.inOpened {
		it.in.Close()
	}
	it.entry = nil
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
