package service

import (
	"context"
	"sync"

	"repro/internal/core"
)

// This file is the repo's one single-flight layer: identical concurrent
// queries — same tenant, same canonical fingerprint, same catalog
// generation — evaluate once. The first arriver is elected producer and
// runs the engine under its own request context; everyone else attaches as
// a waiter and shares the producer's materialized Result (results are
// immutable, so sharing the pointer is safe). The engine's memo below
// replays only complete results and never makes one execution wait on
// another. A producer that dies of its *own* cancellation abandons the
// entry and wakes the waiters, and the first to re-acquire is re-elected.
// Deterministic failures (parse, safety,
// governor trips under the tenant's fixed budgets) are shared like results:
// every waiter would reproduce them, so re-evaluating would only multiply
// the cost of the failure.
//
// Entries live only while their evaluation is in flight: publication
// removes the entry, so the flight table collapses concurrency without ever
// caching — warm-result reuse stays the memo's job, one level below.

// flightKey identifies one request-level flight.
type flightKey struct {
	tenant string
	fp     uint64
	gen    int64
}

// flightRole is the disposition of one request against the flight table.
const (
	flightElect = "elect" // ran the evaluation (possibly after a re-election)
	flightShare = "share" // attached to another request's evaluation
)

// flightEntry is one in-flight evaluation. res/err/abandoned are written
// exactly once, before done is closed; waiters read them only after the
// close, so the channel provides the happens-before edge.
type flightEntry struct {
	done      chan struct{}
	res       *core.Result
	err       error
	abandoned bool
}

// flightOutcome reports how one do call resolved.
type flightOutcome struct {
	// Role is flightElect or flightShare ("" when the caller's own context
	// cancelled the wait).
	Role string
	// Waits counts the in-flight entries this call blocked on before
	// resolving (re-elections make it exceed 1).
	Waits int
}

// flightTable is the request-level single-flight map.
type flightTable struct {
	mu       sync.Mutex
	inflight map[flightKey]*flightEntry
}

func newFlightTable() *flightTable {
	return &flightTable{inflight: make(map[flightKey]*flightEntry)}
}

// do resolves one request under key: elect and run produce, or wait for the
// incumbent producer and share its outcome. ctx is the caller's request
// context; it bounds both the wait and (for the elected producer) the
// evaluation itself.
func (f *flightTable) do(ctx context.Context, key flightKey, produce func() (*core.Result, error)) (*core.Result, error, flightOutcome) {
	var out flightOutcome
	for {
		f.mu.Lock()
		e, ok := f.inflight[key]
		if !ok {
			e = &flightEntry{done: make(chan struct{})}
			f.inflight[key] = e
			f.mu.Unlock()
			out.Role = flightElect
			res, err := produce()
			abandoned := err != nil && ctx.Err() != nil
			e.res, e.err, e.abandoned = res, err, abandoned
			f.mu.Lock()
			delete(f.inflight, key)
			f.mu.Unlock()
			close(e.done)
			return res, err, out
		}
		f.mu.Unlock()
		out.Waits++
		select {
		case <-e.done:
		case <-ctx.Done():
			out.Role = ""
			return nil, ctx.Err(), out
		}
		if !e.abandoned {
			out.Role = flightShare
			return e.res, e.err, out
		}
		// The producer died of its own cancellation: loop and re-acquire.
		// The first waiter back through the lock is re-elected.
	}
}
