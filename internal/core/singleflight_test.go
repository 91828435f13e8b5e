package core

import (
	"sync"
	"testing"

	"repro/internal/testutil"
)

// TestEngineConcurrentColdQueriesSingleFlight is the engine-level hammer
// behind E15: eight concurrent cold queries on one engine all share the same root fingerprint, and exactly one of them evaluates
// the plan — every other run streams from the producer's in-flight spool or
// replays the published entry, reading zero base tuples.
func TestEngineConcurrentColdQueriesSingleFlight(t *testing.T) {
	testutil.CheckGoroutines(t)
	const q = `{ x | student(x) and not exists y: attends(x, y) and not lecture(y) }`
	const n = 8

	// The cache-off answer and the single-run cold cost, for comparison.
	off, err := NewEngine(demoDB()).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	coldRef, err := NewEngine(demoDB(), WithPlanCache(0)).Query(q)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(demoDB(), WithPlanCache(0))
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = eng.Query(q)
		}()
	}
	close(start)
	wg.Wait()

	var producers, totalReads, hits, dups, misses int64
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !results[i].Rows.Equal(off.Rows) {
			t.Fatalf("run %d differs from the cache-off answer", i)
		}
		st := results[i].Stats
		totalReads += st.BaseTuplesRead
		hits += st.CacheHits
		dups += st.CacheDuplicatesAvoided
		misses += st.CacheMisses
		if st.CacheMisses > 0 {
			producers++
			continue
		}
		// A non-producer must not have touched any base relation: all its
		// tuples came off the shared spool or the published entry.
		if st.BaseTuplesRead != 0 {
			t.Fatalf("run %d read %d base tuples without producing", i, st.BaseTuplesRead)
		}
		if st.CacheHits+st.CacheDuplicatesAvoided == 0 {
			t.Fatalf("run %d neither produced nor shared: %s", i, st.String())
		}
	}
	// Exactly one run evaluated the plan; its cost is the one-cold-run cost.
	if producers != 1 {
		t.Fatalf("%d producer runs, want exactly 1 (hits=%d dups=%d misses=%d)", producers, hits, dups, misses)
	}
	if totalReads != coldRef.Stats.BaseTuplesRead {
		t.Fatalf("total base reads %d, want one cold evaluation's %d", totalReads, coldRef.Stats.BaseTuplesRead)
	}
	if hits+dups < n-1 {
		t.Fatalf("hits(%d)+duplicates avoided(%d) < %d", hits, dups, n-1)
	}
	if got := eng.Snapshot().CacheSpoolsAbandoned; got != 0 {
		t.Fatalf("clean hammer abandoned %d spools", got)
	}
}
