package core

import (
	"sync"
	"testing"

	"repro/internal/testutil"
)

// TestEngineConcurrentColdQueriesSingleFlight is the engine-level -race
// hammer: eight concurrent cold queries on one engine share the same root
// fingerprint. Each run replays the root entry once it is complete and
// otherwise evaluates (as its producer, or privately while it builds).
// Every answer equals the cache-off answer, no clean run abandons a spool,
// and afterwards one complete entry replays with zero base reads.
// Collapsing identical concurrent requests into one evaluation is the
// service's flight table (service.TestSingleFlightColdQueries).
func TestEngineConcurrentColdQueriesSingleFlight(t *testing.T) {
	testutil.CheckGoroutines(t)
	const q = `{ x | student(x) and not exists y: attends(x, y) and not lecture(y) }`
	const n = 8

	off, err := NewEngine(demoDB()).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(demoDB(), WithPlanCache(0))
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = eng.Query(q)
		}()
	}
	close(start)
	wg.Wait()

	var hits, misses int64
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !results[i].Rows.Equal(off.Rows) {
			t.Fatalf("run %d differs from the cache-off answer", i)
		}
		st := results[i].Stats
		hits += st.CacheHits
		misses += st.CacheMisses
		if st.CacheMisses == 0 && st.BaseTuplesRead != 0 {
			t.Fatalf("run %d replayed yet read %d base tuples", i, st.BaseTuplesRead)
		}
	}
	// The plan's only Shared node is its root: one hit or miss per run.
	if misses < 1 || hits+misses != n {
		t.Fatalf("hits(%d) + misses(%d), want %d with at least one miss", hits, misses, n)
	}
	if got := eng.Snapshot().CacheSpoolsAbandoned; got != 0 {
		t.Fatalf("clean hammer abandoned %d spools", got)
	}
	warm, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Rows.Equal(off.Rows) || warm.Stats.CacheHits != 1 || warm.Stats.CacheMisses != 0 || warm.Stats.BaseTuplesRead != 0 {
		t.Fatalf("warm run did not replay the complete entry: %s", warm.Stats.String())
	}
}
