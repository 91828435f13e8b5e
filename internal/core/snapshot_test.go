package core

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSnapshotCountsRuns: executions bump Runs and fold their counters;
// prepare-only calls fold without counting.
func TestSnapshotCountsRuns(t *testing.T) {
	eng := NewEngine(demoDB())
	if s := eng.Snapshot(); s.Runs != 0 || s.Version != SnapshotVersion || s.Strategy != "bry" {
		t.Fatalf("fresh snapshot: %+v", s)
	}
	if _, err := eng.Prepare(`{ x | student(x) }`); err != nil {
		t.Fatal(err)
	}
	if s := eng.Snapshot(); s.Runs != 0 {
		t.Fatalf("Prepare must not count as a run: %+v", s)
	}
	res, err := eng.Query(`{ x | student(x) }`)
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Snapshot()
	if s.Runs != 1 {
		t.Fatalf("want 1 run, got %d", s.Runs)
	}
	if s.OutputTuples != int64(res.Rows.Len()) {
		t.Fatalf("output_tuples %d != rows %d", s.OutputTuples, res.Rows.Len())
	}
	if s.BaseTuplesRead != res.Stats.BaseTuplesRead {
		t.Fatalf("one run: cumulative reads %d != run reads %d", s.BaseTuplesRead, res.Stats.BaseTuplesRead)
	}
}

// TestSnapshotCacheGauges: the occupancy gauges follow the memo, and warm
// hits move the cache counters.
func TestSnapshotCacheGauges(t *testing.T) {
	eng := NewEngine(demoDB(), WithPlanCache(0))
	const q = `{ x | student(x) and not exists y: attends(x, y) and not lecture(y) }`
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	s := eng.Snapshot()
	if !s.CacheEnabled || s.CacheEntries == 0 || s.CacheBudget == 0 {
		t.Fatalf("cache gauges missing: %+v", s)
	}
	if s.CacheHits == 0 {
		t.Fatalf("the second identical query must hit the cache: %+v", s)
	}
	off := NewEngine(demoDB())
	if s := off.Snapshot(); s.CacheEnabled || s.CacheBudget != 0 {
		t.Fatalf("cache-off gauges must be zero: %+v", s)
	}
}

// TestSnapshotDiff: Diff subtracts the monotone counters and keeps the
// receiver's gauges.
func TestSnapshotDiff(t *testing.T) {
	eng := NewEngine(demoDB(), WithPlanCache(0))
	const q = `{ x | student(x) and not exists y: attends(x, y) and not lecture(y) }`
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	after := eng.Snapshot()
	d := after.Diff(before)
	if d.Runs != 1 {
		t.Fatalf("diff runs = %d, want 1", d.Runs)
	}
	if d.CacheHits != 1 {
		t.Fatalf("the window holds one warm query: %+v", d)
	}
	if d.BaseTuplesRead != 0 {
		t.Fatalf("a warm replay reads no base tuples: %+v", d)
	}
	if d.CacheEntries != after.CacheEntries || d.CacheBudget != after.CacheBudget || !d.CacheEnabled {
		t.Fatalf("gauges must survive Diff: %+v", d)
	}
	if d.Version != SnapshotVersion || d.Strategy != "bry" {
		t.Fatalf("identity fields must survive Diff: %+v", d)
	}
}

// TestSnapshotJSONKeys: the wire names are the contract benchrepro -json
// and queryd /stats build on.
func TestSnapshotJSONKeys(t *testing.T) {
	b, err := json.Marshal(Snapshot{Version: SnapshotVersion})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"version"`, `"strategy"`, `"runs"`,
		`"base_tuples_read"`, `"comparisons"`, `"hash_inserts"`, `"intermediate_tuples"`,
		`"materializations"`, `"output_tuples"`,
		`"cache_hits"`, `"cache_misses"`, `"cache_tuples_replayed"`, `"cache_tuples_spooled"`,
		`"cache_spools_abandoned"`,
		`"panics_recovered"`, `"limits_tripped"`, `"degraded_evictions"`,
		`"cache_enabled"`, `"cache_entries"`, `"cache_tuples"`, `"cache_budget"`,
		`"memo_spools_abandoned"`,
	} {
		if !strings.Contains(string(b), key) {
			t.Errorf("snapshot JSON misses %s:\n%s", key, b)
		}
	}
}
