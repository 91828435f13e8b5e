package core

// This file is the engine's unified observability surface: per-run
// exec.Stats live on each Result, and everything cumulative — execution
// counters, robustness counters, plan-cache occupancy — is read from one
// exported, JSON-tagged, versioned record that a service tier can serve
// verbatim (queryd's /stats) and that diffing tools can subtract window
// over window.

// SnapshotVersion is the schema version stamped into every Snapshot. Bump
// it whenever a field is added, renamed, or changes meaning, so persisted
// snapshots (load-test records, committed baselines) stay interpretable.
// Version 2 added the batch-executor surface: batches_emitted (counter) and
// avg_batch_fill (gauge). Version 3 removed partitions_executed with the
// partition-parallel join executor. Version 4 removed
// cache_single_flight_waits and cache_duplicates_avoided with the memo's
// cross-query spool streaming.
const SnapshotVersion = 4

// Snapshot is a point-in-time view of one Engine: the cumulative execution
// counters folded from every run since construction, the cumulative
// robustness counters, and the plan-cache occupancy gauges. All counter
// fields are monotone (Diff subtracts them); the gauge fields report the
// current state and survive Diff unchanged.
//
// JSON field names are the canonical wire names: benchrepro -json rows and
// the queryd /stats endpoint use exactly these keys.
type Snapshot struct {
	// Version is the Snapshot schema version (SnapshotVersion).
	Version int `json:"version"`
	// Strategy is the engine's evaluation strategy at snapshot time.
	Strategy string `json:"strategy"`
	// Runs counts executions folded into the counters: every RunContext or
	// StreamContext entered (through any wrapper), successful or not.
	// Prepare-only calls do not count.
	Runs int64 `json:"runs"`

	// Execution counters — the cumulative sums of exec.Stats across runs.
	BaseTuplesRead     int64 `json:"base_tuples_read"`
	Comparisons        int64 `json:"comparisons"`
	HashInserts        int64 `json:"hash_inserts"`
	IntermediateTuples int64 `json:"intermediate_tuples"`
	Materializations   int64 `json:"materializations"`
	OutputTuples       int64 `json:"output_tuples"`
	// BatchesEmitted counts blocks emitted by producing operators, the
	// demand-1 blocks of emptiness probes and streams included. Memo replay
	// is excluded.
	BatchesEmitted int64 `json:"batches_emitted"`
	// AvgBatchFill is the cumulative average tuples per emitted block — a
	// derived gauge (0 when no blocks were emitted); Diff keeps the
	// receiver's value.
	AvgBatchFill float64 `json:"avg_batch_fill"`

	// Plan-cache counters.
	CacheHits           int64 `json:"cache_hits"`
	CacheMisses         int64 `json:"cache_misses"`
	CacheTuplesReplayed int64 `json:"cache_tuples_replayed"`
	CacheTuplesSpooled  int64 `json:"cache_tuples_spooled"`
	// CacheSpoolsAbandoned counts spools given up before publication,
	// attributed to the runs that abandoned them. The memo-lifetime total
	// (which also counts generation-flush abandons no run observes) is the
	// MemoSpoolsAbandoned gauge below.
	CacheSpoolsAbandoned int64 `json:"cache_spools_abandoned"`

	// Robustness counters.
	PanicsRecovered   int64 `json:"panics_recovered"`
	LimitsTripped     int64 `json:"limits_tripped"`
	DegradedEvictions int64 `json:"degraded_evictions"`

	// Plan-cache occupancy gauges (point-in-time; Diff keeps the receiver's
	// values).
	CacheEnabled        bool  `json:"cache_enabled"`
	CacheEntries        int   `json:"cache_entries"`
	CacheTuples         int   `json:"cache_tuples"`
	CacheBudget         int   `json:"cache_budget"`
	MemoSpoolsAbandoned int64 `json:"memo_spools_abandoned"`
}

// Snapshot returns the engine's current unified counter snapshot. It is
// safe to call concurrently with executions; the counters are folded once
// per run, so a snapshot taken mid-run reflects only completed runs.
func (e *Engine) Snapshot() Snapshot {
	e.snapMu.Lock()
	cum, runs := e.cum, e.runs
	e.snapMu.Unlock()
	s := Snapshot{
		Version:  SnapshotVersion,
		Strategy: e.strategy.String(),
		Runs:     runs,

		BaseTuplesRead:     cum.BaseTuplesRead,
		Comparisons:        cum.Comparisons,
		HashInserts:        cum.HashInserts,
		IntermediateTuples: cum.IntermediateTuples,
		Materializations:   cum.Materializations,
		OutputTuples:       cum.OutputTuples,
		BatchesEmitted:     cum.BatchesEmitted,

		CacheHits:            cum.CacheHits,
		CacheMisses:          cum.CacheMisses,
		CacheTuplesReplayed:  cum.CacheTuplesReplayed,
		CacheTuplesSpooled:   cum.CacheTuplesSpooled,
		CacheSpoolsAbandoned: cum.CacheSpoolsAbandoned,

		PanicsRecovered:   cum.PanicsRecovered,
		LimitsTripped:     cum.LimitsTripped,
		DegradedEvictions: cum.DegradedEvictions,
	}
	if cum.BatchesEmitted > 0 {
		s.AvgBatchFill = float64(cum.BatchTuples) / float64(cum.BatchesEmitted)
	}
	if e.memo != nil {
		s.CacheEnabled = true
		s.CacheEntries, s.CacheTuples = e.memo.Entries(), e.memo.Tuples()
		s.CacheBudget = e.memo.Budget()
		s.MemoSpoolsAbandoned = e.memo.SpoolsAbandoned()
	}
	return s
}

// Diff returns the counter movement from prev to s: every monotone counter
// is subtracted, while Version, Strategy and the occupancy gauges keep the
// receiver's (newer) values. Subtracting a snapshot of a different version
// still subtracts field by field; callers comparing persisted snapshots
// should check Version first.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := s
	d.Runs -= prev.Runs
	d.BaseTuplesRead -= prev.BaseTuplesRead
	d.Comparisons -= prev.Comparisons
	d.HashInserts -= prev.HashInserts
	d.IntermediateTuples -= prev.IntermediateTuples
	d.Materializations -= prev.Materializations
	d.OutputTuples -= prev.OutputTuples
	// AvgBatchFill is a gauge: Diff keeps the receiver's value.
	d.BatchesEmitted -= prev.BatchesEmitted
	d.CacheHits -= prev.CacheHits
	d.CacheMisses -= prev.CacheMisses
	d.CacheTuplesReplayed -= prev.CacheTuplesReplayed
	d.CacheTuplesSpooled -= prev.CacheTuplesSpooled
	d.CacheSpoolsAbandoned -= prev.CacheSpoolsAbandoned
	d.PanicsRecovered -= prev.PanicsRecovered
	d.LimitsTripped -= prev.LimitsTripped
	d.DegradedEvictions -= prev.DegradedEvictions
	return d
}
