// Package exec evaluates algebra plans over a storage catalog with a
// volcano-style (Open/NextBatch/Close) block iterator model driven by
// consumer demand (see Iterator). Every operator charges
// its work to a Stats record carried by the execution context, so that the
// paper's efficiency claims — relations searched once, no cartesian
// products, no materialized unions, early termination of emptiness tests —
// become measurable quantities rather than assertions.
package exec

import "fmt"

// Stats accumulates the cost counters of one plan execution.
type Stats struct {
	// BaseTuplesRead counts tuples fetched from base relation scans. The
	// paper's "each range relation is searched only once" claim bounds this
	// by the sum of base relation cardinalities.
	BaseTuplesRead int64
	// Comparisons counts atomic value comparisons, including one per hash
	// probe and one per bucket candidate examined.
	Comparisons int64
	// HashInserts counts tuples inserted into operator hash tables.
	HashInserts int64
	// IntermediateTuples counts tuples buffered by blocking operators
	// (hash-table builds, explicit materializations, division grouping).
	IntermediateTuples int64
	// Materializations counts explicitly materialized temporary relations.
	Materializations int64
	// OutputTuples counts tuples delivered at the plan root.
	OutputTuples int64
	// CacheHits counts Shared-node evaluations answered from the plan-cache
	// memo; CacheMisses counts the ones that had to run their subtree.
	CacheHits   int64
	CacheMisses int64
	// CacheTuplesReplayed counts tuples served out of memo entries — work
	// the executor did NOT redo. BaseTuplesRead net of replays is invariant
	// between cache-on and cache-off runs of the same plan.
	CacheTuplesReplayed int64
	// CacheTuplesSpooled counts tuples buffered into candidate memo entries
	// while their first evaluation streamed through.
	CacheTuplesSpooled int64
	// CacheSpoolsAbandoned counts spools this execution gave up on before
	// publication (cancellation, governor trip, budget overflow, an early
	// close). Their CacheTuplesSpooled charges bought nothing.
	CacheSpoolsAbandoned int64
	// BatchesEmitted counts blocks emitted by producing operators (scan,
	// select, project, union, joins, the blocking operators' output, memo
	// produce/private), at whatever demand they ran under — an emptiness
	// probe's demand-1 blocks count too. Memo replay re-delivers blocks
	// another evaluation produced and is NOT counted.
	BatchesEmitted int64
	// BatchTuples counts the tuples carried by those blocks;
	// BatchTuples/BatchesEmitted is the average block fill.
	BatchTuples int64
	// PanicsRecovered counts panics converted to errors at isolation
	// boundaries (engine entry points).
	PanicsRecovered int64
	// LimitsTripped counts governor budget violations observed by this
	// context (at most one per context).
	LimitsTripped int64
	// DegradedEvictions counts memo entries shed under memory pressure to
	// keep the query under its budget (graceful degradation).
	DegradedEvictions int64
}

// Add accumulates another stats record into s.
func (s *Stats) Add(o Stats) {
	s.BaseTuplesRead += o.BaseTuplesRead
	s.Comparisons += o.Comparisons
	s.HashInserts += o.HashInserts
	s.IntermediateTuples += o.IntermediateTuples
	s.Materializations += o.Materializations
	s.OutputTuples += o.OutputTuples
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheTuplesReplayed += o.CacheTuplesReplayed
	s.CacheTuplesSpooled += o.CacheTuplesSpooled
	s.CacheSpoolsAbandoned += o.CacheSpoolsAbandoned
	s.BatchesEmitted += o.BatchesEmitted
	s.BatchTuples += o.BatchTuples
	s.PanicsRecovered += o.PanicsRecovered
	s.LimitsTripped += o.LimitsTripped
	s.DegradedEvictions += o.DegradedEvictions
}

// String renders the counters on one line.
func (s *Stats) String() string {
	base := fmt.Sprintf("read=%d cmp=%d hash=%d interm=%d mat=%d out=%d",
		s.BaseTuplesRead, s.Comparisons, s.HashInserts, s.IntermediateTuples,
		s.Materializations, s.OutputTuples)
	if s.CacheHits+s.CacheMisses > 0 {
		base += fmt.Sprintf(" chit=%d cmiss=%d creplay=%d cspool=%d",
			s.CacheHits, s.CacheMisses, s.CacheTuplesReplayed, s.CacheTuplesSpooled)
	}
	// Abandoned spools appear only when a failure made them move, keeping
	// clean-run output stable.
	if s.CacheSpoolsAbandoned > 0 {
		base += fmt.Sprintf(" caband=%d", s.CacheSpoolsAbandoned)
	}
	// Block counters appear only when some operator emitted a block.
	if s.BatchesEmitted > 0 {
		base += fmt.Sprintf(" batches=%d fill=%.1f",
			s.BatchesEmitted, float64(s.BatchTuples)/float64(s.BatchesEmitted))
	}
	// Robustness counters appear only on runs that hit a boundary, keeping
	// clean-run output stable.
	if s.PanicsRecovered+s.LimitsTripped+s.DegradedEvictions > 0 {
		base += fmt.Sprintf(" panics=%d trips=%d shed=%d",
			s.PanicsRecovered, s.LimitsTripped, s.DegradedEvictions)
	}
	return base
}
