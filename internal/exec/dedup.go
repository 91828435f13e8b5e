package exec

import "repro/internal/relation"

// tupleSet is the deduplication set shared by the projection, union,
// difference and intersection iterators. It buckets whole tuples by their
// 64-bit FNV hash (relation.Tuple.Hash) and verifies candidates with Equal,
// mirroring the HashCols/EqualOn discipline of the join family's table:
// no canonical key string is ever allocated, so membership tests on the hot
// path cost a hash and a bucket walk instead of two allocations per tuple.
type tupleSet struct {
	buckets map[uint64][]relation.Tuple
}

func newTupleSet() *tupleSet {
	return &tupleSet{buckets: make(map[uint64][]relation.Tuple)}
}

// add inserts t unless an equal tuple is present; it reports whether t was
// new. The stored tuple is aliased, not copied — safe because executor
// tuples are immutable once emitted.
func (s *tupleSet) add(t relation.Tuple) bool {
	h := t.Hash()
	for _, u := range s.buckets[h] {
		if t.Equal(u) {
			return false
		}
	}
	//lint:ignore govcharge callers charge the governor per retained tuple at their materialization point
	s.buckets[h] = append(s.buckets[h], t)
	return true
}

// has reports whether an equal tuple is present.
func (s *tupleSet) has(t relation.Tuple) bool {
	for _, u := range s.buckets[t.Hash()] {
		if t.Equal(u) {
			return true
		}
	}
	return false
}
