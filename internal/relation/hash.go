package relation

// This file provides the allocation-free hashing primitives the executor
// builds on. Tuple.Key() produces a canonical string — convenient for Go
// maps but it allocates twice per tuple (the projected subtuple and the key
// string). The hash joins and dedup sets instead hash the key columns in
// place into a 64-bit value and verify candidate matches with
// EqualOn, so the hot build/probe loops allocate nothing.

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// HashCols returns a 64-bit FNV-1a hash of the listed columns, without
// allocating. Equal column projections hash equally (the encoding mirrors
// appendKey, including the value kind and a string terminator, so ("ab","c")
// and ("a","bc") differ). Hash equality does NOT imply key equality; callers
// confirm candidates with EqualOn.
func (t Tuple) HashCols(cols []int) uint64 {
	h := fnvOffset64
	for _, c := range cols {
		h = t[c].hash64(h)
	}
	return h
}

// hash64 folds the value into an FNV-1a state.
func (v Value) hash64(h uint64) uint64 {
	h = (h ^ uint64(v.kind)) * fnvPrime64
	switch v.kind {
	case KindInt:
		x := uint64(v.i)
		for i := 0; i < 64; i += 8 {
			h = (h ^ (x>>i)&0xff) * fnvPrime64
		}
	case KindString:
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * fnvPrime64
		}
		h = (h ^ 0xfe) * fnvPrime64 // terminator keeps adjacent strings apart
	}
	return h
}

// Hash returns a 64-bit FNV-1a hash over every column of the tuple, without
// allocating. It is HashCols over the identity column list; the deduplicating
// operators (project, union, diff, intersect) use it as a bucket key and
// confirm candidates with Equal.
func (t Tuple) Hash() uint64 {
	h := fnvOffset64
	for _, v := range t {
		h = v.hash64(h)
	}
	return h
}

// EqualOn reports whether t's cols equal u's ucols component-wise, under the
// set-semantics Equal (∅ = ∅, ⊥ = ⊥). The two column lists must have equal
// length; this is the probe-time verification paired with HashCols.
func (t Tuple) EqualOn(cols []int, u Tuple, ucols []int) bool {
	for i, c := range cols {
		if !t[c].Equal(u[ucols[i]]) {
			return false
		}
	}
	return true
}
