package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Relation is a set of same-arity tuples with a schema. Following the
// paper's algebra, relations have set semantics: Insert deduplicates.
// Iteration order is insertion order, which keeps plans deterministic and
// lets the reproduction print the paper's figure tables verbatim.
type Relation struct {
	Name   string
	schema Schema
	tuples []Tuple
	index  map[string]int // tuple key -> position in tuples
	// version increments on every successful mutation; caches (hash
	// indexes) use it to detect staleness.
	version int64
}

// New creates an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	return &Relation{
		Name:   name,
		schema: schema,
		index:  make(map[string]int),
	}
}

// NewUnnamed creates an anonymous intermediate relation.
func NewUnnamed(schema Schema) *Relation { return New("", schema) }

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Relabel gives the relation a fresh schema with the given column names,
// keeping its tuples. The old schema slice is left untouched, so a schema
// shared with a plan is never mutated. It panics on an arity mismatch.
func (r *Relation) Relabel(names ...string) {
	if len(names) != len(r.schema) {
		panic(fmt.Sprintf("relation: relabeling %d-ary relation %q with %d names", len(r.schema), r.Name, len(names)))
	}
	r.schema = NewSchema(names...)
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.schema) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return len(r.tuples) == 0 }

// Insert adds a tuple if not already present; it reports whether the tuple
// was new. It panics on arity mismatch, which always indicates a planner bug.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != len(r.schema) {
		panic(fmt.Sprintf("relation: arity mismatch inserting %d-tuple into %d-ary relation %q", len(t), len(r.schema), r.Name))
	}
	k := t.Key()
	if _, ok := r.index[k]; ok {
		return false
	}
	r.index[k] = len(r.tuples)
	r.tuples = append(r.tuples, t)
	r.version++
	return true
}

// Delete removes a tuple if present; it reports whether anything was
// removed. The last tuple takes the removed tuple's slot, so deletion is
// O(1) at the price of perturbing insertion order.
func (r *Relation) Delete(t Tuple) bool {
	k := t.Key()
	pos, ok := r.index[k]
	if !ok {
		return false
	}
	last := len(r.tuples) - 1
	if pos != last {
		moved := r.tuples[last]
		r.tuples[pos] = moved
		r.index[moved.Key()] = pos
	}
	r.tuples = r.tuples[:last]
	delete(r.index, k)
	r.version++
	return true
}

// Version returns the mutation counter; it changes whenever the tuple set
// changes.
func (r *Relation) Version() int64 { return r.version }

// InsertValues is a convenience wrapper building the tuple from values.
func (r *Relation) InsertValues(vs ...Value) bool { return r.Insert(NewTuple(vs...)) }

// Contains reports whether the tuple is present.
func (r *Relation) Contains(t Tuple) bool {
	_, ok := r.index[t.Key()]
	return ok
}

// Tuples returns the underlying tuple slice in insertion order. Callers must
// not mutate it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// At returns the i-th tuple in insertion order.
func (r *Relation) At(i int) Tuple { return r.tuples[i] }

// Clone returns a deep-enough copy (tuples themselves are immutable).
func (r *Relation) Clone() *Relation {
	out := New(r.Name, r.schema)
	for _, t := range r.tuples {
		out.Insert(t)
	}
	return out
}

// Equal reports whether two relations hold the same set of tuples,
// regardless of insertion order.
func (r *Relation) Equal(s *Relation) bool {
	if r.Len() != s.Len() {
		return false
	}
	for _, t := range r.tuples {
		if !s.Contains(t) {
			return false
		}
	}
	return true
}

// SortedKeys returns the canonical sorted tuple keys; used by tests to
// compare result sets across evaluation strategies.
func (r *Relation) SortedKeys() []string {
	keys := make([]string, 0, len(r.tuples))
	for _, t := range r.tuples {
		keys = append(keys, t.Key())
	}
	sort.Strings(keys)
	return keys
}

// String renders the relation as a small table, matching the layout of the
// paper's Figs. 2-4.
func (r *Relation) String() string {
	var b strings.Builder
	if r.Name != "" {
		b.WriteString(r.Name)
		b.WriteByte(' ')
	}
	b.WriteString(r.schema.String())
	b.WriteByte('\n')
	for _, t := range r.tuples {
		for i, v := range t {
			if i > 0 {
				b.WriteString("\t")
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
