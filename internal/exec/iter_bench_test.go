package exec

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/storage"
)

// benchRel builds a binary relation with n tuples over a value domain small
// enough that the deduplicating operators actually collide.
func benchRel(name string, n int) *relation.Relation {
	r := relation.New(name, relation.NewSchema("a", "b"))
	for i := 0; i < n; i++ {
		r.InsertValues(relation.Int(int64(i%512)), relation.Int(int64(i)))
	}
	return r
}

// benchCat is a catalog with two overlapping binary relations.
func benchCat(n int) *storage.Catalog {
	cat := storage.NewCatalog()
	cat.Add(benchRel("L", n))
	r := relation.New("R", relation.NewSchema("a", "b"))
	for i := n / 2; i < n+n/2; i++ {
		r.InsertValues(relation.Int(int64(i%512)), relation.Int(int64(i)))
	}
	cat.Add(r)
	return cat
}

// drainIter exhausts a plan, reporting rows so the compiler keeps the loop.
func drainIter(b *testing.B, cat *storage.Catalog, p algebra.Plan) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := NewContext(cat)
		it, err := Build(ctx, p)
		if err != nil {
			b.Fatal(err)
		}
		it.Open()
		rows := 0
		for _, ok := it.NextBatch(1); ok; _, ok = it.NextBatch(1) {
			rows++
		}
		it.Close()
		if rows == 0 {
			b.Fatal("dedup benchmark plan produced no rows")
		}
	}
}

// BenchmarkDedupIterators measures the deduplicating operators' hot paths
// (projection, union, difference, intersection): the satellite claim is
// that hashed tuple sets (HashCols + EqualOn) allocate less than the old
// canonical-string keys. Run with -benchmem to see allocs/op.
func BenchmarkDedupIterators(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		cat := benchCat(n)
		plans := []struct {
			name string
			plan algebra.Plan
		}{
			{"project", &algebra.Project{Input: scan(cat, "L"), Cols: []int{0}}},
			{"union", &algebra.Union{Left: scan(cat, "L"), Right: scan(cat, "R")}},
			{"diff", &algebra.Diff{Left: scan(cat, "L"), Right: scan(cat, "R")}},
			{"intersect", &algebra.Intersect{Left: scan(cat, "L"), Right: scan(cat, "R")}},
		}
		for _, pl := range plans {
			b.Run(fmt.Sprintf("%s/n=%d", pl.name, n), func(b *testing.B) {
				drainIter(b, cat, pl.plan)
			})
		}
	}
}
