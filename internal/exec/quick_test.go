package exec

import (
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/planopt"
	"repro/internal/relation"
	"repro/internal/storage"
)

// relFromBytes builds a unary relation over a small domain from raw bytes,
// so testing/quick can generate arbitrary relations.
func relFromBytes(name string, bs []byte) *relation.Relation {
	r := relation.New(name, relation.NewSchema("v"))
	for _, b := range bs {
		r.InsertValues(relation.Int(int64(b % 16)))
	}
	return r
}

// relPairsFromBytes builds a binary relation from byte pairs.
func relPairsFromBytes(name string, bs []byte) *relation.Relation {
	r := relation.New(name, relation.NewSchema("a", "b"))
	for i := 0; i+1 < len(bs); i += 2 {
		r.InsertValues(relation.Int(int64(bs[i]%8)), relation.Int(int64(bs[i+1]%8)))
	}
	return r
}

func catFor(rels ...*relation.Relation) *storage.Catalog {
	cat := storage.NewCatalog()
	for _, r := range rels {
		cat.Add(r)
	}
	return cat
}

func run(t *testing.T, cat *storage.Catalog, p algebra.Plan) *relation.Relation {
	t.Helper()
	out, err := Run(NewContext(cat), p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQuickProposition3 property-tests Proposition 3 on arbitrary unary
// relations: the semi-join and the complement-join partition P, and with a
// full-column condition the complement-join IS the set difference.
func TestQuickProposition3(t *testing.T) {
	on := []algebra.ColPair{{Left: 0, Right: 0}}
	f := func(ps, qs []byte) bool {
		p := relFromBytes("P", ps)
		q := relFromBytes("Q", qs)
		cat := catFor(p, q)
		semi := run(t, cat, &algebra.SemiJoin{Left: scan(cat, "P"), Right: scan(cat, "Q"), On: on})
		comp := run(t, cat, &algebra.ComplementJoin{Left: scan(cat, "P"), Right: scan(cat, "Q"), On: on})
		// Partition: sizes add up, union equals P, intersection empty.
		if semi.Len()+comp.Len() != p.Len() {
			return false
		}
		for _, tu := range semi.Tuples() {
			if comp.Contains(tu) || !p.Contains(tu) {
				return false
			}
		}
		for _, tu := range comp.Tuples() {
			if !p.Contains(tu) {
				return false
			}
		}
		// P − Q = P ⊼[1=1] Q for same-arity relations.
		diff := run(t, cat, &algebra.Diff{Left: scan(cat, "P"), Right: scan(cat, "Q")})
		return diff.Equal(comp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOuterJoinPreservesLeft: π_left(P ⟕ Q) = P for arbitrary inputs
// (the property Fig. 2's discussion relies on).
func TestQuickOuterJoinPreservesLeft(t *testing.T) {
	on := []algebra.ColPair{{Left: 0, Right: 0}}
	f := func(ps, qs []byte) bool {
		p := relFromBytes("P", ps)
		q := relFromBytes("Q", qs)
		cat := catFor(p, q)
		oj := run(t, cat, &algebra.OuterJoin{Left: scan(cat, "P"), Right: scan(cat, "Q"), On: on})
		back := run(t, cat, &algebra.Project{
			Input: &algebra.OuterJoin{Left: scan(cat, "P"), Right: scan(cat, "Q"), On: on},
			Cols:  []int{0},
		})
		if !back.Equal(p) {
			return false
		}
		// Null second column ⇔ no partner in Q.
		for _, tu := range oj.Tuples() {
			inQ := q.Contains(relation.NewTuple(tu[0]))
			if tu[1].IsNull() == inQ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConstrainedOuterJoin checks Definition 7 against its set-theoretic
// statement on arbitrary relations and an arbitrary constraint position.
func TestQuickConstrainedOuterJoin(t *testing.T) {
	on := []algebra.ColPair{{Left: 0, Right: 0}}
	f := func(ps, qs, us []byte, negate bool) bool {
		p := relFromBytes("P", ps)
		q := relFromBytes("Q", qs)
		u := relFromBytes("U", us)
		cat := catFor(p, q, u)
		first := &algebra.ConstrainedOuterJoin{Left: scan(cat, "P"), Right: scan(cat, "Q"), On: on}
		second := &algebra.ConstrainedOuterJoin{
			Left: first, Right: scan(cat, "U"), On: on,
			Constraint: []algebra.NullCond{{Col: 1, IsNull: !negate}},
		}
		out := run(t, cat, second)
		if out.Len() != p.Len() {
			return false // left-preserving, one flag per tuple
		}
		for _, tu := range out.Tuples() {
			inQ := q.Contains(relation.NewTuple(tu[0]))
			if (tu[1].IsMark()) != inQ {
				return false
			}
			gateHolds := tu[1].IsNull() == !negate
			if !gateHolds {
				if !tu[2].IsNull() {
					return false // not probed ⇒ ∅
				}
				continue
			}
			inU := u.Contains(relation.NewTuple(tu[0]))
			if tu[2].IsMark() != inU {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDivisionBruteForce checks ÷ against its defining formula.
func TestQuickDivisionBruteForce(t *testing.T) {
	f := func(gs, ds []byte) bool {
		g := relPairsFromBytes("G", gs)
		d := relFromBytes("D", ds)
		cat := catFor(g, d)
		div := run(t, cat, &algebra.Division{
			Dividend: scan(cat, "G"), Divisor: scan(cat, "D"),
			KeyCols: []int{0}, DivCols: []int{1},
		})
		// Brute force: x qualifies iff x appears in G and ∀z∈D: (x,z)∈G.
		want := relation.NewUnnamed(relation.NewSchema("a"))
		seen := map[int64]bool{}
		for _, tu := range g.Tuples() {
			x := tu[0].AsInt()
			if seen[x] {
				continue
			}
			seen[x] = true
			all := true
			for _, dt := range d.Tuples() {
				if !g.Contains(relation.NewTuple(tu[0], dt[0])) {
					all = false
					break
				}
			}
			if all {
				want.Insert(relation.NewTuple(tu[0]))
			}
		}
		return div.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSetAlgebra: (A−B) ∪ (A∩B) = A and De Morgan-ish size checks.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(as, bs []byte) bool {
		a := relFromBytes("A", as)
		b := relFromBytes("B", bs)
		cat := catFor(a, b)
		diff := &algebra.Diff{Left: scan(cat, "A"), Right: scan(cat, "B")}
		inter := &algebra.Intersect{Left: scan(cat, "A"), Right: scan(cat, "B")}
		both := run(t, cat, &algebra.Union{Left: diff, Right: inter})
		if !both.Equal(a) {
			return false
		}
		un := run(t, cat, &algebra.Union{Left: scan(cat, "A"), Right: scan(cat, "B")})
		i := run(t, cat, inter)
		return un.Len() == a.Len()+b.Len()-i.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIndexedAgreesWithHash: for arbitrary relations the indexed and
// hash-building executors return identical semi-/complement-join results.
func TestQuickIndexedAgreesWithHash(t *testing.T) {
	on := []algebra.ColPair{{Left: 0, Right: 0}}
	f := func(ps, qs []byte, complement bool) bool {
		p := relFromBytes("P", ps)
		q := relFromBytes("Q", qs)
		cat := catFor(p, q)
		var mk func() algebra.Plan
		if complement {
			mk = func() algebra.Plan {
				return &algebra.ComplementJoin{Left: scan(cat, "P"), Right: scan(cat, "Q"), On: on}
			}
		} else {
			mk = func() algebra.Plan {
				return &algebra.SemiJoin{Left: scan(cat, "P"), Right: scan(cat, "Q"), On: on}
			}
		}
		a, err := Run(NewContext(cat), mk())
		if err != nil {
			return false
		}
		b, err := Run(NewIndexedContext(cat), mk())
		if err != nil {
			return false
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMemoTransparency: for arbitrary relations, running a plan whose
// repeated subtrees went through planopt.Share with the memo on — cold, then
// warm — yields exactly the uncached result, and base reads never exceed the
// uncached run's.
func TestQuickMemoTransparency(t *testing.T) {
	on := []algebra.ColPair{{Left: 0, Right: 0}}
	f := func(ps, qs, us []byte) bool {
		p := relFromBytes("P", ps)
		q := relFromBytes("Q", qs)
		u := relFromBytes("U", us)
		cat := catFor(p, q, u)
		// Two ⋉ twins over the same producer under a union, plus a diff
		// against U — the Rule 12 shape the share pass targets.
		mk := func() algebra.Plan {
			producer := func() algebra.Plan {
				return &algebra.SemiJoin{Left: scan(cat, "P"), Right: scan(cat, "Q"), On: on}
			}
			return &algebra.Diff{
				Left:  &algebra.Union{Left: producer(), Right: producer()},
				Right: scan(cat, "U"),
			}
		}
		shared := planopt.Share(mk())

		offCtx := NewContext(cat)
		want, err := Run(offCtx, mk())
		if err != nil {
			return false
		}
		ctx := NewContext(cat)
		ctx.Memo = NewMemo(0)
		got, err := Run(ctx, shared)
		if err != nil || !got.Equal(want) {
			return false
		}
		if ctx.Stats.BaseTuplesRead > offCtx.Stats.BaseTuplesRead {
			return false
		}
		// Warm re-run against the same memo must agree too.
		warm := NewContext(cat)
		warm.Memo = ctx.Memo
		again, err := Run(warm, shared)
		return err == nil && again.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
