package exec

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/storage"
)

// ptuCatalog builds the P, T, U relations of the paper's Fig. 2.
func ptuCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	p := cat.MustDefine("P", relation.NewSchema("v"))
	for _, s := range []string{"a", "b", "c", "d"} {
		p.InsertValues(relation.Str(s))
	}
	tt := cat.MustDefine("T", relation.NewSchema("v"))
	for _, s := range []string{"a", "b", "e"} {
		tt.InsertValues(relation.Str(s))
	}
	u := cat.MustDefine("U", relation.NewSchema("v"))
	for _, s := range []string{"a", "c", "f"} {
		u.InsertValues(relation.Str(s))
	}
	return cat
}

func scan(cat *storage.Catalog, name string) *algebra.Scan {
	r, err := cat.Relation(name)
	if err != nil {
		panic(err)
	}
	return algebra.NewScan(name, r.Schema())
}

func runPlan(t *testing.T, cat *storage.Catalog, p algebra.Plan) (*relation.Relation, *Stats) {
	t.Helper()
	ctx := NewContext(cat)
	out, err := Run(ctx, p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out, ctx.Stats
}

func wantTuples(t *testing.T, got *relation.Relation, want [][]relation.Value) {
	t.Helper()
	expect := relation.NewUnnamed(got.Schema())
	for _, vs := range want {
		expect.Insert(relation.NewTuple(vs...))
	}
	if !got.Equal(expect) {
		t.Fatalf("result mismatch:\ngot:\n%s\nwant:\n%s", got, expect)
	}
}

func s(x string) relation.Value  { return relation.Str(x) }
func null() relation.Value       { return relation.Null() }
func mark() relation.Value       { return relation.Mark() }
func i64(x int64) relation.Value { return relation.Int(x) }

// TestFigure2OuterJoin reproduces R₁ = P ⟕ T of Fig. 2.
func TestFigure2OuterJoin(t *testing.T) {
	cat := ptuCatalog(t)
	plan := &algebra.OuterJoin{Left: scan(cat, "P"), Right: scan(cat, "T"), On: []algebra.ColPair{{Left: 0, Right: 0}}}
	got, _ := runPlan(t, cat, plan)
	wantTuples(t, got, [][]relation.Value{
		{s("a"), s("a")},
		{s("b"), s("b")},
		{s("c"), null()},
		{s("d"), null()},
	})
}

// TestFigure3OuterJoinChain reproduces R₂ = (P ⟕ T) ⟕ U of Fig. 3.
func TestFigure3OuterJoinChain(t *testing.T) {
	cat := ptuCatalog(t)
	r1 := &algebra.OuterJoin{Left: scan(cat, "P"), Right: scan(cat, "T"), On: []algebra.ColPair{{Left: 0, Right: 0}}}
	r2 := &algebra.OuterJoin{Left: r1, Right: scan(cat, "U"), On: []algebra.ColPair{{Left: 0, Right: 0}}}
	got, _ := runPlan(t, cat, r2)
	wantTuples(t, got, [][]relation.Value{
		{s("a"), s("a"), s("a")},
		{s("b"), s("b"), null()},
		{s("c"), null(), s("c")},
		{s("d"), null(), null()},
	})
	// Q₁: P(x) ∧ (T(x) ∨ U(x)) = π₁(σ[2≠∅ ∨ 3≠∅](R₂)) = {a, b, c}.
	q1 := &algebra.Project{Input: &algebra.Select{Input: r2, Pred: algebra.Or{Preds: []algebra.Pred{
		algebra.NotNull{Col: 1}, algebra.NotNull{Col: 2},
	}}}, Cols: []int{0}}
	ans, _ := runPlan(t, cat, q1)
	wantTuples(t, ans, [][]relation.Value{{s("a")}, {s("b")}, {s("c")}})
}

// TestFigure4ConstrainedOuterJoin reproduces R₃ = [P ⟕⊥ T] ⟕⊥[2≠∅] U of
// Fig. 4, the chain for Q₂: P(x) ∧ (¬T(x) ∨ U(x)). U is probed only for
// the P-tuples that are NOT in P − T (text of §3.3).
func TestFigure4ConstrainedOuterJoin(t *testing.T) {
	cat := ptuCatalog(t)
	c1 := &algebra.ConstrainedOuterJoin{Left: scan(cat, "P"), Right: scan(cat, "T"), On: []algebra.ColPair{{Left: 0, Right: 0}}}
	c2 := &algebra.ConstrainedOuterJoin{
		Left: c1, Right: scan(cat, "U"),
		On:         []algebra.ColPair{{Left: 0, Right: 0}},
		Constraint: []algebra.NullCond{{Col: 1, IsNull: false}},
	}
	got, st := runPlan(t, cat, c2)
	wantTuples(t, got, [][]relation.Value{
		{s("a"), mark(), mark()},
		{s("b"), mark(), null()},
		{s("c"), null(), null()},
		{s("d"), null(), null()},
	})
	// Only a and b (the tuples with a T partner) may be probed against U.
	// Probes: 4 against T + 2 against U = 6 hash lookups; constraint
	// checks add 4 comparisons (one per tuple at the second join).
	if st.Comparisons != 6 {
		t.Errorf("comparisons = %d, want 6 (4 T-probes + 2 U-probes)", st.Comparisons)
	}

	// Q₂ = π₁(σ[2=∅ ∨ 3≠∅](R₃)) = {a, c, d}.
	q2 := &algebra.Project{Input: &algebra.Select{Input: c2, Pred: algebra.Or{Preds: []algebra.Pred{
		algebra.IsNull{Col: 1}, algebra.NotNull{Col: 2},
	}}}, Cols: []int{0}, NoDedup: true}
	ans, _ := runPlan(t, cat, q2)
	wantTuples(t, ans, [][]relation.Value{{s("a")}, {s("c")}, {s("d")}})
}

// TestComplementJoinDefinition checks Definition 6 and Proposition 3 on
// the §3.1 example: member ⊼ π₁(σ₂₌db(skill)).
func TestComplementJoinDefinition(t *testing.T) {
	cat := storage.NewCatalog()
	member := cat.MustDefine("member", relation.NewSchema("p", "d"))
	member.InsertValues(s("ann"), s("cs"))
	member.InsertValues(s("bob"), s("cs"))
	member.InsertValues(s("eve"), s("math"))
	skill := cat.MustDefine("skill", relation.NewSchema("p", "s"))
	skill.InsertValues(s("ann"), s("db"))
	skill.InsertValues(s("eve"), s("ai"))

	dbPeople := &algebra.Project{
		Input: &algebra.Select{Input: scan(cat, "skill"), Pred: algebra.CmpConst{Col: 1, Op: algebra.OpEq, Const: s("db")}},
		Cols:  []int{0},
	}
	on := []algebra.ColPair{{Left: 0, Right: 0}}
	cj := &algebra.ComplementJoin{Left: scan(cat, "member"), Right: dbPeople, On: on}
	got, _ := runPlan(t, cat, cj)
	wantTuples(t, got, [][]relation.Value{
		{s("bob"), s("cs")},
		{s("eve"), s("math")},
	})

	// Proposition 3: P = π(P ⋈ Q) ∪ (P ⊼ Q), disjointly.
	sj := &algebra.SemiJoin{Left: scan(cat, "member"), Right: dbPeople, On: on}
	sjr, _ := runPlan(t, cat, sj)
	if sjr.Len()+got.Len() != member.Len() {
		t.Fatalf("semi-join (%d) + complement-join (%d) must partition P (%d)", sjr.Len(), got.Len(), member.Len())
	}
	for _, tu := range sjr.Tuples() {
		if got.Contains(tu) {
			t.Fatalf("tuple %s in both semi-join and complement-join", tu)
		}
	}
}

// TestComplementJoinIsDifference: Proposition 3's P − Q = P ⊼[all cols] Q.
func TestComplementJoinIsDifference(t *testing.T) {
	cat := ptuCatalog(t)
	on := []algebra.ColPair{{Left: 0, Right: 0}}
	diff := &algebra.Diff{Left: scan(cat, "P"), Right: scan(cat, "T")}
	cj := &algebra.ComplementJoin{Left: scan(cat, "P"), Right: scan(cat, "T"), On: on}
	d, _ := runPlan(t, cat, diff)
	c, _ := runPlan(t, cat, cj)
	if !d.Equal(c) {
		t.Fatalf("difference %s != complement-join %s", d, c)
	}
}

func TestSelectProjectUnionIntersect(t *testing.T) {
	cat := ptuCatalog(t)
	sel := &algebra.Select{Input: scan(cat, "P"), Pred: algebra.CmpConst{Col: 0, Op: algebra.OpNe, Const: s("a")}}
	got, _ := runPlan(t, cat, sel)
	wantTuples(t, got, [][]relation.Value{{s("b")}, {s("c")}, {s("d")}})

	un := &algebra.Union{Left: scan(cat, "T"), Right: scan(cat, "U")}
	got, _ = runPlan(t, cat, un)
	wantTuples(t, got, [][]relation.Value{{s("a")}, {s("b")}, {s("e")}, {s("c")}, {s("f")}})

	in := &algebra.Intersect{Left: scan(cat, "T"), Right: scan(cat, "U")}
	got, _ = runPlan(t, cat, in)
	wantTuples(t, got, [][]relation.Value{{s("a")}})
}

func TestProductAndJoin(t *testing.T) {
	cat := ptuCatalog(t)
	prod := &algebra.Product{Left: scan(cat, "T"), Right: scan(cat, "U")}
	got, _ := runPlan(t, cat, prod)
	if got.Len() != 9 {
		t.Fatalf("product size = %d, want 9", got.Len())
	}
	jn := &algebra.Join{Left: scan(cat, "T"), Right: scan(cat, "U"), On: []algebra.ColPair{{Left: 0, Right: 0}}}
	got, _ = runPlan(t, cat, jn)
	wantTuples(t, got, [][]relation.Value{{s("a"), s("a")}})
}

func TestJoinResidual(t *testing.T) {
	cat := storage.NewCatalog()
	r := cat.MustDefine("R", relation.NewSchema("a", "b"))
	r.InsertValues(i64(1), i64(2))
	r.InsertValues(i64(1), i64(5))
	l := cat.MustDefine("L", relation.NewSchema("k"))
	l.InsertValues(i64(1))
	jn := &algebra.Join{
		Left: scan(cat, "L"), Right: scan(cat, "R"),
		On:       []algebra.ColPair{{Left: 0, Right: 0}},
		Residual: algebra.CmpConst{Col: 2, Op: algebra.OpGt, Const: i64(3)},
	}
	got, _ := runPlan(t, cat, jn)
	wantTuples(t, got, [][]relation.Value{{i64(1), i64(1), i64(5)}})
}

func TestDivision(t *testing.T) {
	cat := storage.NewCatalog()
	g := cat.MustDefine("G", relation.NewSchema("x", "z"))
	// x=1 covers {a,b}; x=2 covers {a}; x=3 covers {a,b,c}.
	for _, p := range [][2]interface{}{{1, "a"}, {1, "b"}, {2, "a"}, {3, "a"}, {3, "b"}, {3, "c"}} {
		g.InsertValues(i64(int64(p[0].(int))), s(p[1].(string)))
	}
	d := cat.MustDefine("D", relation.NewSchema("z"))
	d.InsertValues(s("a"))
	d.InsertValues(s("b"))

	div := &algebra.Division{
		Dividend: scan(cat, "G"), Divisor: scan(cat, "D"),
		KeyCols: []int{0}, DivCols: []int{1},
	}
	got, _ := runPlan(t, cat, div)
	wantTuples(t, got, [][]relation.Value{{i64(1)}, {i64(3)}})
}

func TestDivisionEmptyDivisor(t *testing.T) {
	cat := storage.NewCatalog()
	g := cat.MustDefine("G", relation.NewSchema("x", "z"))
	g.InsertValues(i64(1), s("a"))
	cat.MustDefine("D", relation.NewSchema("z"))
	div := &algebra.Division{Dividend: scan(cat, "G"), Divisor: scan(cat, "D"), KeyCols: []int{0}, DivCols: []int{1}}
	got, _ := runPlan(t, cat, div)
	// ∀z ∈ ∅ is vacuously true for every dividend key group.
	wantTuples(t, got, [][]relation.Value{{i64(1)}})
}

// TestDivisionStatsDeterministic: ÷ sweeps the divisor in arrival order, so
// a group that misses a divisor tuple stops after the same number of
// comparisons on every run. (A divisor kept only as a Go map made
// Stats.Comparisons depend on map iteration order.)
func TestDivisionStatsDeterministic(t *testing.T) {
	cat := randomJoinCatalog(7, 400)
	div := &algebra.Division{
		Dividend: scan(cat, "S"),
		Divisor:  &algebra.Project{Input: scan(cat, "S"), Cols: []int{1}},
		KeyCols:  []int{0},
		DivCols:  []int{1},
	}
	var first Stats
	for i := 0; i < 20; i++ {
		_, st := runPlan(t, cat, div)
		if i == 0 {
			first = *st
		} else if *st != first {
			t.Fatalf("run %d stats differ from run 0:\n%s\n%s", i, st, &first)
		}
	}
	if first.Comparisons == 0 {
		t.Fatal("division charged no comparisons")
	}
}

func TestProjectDedup(t *testing.T) {
	cat := storage.NewCatalog()
	r := cat.MustDefine("R", relation.NewSchema("a", "b"))
	r.InsertValues(i64(1), i64(10))
	r.InsertValues(i64(1), i64(20))
	proj := &algebra.Project{Input: scan(cat, "R"), Cols: []int{0}}
	got, _ := runPlan(t, cat, proj)
	if got.Len() != 1 {
		t.Fatalf("deduplicating projection returned %d tuples, want 1", got.Len())
	}
}

func TestEvalBoolShortCircuit(t *testing.T) {
	cat := ptuCatalog(t)
	ctx := NewContext(cat)
	// NotEmpty(P) pulls exactly one tuple.
	ok, err := EvalBool(ctx, &algebra.NotEmpty{Input: scan(cat, "P")})
	if err != nil || !ok {
		t.Fatalf("NotEmpty(P) = %v, %v", ok, err)
	}
	if ctx.Stats.BaseTuplesRead != 1 {
		t.Fatalf("emptiness test read %d tuples, want 1 (early termination)", ctx.Stats.BaseTuplesRead)
	}

	// OR short-circuits: the second test never runs.
	ctx2 := NewContext(cat)
	ok, err = EvalBool(ctx2, &algebra.BoolOr{Inputs: []algebra.BoolPlan{
		&algebra.NotEmpty{Input: scan(cat, "P")},
		&algebra.NotEmpty{Input: scan(cat, "T")},
	}})
	if err != nil || !ok {
		t.Fatalf("or = %v, %v", ok, err)
	}
	if ctx2.Stats.BaseTuplesRead != 1 {
		t.Fatalf("read %d tuples, want 1", ctx2.Stats.BaseTuplesRead)
	}

	// AND with an empty first conjunct short-circuits to false.
	empty := &algebra.Select{Input: scan(cat, "P"), Pred: algebra.Not{Pred: algebra.True{}}}
	ctx3 := NewContext(cat)
	ok, err = EvalBool(ctx3, &algebra.BoolAnd{Inputs: []algebra.BoolPlan{
		&algebra.NotEmpty{Input: empty},
		&algebra.NotEmpty{Input: scan(cat, "T")},
	}})
	if err != nil || ok {
		t.Fatalf("and = %v, %v; want false", ok, err)
	}
	for _, n := range []struct {
		p    algebra.BoolPlan
		want bool
	}{
		{&algebra.BoolConst{Value: true}, true},
		{&algebra.BoolNot{Input: &algebra.BoolConst{Value: true}}, false},
		{&algebra.IsEmpty{Input: empty}, true},
	} {
		got, err := EvalBool(NewContext(cat), n.p)
		if err != nil || got != n.want {
			t.Errorf("EvalBool(%s) = %v, %v; want %v", n.p.Describe(), got, err, n.want)
		}
	}
}

func TestMaterializeCounted(t *testing.T) {
	cat := ptuCatalog(t)
	ctx := NewContext(cat)
	m := &algebra.Materialize{Input: scan(cat, "P"), Label: "tmp"}
	if _, err := Run(ctx, m); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.Materializations != 1 {
		t.Fatalf("materializations = %d, want 1", ctx.Stats.Materializations)
	}
	if ctx.Stats.IntermediateTuples != 4 {
		t.Fatalf("intermediate tuples = %d, want 4", ctx.Stats.IntermediateTuples)
	}
}

func TestScanUnknownRelation(t *testing.T) {
	cat := storage.NewCatalog()
	ctx := NewContext(cat)
	if _, err := Run(ctx, algebra.NewScan("nope", relation.NewSchema("v"))); err == nil {
		t.Fatal("scan of unknown relation must fail")
	}
}

func TestOuterJoinMultipleMatches(t *testing.T) {
	cat := storage.NewCatalog()
	l := cat.MustDefine("L", relation.NewSchema("k"))
	l.InsertValues(i64(1))
	l.InsertValues(i64(2))
	r := cat.MustDefine("R", relation.NewSchema("k", "v"))
	r.InsertValues(i64(1), s("x"))
	r.InsertValues(i64(1), s("y"))
	oj := &algebra.OuterJoin{Left: scan(cat, "L"), Right: scan(cat, "R"), On: []algebra.ColPair{{Left: 0, Right: 0}}}
	got, _ := runPlan(t, cat, oj)
	wantTuples(t, got, [][]relation.Value{
		{i64(1), i64(1), s("x")},
		{i64(1), i64(1), s("y")},
		{i64(2), null(), null()},
	})
}

// TestStatsBaseReads: a semi-join reads each base relation exactly once —
// the "each range relation is searched only once" property.
func TestStatsBaseReads(t *testing.T) {
	cat := ptuCatalog(t)
	ctx := NewContext(cat)
	sj := &algebra.SemiJoin{Left: scan(cat, "P"), Right: scan(cat, "T"), On: []algebra.ColPair{{Left: 0, Right: 0}}}
	if _, err := Run(ctx, sj); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.BaseTuplesRead != 4+3 {
		t.Fatalf("base reads = %d, want 7 (P once + T once)", ctx.Stats.BaseTuplesRead)
	}
}

func TestGroupCount(t *testing.T) {
	cat := storage.NewCatalog()
	r := cat.MustDefine("R", relation.NewSchema("a", "b"))
	r.InsertValues(i64(1), s("x"))
	r.InsertValues(i64(1), s("y"))
	r.InsertValues(i64(2), s("x"))
	gc := &algebra.GroupCount{Input: scan(cat, "R"), GroupCols: []int{0}}
	got, _ := runPlan(t, cat, gc)
	wantTuples(t, got, [][]relation.Value{
		{i64(1), i64(2)},
		{i64(2), i64(1)},
	})
	// Global count (no group columns).
	total := &algebra.GroupCount{Input: scan(cat, "R"), GroupCols: nil}
	got, _ = runPlan(t, cat, total)
	wantTuples(t, got, [][]relation.Value{{i64(3)}})
	// Global count of an empty input is 0, not an empty relation.
	empty := &algebra.Select{Input: scan(cat, "R"), Pred: algebra.Not{Pred: algebra.True{}}}
	got, _ = runPlan(t, cat, &algebra.GroupCount{Input: empty})
	wantTuples(t, got, [][]relation.Value{{i64(0)}})
}

// TestGroupCountQuelUniversal expresses "students attending all lectures"
// the Quel way (paper §1): compare per-student counts to the total count.
func TestGroupCountQuelUniversal(t *testing.T) {
	cat := storage.NewCatalog()
	st := cat.MustDefine("student", relation.NewSchema("name"))
	lec := cat.MustDefine("lecture", relation.NewSchema("id"))
	att := cat.MustDefine("attends", relation.NewSchema("name", "lecture"))
	for _, n := range []string{"ann", "bob"} {
		st.InsertValues(s(n))
	}
	for _, l := range []string{"l1", "l2"} {
		lec.InsertValues(s(l))
	}
	att.InsertValues(s("ann"), s("l1"))
	att.InsertValues(s("ann"), s("l2"))
	att.InsertValues(s("bob"), s("l1"))

	perStudent := &algebra.GroupCount{
		Input: &algebra.SemiJoin{
			Left:  scan(cat, "attends"),
			Right: scan(cat, "lecture"),
			On:    []algebra.ColPair{{Left: 1, Right: 0}},
		},
		GroupCols: []int{0},
	}
	total := &algebra.GroupCount{Input: scan(cat, "lecture")}
	matching := &algebra.Project{
		Input: &algebra.Join{Left: perStudent, Right: total, On: []algebra.ColPair{{Left: 1, Right: 0}}},
		Cols:  []int{0},
	}
	plan := &algebra.SemiJoin{Left: scan(cat, "student"), Right: matching, On: []algebra.ColPair{{Left: 0, Right: 0}}}
	got, _ := runPlan(t, cat, plan)
	wantTuples(t, got, [][]relation.Value{{s("ann")}})
}
