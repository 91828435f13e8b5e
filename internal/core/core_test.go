package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/loopeval"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/translate"
)

func demoDB() *DB {
	db := NewDB()
	st := db.MustDefine("student", "name")
	for _, n := range []string{"ann", "bob", "eve"} {
		st.InsertValues(relation.Str(n))
	}
	att := db.MustDefine("attends", "name", "lecture")
	att.InsertValues(relation.Str("ann"), relation.Str("db101"))
	att.InsertValues(relation.Str("bob"), relation.Str("db101"))
	lec := db.MustDefine("lecture", "id")
	lec.InsertValues(relation.Str("db101"))
	return db
}

func TestEngineOpenQuery(t *testing.T) {
	eng := NewEngine(demoDB())
	res, err := eng.Query(`{ x | student(x) and not exists y: attends(x, y) }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Open || res.Rows.Len() != 1 {
		t.Fatalf("want exactly eve, got:\n%s", res.Rows)
	}
	if res.Rows.At(0)[0].AsString() != "eve" {
		t.Fatalf("want eve, got %s", res.Rows.At(0))
	}
}

// TestAnswerHeadedByQueryVariables: an answer's columns are named after the
// query's head variables, not after the base-relation attributes the plan
// read them from — under every strategy, run after run, without renaming the
// plan's own schema.
func TestAnswerHeadedByQueryVariables(t *testing.T) {
	db := NewDB()
	r := db.MustDefine("R", "x", "y")
	s := db.MustDefine("S", "y", "z", "w")
	tt := db.MustDefine("T", "y", "z")
	r.InsertValues(relation.Int(1), relation.Int(2))
	s.InsertValues(relation.Int(3), relation.Int(4), relation.Int(5))
	tt.InsertValues(relation.Int(1), relation.Int(3))
	const q = `{ a, c | exists b: exists d, e: R(a, b) and S(c, d, e) and T(a, c) }`
	for _, strat := range []Strategy{StrategyBry, StrategyCodd, StrategyCoddImproved, StrategyLoop} {
		eng := NewEngine(db, WithStrategy(strat))
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		var planSchema string
		if p.Plan != nil {
			planSchema = p.Plan.Schema().String()
		}
		for run := 0; run < 2; run++ {
			res, err := eng.Run(p)
			if err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
			if got := res.Rows.Schema().String(); got != "(a, c)" {
				t.Fatalf("%s run %d: answer headed %s, want (a, c)", strat, run, got)
			}
			if res.Rows.Len() != 1 || res.Rows.At(0)[0].AsInt() != 1 || res.Rows.At(0)[1].AsInt() != 3 {
				t.Fatalf("%s: want the single answer (1, 3), got\n%s", strat, res.Rows)
			}
		}
		if p.Plan != nil && p.Plan.Schema().String() != planSchema {
			t.Fatalf("%s: plan schema changed from %s to %s", strat, planSchema, p.Plan.Schema())
		}
	}
}

func TestEngineClosedQuery(t *testing.T) {
	eng := NewEngine(demoDB())
	res, err := eng.Query(`forall y: lecture(y) => exists x: attends(x, y)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Open || !res.Truth {
		t.Fatalf("every lecture is attended; got %+v", res)
	}
}

func TestEngineCheckConstraint(t *testing.T) {
	eng := NewEngine(demoDB())
	ok, err := eng.Check(`forall x, y: attends(x, y) => student(x)`)
	if err != nil || !ok {
		t.Fatalf("referential constraint must hold: %v %v", ok, err)
	}
	// Violate it.
	att, _ := eng.db.cat.Relation("attends")
	att.InsertValues(relation.Str("ghost"), relation.Str("db101"))
	ok, err = eng.Check(`forall x, y: attends(x, y) => student(x)`)
	if err != nil || ok {
		t.Fatalf("constraint must now fail: %v %v", ok, err)
	}
	if _, err := eng.Check(`{ x | student(x) }`); err == nil {
		t.Fatal("open queries are not constraints")
	}
}

func TestEngineExplain(t *testing.T) {
	eng := NewEngine(demoDB())
	out, err := eng.Explain(`{ x | student(x) and not exists y: attends(x, y) }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "canonical:") || !strings.Contains(out, "complement-join") {
		t.Fatalf("explain output misses the plan:\n%s", out)
	}
}

func TestEnginePreparedReuse(t *testing.T) {
	eng := NewEngine(demoDB())
	p, err := eng.Prepare(`exists x: student(x)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := eng.Run(p)
		if err != nil || !res.Truth {
			t.Fatalf("run %d: %v %v", i, res, err)
		}
	}
}

func TestEngineStrategies(t *testing.T) {
	for _, s := range []Strategy{StrategyBry, StrategyCodd, StrategyLoop} {
		eng := NewEngine(demoDB(), WithStrategy(s))
		res, err := eng.Query(`{ x | student(x) and not exists y: attends(x, y) }`)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Rows.Len() != 1 {
			t.Fatalf("%v: got %d rows", s, res.Rows.Len())
		}
	}
}

func TestEngineParseError(t *testing.T) {
	eng := NewEngine(demoDB())
	if _, err := eng.Query(`{ x | student(`); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := eng.Query(`{ x | not student(x) }`); err == nil {
		t.Fatal("want safety error")
	}
}

// --- Cross-strategy property test ------------------------------------------

// randomDB fills the fixed test schema with random tuples.
func randomDB(rng *rand.Rand) *DB {
	db := NewDB()
	vals := []string{"a", "b", "c", "d"}
	fill := func(name string, arity, n int) {
		cols := make([]string, arity)
		for i := range cols {
			cols[i] = string(rune('x' + i))
		}
		r := db.MustDefine(name, cols...)
		for i := 0; i < n; i++ {
			t := make(relation.Tuple, arity)
			for j := range t {
				t[j] = relation.Str(vals[rng.Intn(len(vals))])
			}
			r.Insert(t)
		}
	}
	fill("p", 1, rng.Intn(4)+1)
	fill("q", 1, rng.Intn(4))
	fill("r", 2, rng.Intn(8)+1)
	fill("s", 2, rng.Intn(8))
	fill("t", 1, rng.Intn(4))
	return db
}

var queryPool = []string{
	`{ x | p(x) and not q(x) }`,
	`{ x | p(x) and forall y: t(y) => r(x, y) }`,
	`{ x | p(x) and (q(x) or t(x)) }`,
	`{ x | p(x) and (not q(x) or t(x)) }`,
	`{ x | (p(x) or t(x)) and not q(x) }`,
	`{ x, y | r(x, y) and not s(x, y) }`,
	`{ x | p(x) and exists y: r(x, y) and not s(y, x) }`,
	`{ x | p(x) and not exists y: r(x, y) and not s(x, y) }`,
	`{ x | p(x) and not exists y: t(y) and not s(x, y) }`,
	`{ x | p(x) and x != "a" }`,
	`{ x | (p(x) and q(x)) or (t(x) and not q(x)) }`,
	`exists x: p(x) and not q(x)`,
	`forall x: p(x) => exists y: r(x, y)`,
	`forall x: not (p(x) and q(x) and t(x))`,
	`(exists x: p(x)) and not exists y: q(y) and t(y)`,
	`exists x: p(x) and forall y: t(y) => r(x, y)`,
	`exists x, y: r(x, y) and x != y and not s(x, y)`,
	`forall x, y: r(x, y) => (p(x) or t(x) or q(x))`,
	`exists x: (p(x) or q(x)) and (t(x) or r(x, x))`,
	`forall x: t(x) => (q(x) or exists y: r(x, y))`,
	// n-ary relations and comparisons inside disjunctive filters (the
	// "extends easily" remark after Proposition 5).
	`{ x, y | r(x, y) and (s(x, y) or x = y or not t(x)) }`,
	`{ x, y | r(x, y) and (not s(y, x) or (exists z: r(y, z)) or x = "a") }`,
	// Case 5 with an uncorrelated unary range (division path) — q may be
	// empty, exercising the vacuous-range correction term.
	`{ x | p(x) and not exists y: q(y) and not r(x, y) }`,
	`exists x: p(x) and not exists y: q(y) and not r(x, y)`,
	// Universal range written as a disjunction (the ∀∨⇒ rule).
	`forall x: not p(x) or t(x) or q(x)`,
	// Deep nesting: ∃ inside ∀ inside ∃.
	`exists x: p(x) and forall y: r(x, y) => exists z: s(y, z)`,
	// Multi-variable blocks.
	`exists x, y: r(x, y) and forall z: t(z) => s(x, z)`,
	`{ x | p(x) and forall y, z: s(y, z) => r(x, y) }`,
}

// TestCrossStrategyAgreement is the reproduction's central property test:
// on random databases, the Bry pipeline (all three disjunctive-filter
// strategies), the Codd baseline, the Fig. 1 interpreter and the domain
// oracle agree on every query in the pool.
func TestCrossStrategyAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < crossStrategyRounds; round++ {
		db := randomDB(rng)
		oracle := loopeval.NewOracle(db.Catalog())
		for _, input := range queryPool {
			q := parser.MustParse(input)

			var wantRows *relation.Relation
			var wantTruth bool
			var err error
			if q.IsOpen() {
				wantRows, err = oracle.Answers(q)
			} else {
				wantTruth, err = oracle.Closed(q.Body, loopeval.Env{})
			}
			if err != nil {
				t.Fatalf("round %d oracle(%q): %v", round, input, err)
			}

			check := func(label string, eng *Engine) {
				res, err := eng.Query(input)
				if err != nil {
					t.Fatalf("round %d %s(%q): %v", round, label, input, err)
				}
				if q.IsOpen() {
					if !res.Rows.Equal(wantRows) {
						t.Fatalf("round %d %s(%q) mismatch:\ngot:\n%s\nwant:\n%s\ncanonical: %s",
							round, label, input, res.Rows, wantRows, res.Canonical)
					}
				} else if res.Truth != wantTruth {
					t.Fatalf("round %d %s(%q) = %v, want %v (canonical %s)",
						round, label, input, res.Truth, wantTruth, res.Canonical)
				}
			}

			for _, strat := range []translate.DisjFilterStrategy{
				translate.StrategyConstrainedOuterJoin,
				translate.StrategyOuterJoin,
				translate.StrategyUnion,
			} {
				check("bry/"+itoa(int(strat)), NewEngine(db, WithDisjunctiveFilters(strat)))
			}
			check("codd", NewEngine(db, WithStrategy(StrategyCodd)))
			check("codd-improved", NewEngine(db, WithStrategy(StrategyCoddImproved)))
			check("loop", NewEngine(db, WithStrategy(StrategyLoop)))
			check("bry-indexed", NewEngine(db, WithIndexes(true)))
			check("bry-seeded-universal", NewEngine(db,
				WithTranslateOptions(translate.Options{Universal: translate.UniversalComplementJoin})))
			// Block capacity is invisible to answers: capacity 1 and an odd
			// capacity that every input straddles, against the loopeval oracle.
			check("bry-block1", NewEngine(db, WithBatchSize(1)))
			check("bry-block7-union", NewEngine(db, WithBatchSize(7),
				WithDisjunctiveFilters(translate.StrategyUnion)))
			check("bry-cached", NewEngine(db, WithPlanCache(0)))
			check("bry-cached-union", NewEngine(db, WithPlanCache(0),
				WithDisjunctiveFilters(translate.StrategyUnion)))
			check("codd-cached", NewEngine(db, WithStrategy(StrategyCodd), WithPlanCache(0)))
		}
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

// TestNormalizationPreservesAnswers: the canonical form is equivalent to
// the original query under the oracle semantics.
func TestNormalizationPreservesAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 10; round++ {
		db := randomDB(rng)
		oracle := loopeval.NewOracle(db.Catalog())
		eng := NewEngine(db)
		for _, input := range queryPool {
			q := parser.MustParse(input)
			p, err := eng.Prepare(input)
			if err != nil {
				t.Fatalf("prepare(%q): %v", input, err)
			}
			if q.IsOpen() {
				a, err := oracle.Answers(q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := oracle.Answers(p.Canonical)
				if err != nil {
					t.Fatalf("oracle on canonical %q: %v", p.Canonical, err)
				}
				if !a.Equal(b) {
					t.Fatalf("normalization changed %q:\ncanonical %s\n%s\nvs\n%s", input, p.Canonical, a, b)
				}
			} else {
				a, err := oracle.Closed(q.Body, loopeval.Env{})
				if err != nil {
					t.Fatal(err)
				}
				b, err := oracle.Closed(p.Canonical.Body, loopeval.Env{})
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("normalization changed %q: %v vs %v (canonical %s)", input, a, b, p.Canonical)
				}
			}
		}
	}
}

func TestEngineExplainCost(t *testing.T) {
	eng := NewEngine(demoDB())
	out, err := eng.ExplainCost(`{ x | student(x) and not exists y: attends(x, y) }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rows≈") || !strings.Contains(out, "cost≈") {
		t.Fatalf("missing estimates:\n%s", out)
	}
	out, err = eng.ExplainCost(`exists x: student(x)`)
	if err != nil || !strings.Contains(out, "estimated cost") {
		t.Fatalf("closed query estimate missing: %v\n%s", err, out)
	}
}

func TestEngineStream(t *testing.T) {
	eng := NewEngine(demoDB())
	p, err := eng.Prepare(`{ x | student(x) }`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	st, err := eng.Stream(p, func(tu relation.Tuple) bool {
		got = append(got, tu[0].AsString())
		return len(got) < 2 // stop after two tuples
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("stream delivered %d tuples, want 2", len(got))
	}
	// Early stop reads no more students than requested plus the pipeline
	// lookahead (none for a bare scan).
	if st.BaseTuplesRead > 2 {
		t.Fatalf("early stop read %d tuples", st.BaseTuplesRead)
	}
	// Closed queries are rejected.
	pc, _ := eng.Prepare(`exists x: student(x)`)
	if _, err := eng.Stream(pc, func(relation.Tuple) bool { return true }); err == nil {
		t.Fatal("Stream on closed query must fail")
	}
	// The loop strategy falls back to materialization.
	loopEng := NewEngine(demoDB(), WithStrategy(StrategyLoop))
	pl, _ := loopEng.Prepare(`{ x | student(x) }`)
	n := 0
	if _, err := loopEng.Stream(pl, func(relation.Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("loop stream delivered %d", n)
	}
}
