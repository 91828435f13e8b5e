// Package repro's root benchmarks regenerate every figure of the paper and
// measure every efficiency claim (experiments F1-F4 and E1-E16 of
// DESIGN.md). Each benchmark reports, besides ns/op, the executor's cost
// counters as custom metrics:
//
//	cmp/op      atomic comparisons (incl. hash probes)
//	reads/op    tuples fetched from base relations
//	interm/op   tuples buffered by blocking operators
//	mat/op      materialized temporaries
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/loopeval"
	"repro/internal/parser"
	"repro/internal/planopt"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/translate"
)

// reportStats attaches the executor counters to the benchmark.
func reportStats(b *testing.B, st exec.Stats) {
	b.ReportMetric(float64(st.Comparisons)/float64(b.N), "cmp/op")
	b.ReportMetric(float64(st.BaseTuplesRead)/float64(b.N), "reads/op")
	b.ReportMetric(float64(st.IntermediateTuples)/float64(b.N), "interm/op")
	b.ReportMetric(float64(st.Materializations)/float64(b.N), "mat/op")
}

// runOpen executes a prepared open plan b.N times, accumulating stats.
func runOpen(b *testing.B, cat *storage.Catalog, plan algebra.Plan) {
	var total exec.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := exec.NewContext(cat)
		if _, err := exec.Run(ctx, plan); err != nil {
			b.Fatal(err)
		}
		total.Add(*ctx.Stats)
	}
	b.StopTimer()
	reportStats(b, total)
}

// runClosed evaluates a boolean plan b.N times.
func runClosed(b *testing.B, cat *storage.Catalog, bp algebra.BoolPlan) {
	var total exec.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := exec.NewContext(cat)
		if _, err := exec.EvalBool(ctx, bp); err != nil {
			b.Fatal(err)
		}
		total.Add(*ctx.Stats)
	}
	b.StopTimer()
	reportStats(b, total)
}

// prepare normalizes and translates one query for a strategy.
func prepare(b *testing.B, cat *storage.Catalog, strat core.Strategy, opt translate.Options, input string) (algebra.Plan, algebra.BoolPlan) {
	b.Helper()
	q, err := rewrite.Normalize(parser.MustParse(input))
	if err != nil {
		b.Fatalf("normalize %q: %v", input, err)
	}
	switch strat {
	case core.StrategyBry:
		p, bp, err := translate.NewBryWithOptions(cat, opt).Translate(q)
		if err != nil {
			b.Fatalf("bry %q: %v", input, err)
		}
		return p, bp
	case core.StrategyCodd:
		p, bp, err := translate.NewCodd(cat).Translate(q)
		if err != nil {
			b.Fatalf("codd %q: %v", input, err)
		}
		return p, bp
	case core.StrategyCoddImproved:
		p, bp, err := translate.NewCoddImproved(cat).Translate(q)
		if err != nil {
			b.Fatalf("codd-improved %q: %v", input, err)
		}
		return p, bp
	default:
		b.Fatalf("prepare: unsupported strategy %v", strat)
		return nil, nil
	}
}

// --- F1: Fig. 1 loop algorithms vs the algebraic method ---------------------

// BenchmarkFigure1LoopVsAlgebra compares the Fig. 1 nested-loop interpreter
// with the Bry algebraic pipeline on the three query shapes of the figure:
// closed existential (1a), closed universal (1b), open quantified (1c).
func BenchmarkFigure1LoopVsAlgebra(b *testing.B) {
	cat := dataset.University(dataset.DefaultUniversity(400))
	queries := map[string]string{
		"1a-closed-exists": `exists x: student(x) and exists y: cs_lecture(y) and attends(x, y)`,
		"1b-closed-forall": `forall x: student(x) => exists y: attends(x, y)`,
		"1c-open":          `{ x | student(x) and forall y: cs_lecture(y) => attends(x, y) }`,
	}
	for name, input := range queries {
		nq, err := rewrite.Normalize(parser.MustParse(input))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/loop", func(b *testing.B) {
			var total exec.Stats
			for i := 0; i < b.N; i++ {
				ev := loopeval.New(cat)
				if nq.IsOpen() {
					if _, err := ev.EvalOpen(nq); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, err := ev.EvalClosed(nq.Body, loopeval.Env{}); err != nil {
						b.Fatal(err)
					}
				}
				total.Add(*ev.Stats)
			}
			reportStats(b, total)
		})
		b.Run(name+"/bry", func(b *testing.B) {
			plan, bp := prepare(b, cat, core.StrategyBry, translate.Options{}, input)
			if plan != nil {
				runOpen(b, cat, plan)
			} else {
				runClosed(b, cat, bp)
			}
		})
	}
}

// --- F2-F4: the outer-join figures at scale ---------------------------------

// BenchmarkFigures234OuterJoinChain evaluates the Fig. 2-4 query shapes
// (P ∧ (T ∨ U) and P ∧ (¬T ∨ U)) on scaled P/T/U data, comparing the three
// §3.3 strategies.
func BenchmarkFigures234OuterJoinChain(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		cat := dataset.PTU(dataset.PTUParams{N: n, TProb: 0.5, UProb: 0.3, ExtraShare: 0.3, Branches: 2, Seed: 5})
		for qname, input := range map[string]string{
			"fig3-positive": `{ x | P(x) and (T(x) or U(x)) }`,
			"fig4-negated":  `{ x | P(x) and (not T(x) or U(x)) }`,
		} {
			for sname, strat := range map[string]translate.DisjFilterStrategy{
				"constrained": translate.StrategyConstrainedOuterJoin,
				"outerjoin":   translate.StrategyOuterJoin,
				"union":       translate.StrategyUnion,
			} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", qname, n, sname), func(b *testing.B) {
					plan, _ := prepare(b, cat, core.StrategyBry, translate.Options{DisjunctiveFilters: strat}, input)
					runOpen(b, cat, plan)
				})
			}
		}
	}
}

// --- E1: complement-join vs difference-plus-join (§3.1) ---------------------

// BenchmarkE1ComplementJoin compares the paper's translation of
// Q₂: member(x,z) ∧ ¬skill(x,db) — a single complement-join — against the
// conventional member ⋈ (π₁(member) − π₁(σ₂₌db(skill))).
func BenchmarkE1ComplementJoin(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		p := dataset.DefaultUniversity(n)
		p.Lectures = 20 // E1 touches only member and skill; keep attendance small
		p.AttendProb = 0.05
		cat := dataset.University(p)
		member, _ := cat.Relation("member")
		skill, _ := cat.Relation("skill")

		b.Run(fmt.Sprintf("n=%d/complement-join", n), func(b *testing.B) {
			plan, _ := prepare(b, cat, core.StrategyBry, translate.Options{}, `{ x, z | member(x, z) and not skill(x, "db") }`)
			runOpen(b, cat, plan)
		})
		b.Run(fmt.Sprintf("n=%d/diff-join", n), func(b *testing.B) {
			// member ⋈₁₌₁ (π₁(member) − π₁(σ₂₌db(skill))), projected back.
			mScan := algebra.NewScan("member", member.Schema())
			sScan := algebra.NewScan("skill", skill.Schema())
			diff := &algebra.Diff{
				Left:  &algebra.Project{Input: mScan, Cols: []int{0}},
				Right: &algebra.Project{Input: &algebra.Select{Input: sScan, Pred: algebra.CmpConst{Col: 1, Op: algebra.OpEq, Const: relation.Str("db")}}, Cols: []int{0}},
			}
			plan := &algebra.Project{
				Input: &algebra.Join{Left: mScan, Right: diff, On: []algebra.ColPair{{Left: 0, Right: 0}}},
				Cols:  []int{0, 1},
			}
			runOpen(b, cat, plan)
		})
	}
}

// --- E2: Proposition 4 — quantifier nesting without products/divisions ------

// BenchmarkE2Prop4 runs the five syntactic cases of Proposition 4 under the
// Bry translation and the Codd reduction. The Codd baseline's initial
// cartesian product of domain ranges dominates its cost; sizes are kept
// small enough for it to terminate.
func BenchmarkE2Prop4(b *testing.B) {
	cases := map[string]string{
		"case1":  `{ x | exists y: R(x, y) and exists z: S(x, y, z) and G(x, y, z) }`,
		"case2a": `{ x | exists y: R(x, y) and exists z: S(x, y, z) and not G(x, y, z) }`,
		"case2b": `{ x | exists y: R(x, y) and exists z: T(y, z) and not G(x, y, z) }`,
		"case3":  `{ x | exists y: R(x, y) and not exists z: S(x, y, z) and G(x, y, z) }`,
		"case4":  `{ x | exists y: R(x, y) and not exists z: S(x, y, z) and not G(x, y, z) }`,
		"case5":  `{ x | exists y: R(x, y) and not exists z: T(y, z) and not G(x, y, z) }`,
	}
	cat := dataset.RSTG(dataset.DefaultRSTG(24))
	for name, input := range cases {
		b.Run(name+"/bry", func(b *testing.B) {
			plan, _ := prepare(b, cat, core.StrategyBry, translate.Options{}, input)
			runOpen(b, cat, plan)
		})
		b.Run(name+"/codd", func(b *testing.B) {
			plan, _ := prepare(b, cat, core.StrategyCodd, translate.Options{}, input)
			runOpen(b, cat, plan)
		})
	}
}

// --- E3: disjunctive filters, n-way sweep (§3.3, Proposition 5) -------------

// BenchmarkE3DisjunctiveFilterWidth sweeps the number of disjuncts; the
// constrained chain's advantage grows with the width because matched
// tuples skip every remaining branch.
func BenchmarkE3DisjunctiveFilterWidth(b *testing.B) {
	for _, k := range []int{2, 4, 6} {
		cat := dataset.PTU(dataset.PTUParams{N: 5000, TProb: 0.6, UProb: 0.25, ExtraShare: 0.2, Branches: k, Seed: 9})
		input := `{ x | P(x) and (T(x) or U(x)`
		for i := 2; i < k; i++ {
			input += fmt.Sprintf(" or T%d(x)", i)
		}
		input += `) }`
		for sname, strat := range map[string]translate.DisjFilterStrategy{
			"constrained": translate.StrategyConstrainedOuterJoin,
			"outerjoin":   translate.StrategyOuterJoin,
			"union":       translate.StrategyUnion,
		} {
			b.Run(fmt.Sprintf("k=%d/%s", k, sname), func(b *testing.B) {
				plan, _ := prepare(b, cat, core.StrategyBry, translate.Options{DisjunctiveFilters: strat}, input)
				runOpen(b, cat, plan)
			})
		}
	}
}

// --- E4: miniscope vs redundant evaluation (§2.2) ---------------------------

// BenchmarkE4Miniscope reproduces the §2.2 claim: in the raw Q₁ the
// subquery ¬enrolled(x,cs) is evaluated once per cs-lecture, while in the
// paper's miniscope form Q₂ it is evaluated once per student. The Fig. 1
// interpreter runs both forms; the Bry pipeline runs the canonical form
// (which adds the empty-range disjunct the paper's Q₂ glosses over).
func BenchmarkE4Miniscope(b *testing.B) {
	p := dataset.DefaultUniversity(200)
	p.Lectures = 120
	p.AttendProb = 0.85 // dense attendance: the ¬enrolled redundancy shows
	cat := dataset.University(p)
	// Enroll every student outside cs so the ¬enrolled(x,cs) filter is
	// true and, in the raw form, re-evaluated for every attended lecture.
	students, _ := cat.Relation("student")
	enr := relation.New("enrolled", relation.NewSchema("name", "dept"))
	for _, t := range students.Tuples() {
		enr.InsertValues(t[0], relation.Str("math"))
	}
	cat.Add(enr)
	raw := parser.MustParse(`exists x: student(x) and forall y: cs_lecture(y) => attends(x, y) and not enrolled(x, "cs")`)
	paperQ2 := parser.MustParse(`exists x: student(x) and (forall y: cs_lecture(y) => attends(x, y)) and not enrolled(x, "cs")`)
	canonical, err := rewrite.Normalize(raw)
	if err != nil {
		b.Fatal(err)
	}
	loopOn := func(q parser.Query) func(b *testing.B) {
		return func(b *testing.B) {
			var total exec.Stats
			for i := 0; i < b.N; i++ {
				ev := loopeval.New(cat)
				if _, err := ev.EvalClosed(q.Body, loopeval.Env{}); err != nil {
					b.Fatal(err)
				}
				total.Add(*ev.Stats)
			}
			reportStats(b, total)
		}
	}
	b.Run("loop-raw-q1", loopOn(raw))
	b.Run("loop-miniscope-q2", loopOn(paperQ2))
	b.Run("loop-canonical", loopOn(canonical))
	b.Run("bry-canonical", func(b *testing.B) {
		bry := translate.NewBry(cat)
		bp, err := bry.TranslateClosed(canonical.Body)
		if err != nil {
			b.Fatal(err)
		}
		runClosed(b, cat, bp)
	})
}

// --- E5: producer/filter choices (§2.3) --------------------------------------

// BenchmarkE5ProducerFilter compares keeping the filter disjunction inside
// the range (the paper's Q₄) against the hand-distributed Q₅, which scans
// the professor relation once per branch.
func BenchmarkE5ProducerFilter(b *testing.B) {
	p := dataset.DefaultUniversity(5000)
	p.Lectures = 20 // E5 touches only prof, member, skill, speaks
	p.AttendProb = 0.05
	cat := dataset.University(p)
	q4 := `{ x | prof(x) and (member(x, "cs") or skill(x, "math")) and speaks(x, "french") }`
	q5 := `{ x | (prof(x) and member(x, "cs") and speaks(x, "french")) or (prof(x) and skill(x, "math") and speaks(x, "french")) }`
	b.Run("q4-kept-filter", func(b *testing.B) {
		plan, _ := prepare(b, cat, core.StrategyBry, translate.Options{}, q4)
		runOpen(b, cat, plan)
	})
	b.Run("q5-distributed", func(b *testing.B) {
		plan, _ := prepare(b, cat, core.StrategyBry, translate.Options{}, q5)
		runOpen(b, cat, plan)
	})
}

// --- E6: the full pipeline against the Codd reduction -----------------------

// BenchmarkE6BryVsCodd sweeps the database size on two nested quantified
// queries; the Codd reduction's domain products make it collapse quickly.
func BenchmarkE6BryVsCodd(b *testing.B) {
	queries := map[string]string{
		"attends-all": `{ x | student(x) and forall y: cs_lecture(y) => attends(x, y) }`,
		"phd-outside": `exists x, y: enrolled(x, y) and y != "cs" and makes(x, "PhD") and exists z: cs_lecture(z) and attends(x, z)`,
	}
	for _, n := range []int{20, 60} {
		p := dataset.DefaultUniversity(n)
		cat := dataset.University(p)
		for qname, input := range queries {
			b.Run(fmt.Sprintf("%s/n=%d/bry", qname, n), func(b *testing.B) {
				plan, bp := prepare(b, cat, core.StrategyBry, translate.Options{}, input)
				if plan != nil {
					runOpen(b, cat, plan)
				} else {
					runClosed(b, cat, bp)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/codd", qname, n), func(b *testing.B) {
				plan, bp := prepare(b, cat, core.StrategyCodd, translate.Options{}, input)
				if plan != nil {
					runOpen(b, cat, plan)
				} else {
					runClosed(b, cat, bp)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/codd-improved", qname, n), func(b *testing.B) {
				plan, bp := prepare(b, cat, core.StrategyCoddImproved, translate.Options{}, input)
				if plan != nil {
					runOpen(b, cat, plan)
				} else {
					runClosed(b, cat, bp)
				}
			})
		}
	}
}

// --- E7: normalization cost ---------------------------------------------------

// BenchmarkE7Normalization measures Phase 1 itself: parsing plus the
// rewriting fixpoint on the paper's example queries.
func BenchmarkE7Normalization(b *testing.B) {
	inputs := map[string]string{
		"miniscope-q1": `exists x: student(x) and forall y: cs_lecture(y) => attends(x, y) and not enrolled(x, "cs")`,
		"producers-q1": `exists x: ((student(x) and makes(x, "PhD")) or prof(x)) and (speaks(x, "french") or speaks(x, "german"))`,
		"nested-q":     `exists x, y: enrolled(x, y) and y != "cs" and makes(x, "PhD") and exists z: cs_lecture(z) and attends(x, z)`,
	}
	for name, input := range inputs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.Normalize(parser.MustParse(input)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9 (ablation): indexed vs hash-building executor ------------------------

// BenchmarkE9IndexedExecutor is an ablation beyond the paper: the same Bry
// plans run with per-query hash builds (the default) and with persistent
// catalog indexes. Indexes do not change any result (property-tested) but
// turn the §3.2 emptiness tests into near-constant work.
func BenchmarkE9IndexedExecutor(b *testing.B) {
	p := dataset.DefaultUniversity(2000)
	p.Lectures = 200
	cat := dataset.University(p)
	queries := map[string]string{
		"closed-exists": `exists x: student(x) and exists y: cs_lecture(y) and attends(x, y)`,
		"open-negation": `{ x, z | member(x, z) and not skill(x, "db") }`,
		"open-forall":   `{ x | student(x) and forall y: cs_lecture(y) => attends(x, y) }`,
	}
	for name, input := range queries {
		for _, indexed := range []bool{false, true} {
			label := "/hash"
			if indexed {
				label = "/indexed"
			}
			b.Run(name+label, func(b *testing.B) {
				plan, bp := prepare(b, cat, core.StrategyBry, translate.Options{}, input)
				var total exec.Stats
				// Warm the indexes outside the timed loop, as a real
				// system would maintain them alongside the data.
				if indexed {
					warm := exec.NewIndexedContext(cat)
					if plan != nil {
						if _, err := exec.Run(warm, plan); err != nil {
							b.Fatal(err)
						}
					} else if _, err := exec.EvalBool(warm, bp); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx := exec.NewContext(cat)
					ctx.UseIndexes = indexed
					if plan != nil {
						if _, err := exec.Run(ctx, plan); err != nil {
							b.Fatal(err)
						}
					} else if _, err := exec.EvalBool(ctx, bp); err != nil {
						b.Fatal(err)
					}
					total.Add(*ctx.Stats)
				}
				b.StopTimer()
				reportStats(b, total)
			})
		}
	}
}

// --- E10: Quel-style counting vs complement-join (§1) ------------------------

// quelAttendsAllPlan expresses "students attending all cs lectures" the way
// the paper's introduction says Quel must: compare the per-student count of
// attended cs lectures with the total count of cs lectures.
func quelAttendsAllPlan(cat *storage.Catalog) algebra.Plan {
	att, _ := cat.Relation("attends")
	lec, _ := cat.Relation("cs_lecture")
	st, _ := cat.Relation("student")
	perStudent := &algebra.GroupCount{
		Input: &algebra.SemiJoin{
			Left:  algebra.NewScan("attends", att.Schema()),
			Right: algebra.NewScan("cs_lecture", lec.Schema()),
			On:    []algebra.ColPair{{Left: 1, Right: 0}},
		},
		GroupCols: []int{0},
	}
	total := &algebra.GroupCount{Input: algebra.NewScan("cs_lecture", lec.Schema())}
	matching := &algebra.Project{
		Input: &algebra.Join{Left: perStudent, Right: total, On: []algebra.ColPair{{Left: 1, Right: 0}}},
		Cols:  []int{0},
	}
	return &algebra.SemiJoin{Left: algebra.NewScan("student", st.Schema()), Right: matching, On: []algebra.ColPair{{Left: 0, Right: 0}}}
}

// divisionAttendsAllPlan is the paper's case-5 division translation:
// student ⋉ ((attends ⋉ cs_lecture) ÷ cs_lecture). Safe here because the
// divisor is a base relation checked nonempty by construction.
func divisionAttendsAllPlan(cat *storage.Catalog) algebra.Plan {
	att, _ := cat.Relation("attends")
	lec, _ := cat.Relation("cs_lecture")
	st, _ := cat.Relation("student")
	dividend := &algebra.SemiJoin{
		Left:  algebra.NewScan("attends", att.Schema()),
		Right: algebra.NewScan("cs_lecture", lec.Schema()),
		On:    []algebra.ColPair{{Left: 1, Right: 0}},
	}
	div := &algebra.Division{
		Dividend: dividend,
		Divisor:  algebra.NewScan("cs_lecture", lec.Schema()),
		KeyCols:  []int{0},
		DivCols:  []int{1},
	}
	return &algebra.SemiJoin{Left: algebra.NewScan("student", st.Schema()), Right: div, On: []algebra.ColPair{{Left: 0, Right: 0}}}
}

// BenchmarkE10UniversalStrategies measures four ways to evaluate the same
// universal query "students attending all cs lectures": the Quel counting
// approach the paper's §1 criticizes, the paper's case-5 division, and the
// context-seeded complement-join with and without persistent indexes. The
// complement-join's candidate space is student × cs_lecture, so its cost
// crosses over with the attends-driven strategies as attendance densifies.
func BenchmarkE10UniversalStrategies(b *testing.B) {
	for _, n := range []int{500, 5000} {
		cat := dataset.University(dataset.DefaultUniversity(n))
		b.Run(fmt.Sprintf("n=%d/quel-counting", n), func(b *testing.B) {
			runOpen(b, cat, quelAttendsAllPlan(cat))
		})
		b.Run(fmt.Sprintf("n=%d/division", n), func(b *testing.B) {
			runOpen(b, cat, divisionAttendsAllPlan(cat))
		})
		b.Run(fmt.Sprintf("n=%d/division-translated", n), func(b *testing.B) {
			plan, _ := prepare(b, cat, core.StrategyBry, translate.Options{},
				`{ x | student(x) and forall y: cs_lecture(y) => attends(x, y) }`)
			runOpen(b, cat, plan)
		})
		b.Run(fmt.Sprintf("n=%d/complement-join", n), func(b *testing.B) {
			plan, _ := prepare(b, cat, core.StrategyBry, translate.Options{Universal: translate.UniversalComplementJoin},
				`{ x | student(x) and forall y: cs_lecture(y) => attends(x, y) }`)
			runOpen(b, cat, plan)
		})
		b.Run(fmt.Sprintf("n=%d/complement-join-indexed", n), func(b *testing.B) {
			plan, _ := prepare(b, cat, core.StrategyBry, translate.Options{Universal: translate.UniversalComplementJoin},
				`{ x | student(x) and forall y: cs_lecture(y) => attends(x, y) }`)
			var total exec.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := exec.NewIndexedContext(cat)
				if _, err := exec.Run(ctx, plan); err != nil {
					b.Fatal(err)
				}
				total.Add(*ctx.Stats)
			}
			b.StopTimer()
			reportStats(b, total)
		})
	}
}

// --- E12: the join family, serial (DESIGN.md §5) ------------------------------

// drainPlan builds and exhausts the plan's iterator directly, asking for
// blocks of capacity batch (0 = the default) — without exec.Run's result
// materialization and dedup — so it isolates the executor's join work (E12)
// or its per-block bookkeeping (E16).
func drainPlan(b *testing.B, cat *storage.Catalog, plan algebra.Plan, batch int) {
	if batch == 0 {
		batch = exec.DefaultBatchSize
	}
	var total exec.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := exec.NewContext(cat)
		ctx.BatchSize = batch
		it, err := exec.Build(ctx, plan)
		if err != nil {
			b.Fatal(err)
		}
		it.Open()
		rows := 0
		for bt, ok := it.NextBatch(batch); ok; bt, ok = it.NextBatch(batch) {
			rows += len(bt.Tuples)
		}
		it.Close()
		if rows == 0 {
			b.Fatal("benchmark plan produced no rows")
		}
		total.Add(*ctx.Stats)
	}
	b.StopTimer()
	reportStats(b, total)
	b.ReportMetric(float64(total.BatchesEmitted)/float64(b.N), "batches/op")
}

// namedPlan is one benchmark arm's plan.
type namedPlan struct {
	name string
	plan algebra.Plan
}

// joinWorkload is the join-heavy database of E12, E14 and E16 (50 000
// students) with the requested plans among join/member-skill,
// complement-join/member-not-skill-db and semijoin/attends-cs.
func joinWorkload(b *testing.B, names ...string) (*storage.Catalog, []namedPlan) {
	p := dataset.DefaultUniversity(50000)
	p.Lectures = 40
	p.AttendProb = 0.03
	cat := dataset.University(p)
	scan := func(name string) *algebra.Scan {
		r, _ := cat.Relation(name)
		return algebra.NewScan(name, r.Schema())
	}
	var plans []namedPlan
	for _, name := range names {
		var plan algebra.Plan
		switch name {
		case "join/member-skill":
			plan = &algebra.Join{Left: scan("member"), Right: scan("skill"),
				On: []algebra.ColPair{{Left: 0, Right: 0}}}
		case "complement-join/member-not-skill-db":
			plan, _ = prepare(b, cat, core.StrategyBry, translate.Options{},
				`{ x, z | member(x, z) and not skill(x, "db") }`)
		case "semijoin/attends-cs":
			plan = &algebra.SemiJoin{Left: scan("attends"), Right: scan("cs_lecture"),
				On: []algebra.ColPair{{Left: 1, Right: 0}}}
		default:
			b.Fatalf("joinWorkload: unknown plan %q", name)
		}
		plans = append(plans, namedPlan{name, plan})
	}
	return cat, plans
}

// BenchmarkE12JoinFamily drains each join-heavy plan on the one serial join
// path: a chained 64-bit-hash table built from the right input, probed per
// left tuple. There is no fan-out arm: EXPERIMENTS.md E12 records why.
func BenchmarkE12JoinFamily(b *testing.B) {
	cat, plans := joinWorkload(b, "join/member-skill", "complement-join/member-not-skill-db", "semijoin/attends-cs")
	for _, pl := range plans {
		b.Run(pl.name, func(b *testing.B) {
			drainPlan(b, cat, pl.plan, 0)
		})
	}
}

// --- E13: memoizing subplan cache on wide disjunctions (DESIGN.md) ------------

// e13Query builds the width-w disjunctive query and its PTU catalog: under
// the union strategy each of the w disjuncts re-derives the same P ⋈ T
// producer, which is exactly the repeated subtree the Shared pass spools
// once and replays w−1 times.
func e13Query(w int) (*storage.Catalog, string) {
	cat := dataset.PTU(dataset.PTUParams{N: 4000, TProb: 0.5, UProb: 0.1, ExtraShare: 0.05, Branches: w + 1, Seed: 13})
	input := `{ x | P(x) and T(x) and (U(x)`
	for i := 2; i <= w; i++ {
		input += fmt.Sprintf(" or T%d(x)", i)
	}
	input += `) }`
	return cat, input
}

// runMemo exhausts the plan b.N times against the given memo (nil = cache
// off). A fresh memo per iteration measures the cold path; a pre-warmed
// persistent memo measures pure replay.
func runMemo(b *testing.B, cat *storage.Catalog, plan algebra.Plan, memo func() *exec.Memo) {
	var total exec.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := exec.NewContext(cat)
		if memo != nil {
			ctx.Memo = memo()
		}
		if _, err := exec.Run(ctx, plan); err != nil {
			b.Fatal(err)
		}
		total.Add(*ctx.Stats)
	}
	b.StopTimer()
	reportStats(b, total)
	b.ReportMetric(float64(total.CacheHits)/float64(b.N), "chit/op")
	b.ReportMetric(float64(total.CacheTuplesReplayed)/float64(b.N), "creplay/op")
}

// BenchmarkE13SharedSubplans sweeps the disjunct width w under the union
// strategy, comparing cache off, cold (fresh memo per run: intra-plan
// sharing only) and warm (persistent memo: whole-plan replay). This is the
// acceptance gate for the subplan cache: at w=4 the cold run must read
// ≤ half the base tuples of the uncached run (asserted by
// TestE13SharedSubplanReduction).
func BenchmarkE13SharedSubplans(b *testing.B) {
	for _, w := range []int{2, 4, 6} {
		cat, input := e13Query(w)
		raw, _ := prepare(b, cat, core.StrategyBry, translate.Options{DisjunctiveFilters: translate.StrategyUnion}, input)
		shared := planopt.Share(raw)
		b.Run(fmt.Sprintf("w=%d/cache=off", w), func(b *testing.B) {
			runMemo(b, cat, raw, nil)
		})
		b.Run(fmt.Sprintf("w=%d/cache=cold", w), func(b *testing.B) {
			runMemo(b, cat, shared, func() *exec.Memo { return exec.NewMemo(0) })
		})
		b.Run(fmt.Sprintf("w=%d/cache=warm", w), func(b *testing.B) {
			memo := exec.NewMemo(0)
			warm := exec.NewContext(cat)
			warm.Memo = memo
			if _, err := exec.Run(warm, shared); err != nil {
				b.Fatal(err)
			}
			runMemo(b, cat, shared, func() *exec.Memo { return memo })
		})
	}
}

// TestE13SharedSubplanReduction pins the E13 acceptance bar outside the
// benchmark harness: on the width-4 query the cold cached run reads at most
// half the base tuples of the uncached run and produces the same relation.
func TestE13SharedSubplanReduction(t *testing.T) {
	cat, input := e13Query(4)
	q, err := rewrite.Normalize(parser.MustParse(input))
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := translate.NewBryWithOptions(cat, translate.Options{DisjunctiveFilters: translate.StrategyUnion}).Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	off := exec.NewContext(cat)
	want, err := exec.Run(off, raw)
	if err != nil {
		t.Fatal(err)
	}
	on := exec.NewContext(cat)
	on.Memo = exec.NewMemo(0)
	got, err := exec.Run(on, planopt.Share(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("cached plan changed the answer:\n%s\nvs\n%s", got, want)
	}
	if 2*on.Stats.BaseTuplesRead > off.Stats.BaseTuplesRead {
		t.Fatalf("cold cache must at least halve base reads: %d vs %d",
			on.Stats.BaseTuplesRead, off.Stats.BaseTuplesRead)
	}
}

// --- E15: cross-query memo sharing (DESIGN.md §5) ----------------------------

// TestE15SingleFlightSharing pins the deterministic half of E15: eight cold
// queries in a row on one memo. The first evaluates the plan and publishes;
// the other seven replay the complete root entry, touching no base
// relation, so the eight together read exactly one cold evaluation's base
// tuples.
func TestE15SingleFlightSharing(t *testing.T) {
	cat, input := e13Query(4)
	q, err := rewrite.Normalize(parser.MustParse(input))
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := translate.NewBryWithOptions(cat, translate.Options{DisjunctiveFilters: translate.StrategyUnion}).Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	shared := planopt.Share(raw)

	ref := exec.NewContext(cat)
	ref.Memo = exec.NewMemo(0)
	want, err := exec.Run(ref, shared)
	if err != nil {
		t.Fatal(err)
	}

	const c = 8
	memo := exec.NewMemo(0)
	var totalReads int64
	for g := 0; g < c; g++ {
		ctx := exec.NewContext(cat)
		ctx.Memo = memo
		out, err := exec.Run(ctx, shared)
		if err != nil {
			t.Fatalf("run %d: %v", g, err)
		}
		if !out.Equal(want) {
			t.Fatalf("run %d result differs", g)
		}
		totalReads += ctx.Stats.BaseTuplesRead
		if g > 0 && (ctx.Stats.BaseTuplesRead != 0 || ctx.Stats.CacheHits != 1 || ctx.Stats.CacheMisses != 0) {
			t.Fatalf("run %d did not replay the published entry: %s", g, ctx.Stats)
		}
	}
	if totalReads != ref.Stats.BaseTuplesRead {
		t.Fatalf("total reads %d, want one cold evaluation's %d", totalReads, ref.Stats.BaseTuplesRead)
	}
}

// --- E14: resource governor overhead (DESIGN.md) ------------------------------

// BenchmarkE14GovernorOverhead pairs the E12 join workloads ungoverned and
// under generous budgets (every charge taken, no trip). The pair is the
// acceptance gate for the governor: the governed median must stay within 5%
// of the ungoverned one.
func BenchmarkE14GovernorOverhead(b *testing.B) {
	cat, plans := joinWorkload(b, "join/member-skill", "complement-join/member-not-skill-db")
	for _, pl := range plans {
		for _, governed := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/governed=%v", pl.name, governed), func(b *testing.B) {
				var total exec.Stats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx := exec.NewContext(cat)
					if governed {
						ctx.Gov = exec.NewGovernor(1<<40, 1<<40)
						ctx.CheckInterval = exec.GovernedCheckInterval
					}
					out, err := exec.Run(ctx, pl.plan)
					if err != nil {
						b.Fatal(err)
					}
					if out.Len() == 0 {
						b.Fatal("benchmark plan produced no rows")
					}
					total.Add(*ctx.Stats)
				}
				b.StopTimer()
				reportStats(b, total)
			})
		}
	}
}

// --- E8: emptiness tests and early termination (§3.2) ------------------------

// BenchmarkE8EmptinessTest compares the boolean emptiness-test pipeline
// against full materialization of the same existential query, on a
// database where the witness exists (early exit pays off) and on one where
// it does not (costs converge).
func BenchmarkE8EmptinessTest(b *testing.B) {
	for _, witness := range []bool{true, false} {
		p := dataset.DefaultUniversity(1000)
		p.Lectures = 100
		if !witness {
			p.AttendProb = 0 // nobody attends anything
		}
		cat := dataset.University(p)
		input := `exists x: student(x) and exists y: cs_lecture(y) and attends(x, y)`
		open := `{ x | student(x) and exists y: cs_lecture(y) and attends(x, y) }`
		b.Run(fmt.Sprintf("witness=%v/emptiness-test", witness), func(b *testing.B) {
			_, bp := prepare(b, cat, core.StrategyBry, translate.Options{}, input)
			runClosed(b, cat, bp)
		})
		b.Run(fmt.Sprintf("witness=%v/materialize-all", witness), func(b *testing.B) {
			plan, _ := prepare(b, cat, core.StrategyBry, translate.Options{}, open)
			runOpen(b, cat, plan)
		})
	}
}

// --- E16: columnar batch execution (DESIGN.md §9) -----------------------------

// BenchmarkE16BatchExecution measures what block execution buys. The E12
// join workloads are drained at demand 1 (tuple-at-a-time) and in blocks of
// 64 and 1024: block 1024 must beat block 1 (the per-call tax it
// amortizes). (The original ≥2× bar was set against the separate tuple
// pipeline and its string-keyed hash table, both since deleted; block 1
// shares the chained table, so the remaining gap is bookkeeping alone.)
func BenchmarkE16BatchExecution(b *testing.B) {
	cat, plans := joinWorkload(b, "join/member-skill", "semijoin/attends-cs")
	for _, pl := range plans {
		for _, bs := range []int{1, 64, 1024} {
			b.Run(fmt.Sprintf("%s/block=%d", pl.name, bs), func(b *testing.B) {
				drainPlan(b, cat, pl.plan, bs)
			})
		}
	}
}
