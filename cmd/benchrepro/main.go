// Command benchrepro regenerates every figure of the paper and the
// experiment tables E1-E8 of DESIGN.md, printing the paper's tables
// verbatim (Figs. 2-4) and deterministic cost counters for each claim.
// Timings live in the go benchmarks (go test -bench=.); this tool reports
// the machine-independent counters.
//
// Usage:
//
//	benchrepro             # everything
//	benchrepro -only fig4      # one artifact: fig1..fig4, e1..e16
//	benchrepro -only e13,e15   # a comma-separated subset
//	benchrepro -json out.jsonl  # also write every table row as a JSON line
//	                            # (scripts/benchcmp.sh diffs two such files)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/loopeval"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/translate"
)

// jsonOut, when non-nil, receives one JSON line per table row (-json flag);
// scripts/benchcmp.sh diffs two such files counter by counter.
var jsonOut *os.File

func main() {
	only := flag.String("only", "", "restrict to a comma-separated list of artifacts: fig1..fig4, e1..e16")
	jsonPath := flag.String("json", "", "also append every table row as a JSON line to this file")
	flag.Parse()

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		jsonOut = f
	}

	artifacts := []struct {
		id  string
		fn  func()
		doc string
	}{
		{"fig1", figure1, "Fig. 1 — loop algorithms (closed ∃, closed ∀, open)"},
		{"fig2", figure2, "Fig. 2 — P, T, U and R₁ = P ⟕ T"},
		{"fig3", figure3, "Fig. 3 — R₂ = R₁ ⟕ U and query Q₁"},
		{"fig4", figure4, "Fig. 4 — R₃ constrained chain and query Q₂"},
		{"e1", e1, "E1 — complement-join vs difference+join (§3.1)"},
		{"e2", e2, "E2 — Proposition 4 cases, Bry vs Codd"},
		{"e3", e3, "E3 — disjunctive filter strategies (§3.3)"},
		{"e4", e4, "E4 — miniscope vs raw nesting (§2.2)"},
		{"e5", e5, "E5 — producer/filter choice (§2.3)"},
		{"e6", e6, "E6 — full pipeline vs Codd reduction"},
		{"e7", e7, "E7 — canonical forms of the paper's examples"},
		{"e8", e8, "E8 — emptiness-test early termination (§3.2)"},
		{"e9", e9, "E9 — indexed vs hash-building executor (ablation)"},
		{"e10", e10, "E10 — universal quantification: counting vs division vs complement-join"},
		{"e12", e12, "E12 — partitioned parallel executor (removed)"},
		{"e13", e13, "E13 — memoizing subplan cache on wide disjunctions (union strategy)"},
		{"e14", e14, "E14 — resource governor: overhead parity, budget trips, degradation"},
		{"e15", e15, "E15 — cross-query memo sharing: six cold queries in a row on one engine"},
		{"e16", e16, "E16 — columnar batch execution: block-size counter parity"},
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToLower(id)); id != "" {
			wanted[id] = true
		}
	}
	ran := false
	for _, a := range artifacts {
		if len(wanted) > 0 && !wanted[a.id] {
			continue
		}
		fmt.Printf("================ %s ================\n%s\n\n", strings.ToUpper(a.id), a.doc)
		a.fn()
		fmt.Println()
		ran = true
	}
	if !ran {
		log.Fatalf("unknown artifact %q", *only)
	}
}

// --- fixtures ---------------------------------------------------------------

// ptuFixture is the exact database of Fig. 2.
func ptuFixture() *storage.Catalog {
	cat := storage.NewCatalog()
	p := cat.MustDefine("P", relation.NewSchema("v"))
	for _, s := range []string{"a", "b", "c", "d"} {
		p.InsertValues(relation.Str(s))
	}
	t := cat.MustDefine("T", relation.NewSchema("v"))
	for _, s := range []string{"a", "b", "e"} {
		t.InsertValues(relation.Str(s))
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

func mustRun(cat *storage.Catalog, p algebra.Plan) (*relation.Relation, exec.Stats) {
	ctx := exec.NewContext(cat)
	out, err := exec.Run(ctx, p)
	if err != nil {
		log.Fatal(err)
	}
	return out, *ctx.Stats
}

func printRel(title string, r *relation.Relation) {
	fmt.Println(title)
	for _, t := range r.Tuples() {
		cells := make([]string, len(t))
		for i, v := range t {
			cells[i] = v.String()
		}
		fmt.Println("  " + strings.Join(cells, "\t"))
	}
}

type row struct {
	label string
	stats exec.Stats
	extra string
}

func printTable(header string, rows []row) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s\treads\tcomparisons\tintermediates\tmaterializations\tresult\n", header)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%s\n", r.label,
			r.stats.BaseTuplesRead, r.stats.Comparisons, r.stats.IntermediateTuples,
			r.stats.Materializations, r.extra)
		writeJSONRow(header, r)
	}
	w.Flush()
}

// jsonRow is the line format of -json: one object per table row, keyed by
// table header + row label so two runs can be matched counter by counter.
// Counter keys are exactly the core.Snapshot wire names, so a bench row and
// a /stats snapshot speak the same vocabulary.
type jsonRow struct {
	Table           string `json:"table"`
	Label           string `json:"label"`
	Reads           int64  `json:"base_tuples_read"`
	Comparisons     int64  `json:"comparisons"`
	Intermediates   int64  `json:"intermediate_tuples"`
	Materialized    int64  `json:"materializations"`
	CacheHits       int64  `json:"cache_hits"`
	CacheMisses     int64  `json:"cache_misses"`
	TuplesReplayed  int64  `json:"cache_tuples_replayed"`
	TuplesSpooled   int64  `json:"cache_tuples_spooled"`
	SpoolsAbandoned int64  `json:"cache_spools_abandoned"`
	// BatchesEmitted is deterministic for a fixed configuration (see
	// exec.Stats); AvgBatchFill is a derived gauge the gate ignores.
	BatchesEmitted int64   `json:"batches_emitted"`
	AvgBatchFill   float64 `json:"avg_batch_fill"`
	Result         string  `json:"result"`
}

func writeJSONRow(header string, r row) {
	if jsonOut == nil {
		return
	}
	line, err := json.Marshal(jsonRow{
		Table:           header,
		Label:           r.label,
		Reads:           r.stats.BaseTuplesRead,
		Comparisons:     r.stats.Comparisons,
		Intermediates:   r.stats.IntermediateTuples,
		Materialized:    r.stats.Materializations,
		CacheHits:       r.stats.CacheHits,
		CacheMisses:     r.stats.CacheMisses,
		TuplesReplayed:  r.stats.CacheTuplesReplayed,
		TuplesSpooled:   r.stats.CacheTuplesSpooled,
		SpoolsAbandoned: r.stats.CacheSpoolsAbandoned,
		BatchesEmitted:  r.stats.BatchesEmitted,
		AvgBatchFill:    fillOf(r.stats),
		Result:          r.extra,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fmt.Fprintf(jsonOut, "%s\n", line); err != nil {
		log.Fatal(err)
	}
}

func universityDB(n int) *core.DB {
	cat := dataset.University(dataset.DefaultUniversity(n))
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	return db
}

func queryRow(db *core.DB, strat core.Strategy, opt translate.Options, label, input string) row {
	eng := core.NewEngine(db,
		core.WithStrategy(strat),
		core.WithTranslateOptions(opt),
	)
	res, err := eng.Query(input)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	extra := fmt.Sprintf("%v", res.Truth)
	if res.Open {
		extra = fmt.Sprintf("%d rows", res.Rows.Len())
	}
	return row{label: label, stats: res.Stats, extra: extra}
}

// --- figures ----------------------------------------------------------------

func figure1() {
	cat := ptuFixture()
	ev := loopeval.New(cat)
	// Fig. 1a: exists x in P: T(x)
	ok, err := ev.EvalClosed(parser.MustParse(`exists x: P(x) and T(x)`).Body, loopeval.Env{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1a  ∃x∈P: T(x)            = %-5v (reads=%d, stops at first witness)\n", ok, ev.Stats.BaseTuplesRead)

	ev = loopeval.New(cat)
	ok, err = ev.EvalClosed(parser.MustParse(`forall x: P(x) => T(x)`).Body, loopeval.Env{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1b  ∀x∈P: T(x)            = %-5v (reads=%d, stops at first counterexample)\n", ok, ev.Stats.BaseTuplesRead)

	ev = loopeval.New(cat)
	out, err := ev.EvalOpen(parser.MustParse(`{ x | P(x) and T(x) }`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1c  {x∈P | T(x)}          = %d rows (reads=%d, full scan: all answers needed)\n", out.Len(), ev.Stats.BaseTuplesRead)
}

func figure2() {
	cat := ptuFixture()
	for _, n := range []string{"P", "T", "U"} {
		r, _ := cat.Relation(n)
		printRel(n+":", r)
	}
	r1, _ := mustRun(cat, &algebra.OuterJoin{Left: scan(cat, "P"), Right: scan(cat, "T"), On: []algebra.ColPair{{Left: 0, Right: 0}}})
	printRel("R1 = P ⟕ T:", r1)
}

func figure3() {
	cat := ptuFixture()
	r1 := &algebra.OuterJoin{Left: scan(cat, "P"), Right: scan(cat, "T"), On: []algebra.ColPair{{Left: 0, Right: 0}}}
	r2plan := &algebra.OuterJoin{Left: r1, Right: scan(cat, "U"), On: []algebra.ColPair{{Left: 0, Right: 0}}}
	r2, _ := mustRun(cat, r2plan)
	printRel("R2 = R1 ⟕ U:", r2)
	q1, st := mustRun(cat, &algebra.Project{
		Input: &algebra.Select{Input: r2plan, Pred: algebra.Or{Preds: []algebra.Pred{algebra.NotNull{Col: 1}, algebra.NotNull{Col: 2}}}},
		Cols:  []int{0},
	})
	printRel("Q1 = π₁(σ[2≠∅ ∨ 3≠∅](R2))   — P(x) ∧ (T(x) ∨ U(x)):", q1)
	fmt.Printf("cost: %s\n", st.String())
}

func figure4() {
	cat := ptuFixture()
	c1 := &algebra.ConstrainedOuterJoin{Left: scan(cat, "P"), Right: scan(cat, "T"), On: []algebra.ColPair{{Left: 0, Right: 0}}}
	c2 := &algebra.ConstrainedOuterJoin{
		Left: c1, Right: scan(cat, "U"),
		On:         []algebra.ColPair{{Left: 0, Right: 0}},
		Constraint: []algebra.NullCond{{Col: 1, IsNull: false}},
	}
	r3, st := mustRun(cat, c2)
	printRel("R3 = [P ⟕⊥ T] ⟕⊥{2≠∅} U:", r3)
	fmt.Printf("cost: %s (U probed only for P-tuples with a T partner)\n", st.String())
	q2, _ := mustRun(cat, &algebra.Project{
		Input:   &algebra.Select{Input: c2, Pred: algebra.Or{Preds: []algebra.Pred{algebra.IsNull{Col: 1}, algebra.NotNull{Col: 2}}}},
		Cols:    []int{0},
		NoDedup: true,
	})
	printRel("Q2 = π₁(σ[2=∅ ∨ 3≠∅](R3))   — P(x) ∧ (¬T(x) ∨ U(x)):", q2)
}

// --- experiments --------------------------------------------------------------

func e1() {
	p := dataset.DefaultUniversity(10000)
	p.Lectures = 20
	p.AttendProb = 0.05
	cat := dataset.University(p)
	member, _ := cat.Relation("member")
	skill, _ := cat.Relation("skill")

	bry := translate.NewBry(cat)
	q, err := rewrite.Normalize(parser.MustParse(`{ x, z | member(x, z) and not skill(x, "db") }`))
	if err != nil {
		log.Fatal(err)
	}
	cplan, err := bry.TranslateOpen(q)
	if err != nil {
		log.Fatal(err)
	}
	_, cstats := mustRun(cat, cplan)

	mScan := algebra.NewScan("member", member.Schema())
	sScan := algebra.NewScan("skill", skill.Schema())
	diff := &algebra.Diff{
		Left:  &algebra.Project{Input: mScan, Cols: []int{0}},
		Right: &algebra.Project{Input: &algebra.Select{Input: sScan, Pred: algebra.CmpConst{Col: 1, Op: algebra.OpEq, Const: relation.Str("db")}}, Cols: []int{0}},
	}
	dplan := &algebra.Project{Input: &algebra.Join{Left: mScan, Right: diff, On: []algebra.ColPair{{Left: 0, Right: 0}}}, Cols: []int{0, 1}}
	dres, dstats := mustRun(cat, dplan)
	cres, _ := mustRun(cat, cplan)
	printTable("Q₂: member(x,z) ∧ ¬skill(x,db), |member|=10k", []row{
		{"complement-join (paper)", cstats, fmt.Sprintf("%d rows", cres.Len())},
		{"difference + join (conventional)", dstats, fmt.Sprintf("%d rows", dres.Len())},
	})
}

func e2() {
	cat := dataset.RSTG(dataset.DefaultRSTG(24))
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	cases := []struct{ id, q string }{
		{"case1", `{ x | exists y: R(x, y) and exists z: S(x, y, z) and G(x, y, z) }`},
		{"case2a", `{ x | exists y: R(x, y) and exists z: S(x, y, z) and not G(x, y, z) }`},
		{"case2b", `{ x | exists y: R(x, y) and exists z: T(y, z) and not G(x, y, z) }`},
		{"case3", `{ x | exists y: R(x, y) and not exists z: S(x, y, z) and G(x, y, z) }`},
		{"case4", `{ x | exists y: R(x, y) and not exists z: S(x, y, z) and not G(x, y, z) }`},
		{"case5", `{ x | exists y: R(x, y) and not exists z: T(y, z) and not G(x, y, z) }`},
	}
	var rows []row
	for _, c := range cases {
		rows = append(rows, queryRow(db, core.StrategyBry, translate.Options{}, c.id+"/bry", c.q))
		rows = append(rows, queryRow(db, core.StrategyCodd, translate.Options{}, c.id+"/codd", c.q))
	}
	printTable("Proposition 4 cases (R/S/T/G, |x|=24)", rows)
}

func e3() {
	cat := dataset.PTU(dataset.PTUParams{N: 20000, TProb: 0.6, UProb: 0.2, ExtraShare: 0.25, Branches: 3, Seed: 11})
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	q := `{ x | P(x) and (T(x) or U(x) or T2(x)) }`
	qneg := `{ x | P(x) and (not T(x) or U(x)) }`
	var rows []row
	for _, s := range []struct {
		name  string
		strat translate.DisjFilterStrategy
	}{
		{"constrained outer-joins", translate.StrategyConstrainedOuterJoin},
		{"plain outer-joins", translate.StrategyOuterJoin},
		{"conventional unions", translate.StrategyUnion},
	} {
		rows = append(rows, queryRow(db, core.StrategyBry, translate.Options{DisjunctiveFilters: s.strat}, "3-way/"+s.name, q))
	}
	for _, s := range []struct {
		name  string
		strat translate.DisjFilterStrategy
	}{
		{"constrained outer-joins", translate.StrategyConstrainedOuterJoin},
		{"plain outer-joins", translate.StrategyOuterJoin},
		{"conventional unions", translate.StrategyUnion},
	} {
		rows = append(rows, queryRow(db, core.StrategyBry, translate.Options{DisjunctiveFilters: s.strat}, "negated/"+s.name, qneg))
	}
	printTable("disjunctive filters, |P|=20k", rows)
}

func e4() {
	p := dataset.DefaultUniversity(200)
	p.Lectures = 120
	p.AttendProb = 0.85 // dense attendance: the ¬ enrolled redundancy shows
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
		log.Fatal(err)
	}
	loopOn := func(q parser.Query) exec.Stats {
		ev := loopeval.New(cat)
		if _, err := ev.EvalClosed(q.Body, loopeval.Env{}); err != nil {
			log.Fatal(err)
		}
		return *ev.Stats
	}
	printTable("§2.2 Q₁, Fig. 1 interpreter, 200 students × 40 cs-lectures", []row{
		{"raw Q₁ (¬enrolled inside ∀y)", loopOn(raw), ""},
		{"paper's miniscope Q₂", loopOn(paperQ2), ""},
		{"canonical form (exact, incl. empty-range disjunct)", loopOn(canonical), ""},
	})
}

func e5() {
	p := dataset.DefaultUniversity(5000)
	p.Lectures = 20
	p.AttendProb = 0.05
	cat := dataset.University(p)
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	rows := []row{
		queryRow(db, core.StrategyBry, translate.Options{}, "Q₄ kept filter disjunction",
			`{ x | prof(x) and (member(x, "cs") or skill(x, "math")) and speaks(x, "french") }`),
		queryRow(db, core.StrategyBry, translate.Options{}, "Q₅ hand-distributed",
			`{ x | (prof(x) and member(x, "cs") and speaks(x, "french")) or (prof(x) and skill(x, "math") and speaks(x, "french")) }`),
	}
	printTable("§2.3 producer/filter choice, 5000 students", rows)
}

func e6() {
	var rows []row
	for _, n := range []int{20, 60} {
		db := universityDB(n)
		for _, q := range []struct{ id, text string }{
			{"attends-all", `{ x | student(x) and forall y: cs_lecture(y) => attends(x, y) }`},
			{"phd-outside", `exists x, y: enrolled(x, y) and y != "cs" and makes(x, "PhD") and exists z: cs_lecture(z) and attends(x, z)`},
		} {
			rows = append(rows, queryRow(db, core.StrategyBry, translate.Options{}, fmt.Sprintf("%s/n=%d/bry", q.id, n), q.text))
			rows = append(rows, queryRow(db, core.StrategyCodd, translate.Options{}, fmt.Sprintf("%s/n=%d/codd", q.id, n), q.text))
		}
	}
	printTable("full pipeline vs Codd reduction", rows)
}

func e7() {
	inputs := []string{
		`exists x: student(x) and forall y: cs_lecture(y) => attends(x, y) and not enrolled(x, "cs")`,
		`exists x: ((student(x) and makes(x, "PhD")) or prof(x)) and (speaks(x, "french") or speaks(x, "german"))`,
		`exists x: professor(x) and (member(x, "cs") or skill(x, "math")) and speaks(x, "french")`,
		`forall x: student(x) => exists y: attends(x, y)`,
	}
	for _, in := range inputs {
		var trace []rewrite.Step
		e := rewrite.Engine{Trace: &trace}
		out, err := e.Normalize(parser.MustParse(in))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("raw:       %s\n", in)
		fmt.Printf("canonical: %s\n", out.Body)
		fmt.Printf("rules:     ")
		for i, s := range trace {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Print(s.Rule)
		}
		fmt.Println()
		fmt.Println()
	}
}

func e8() {
	var rows []row
	for _, witness := range []bool{true, false} {
		p := dataset.DefaultUniversity(1000)
		p.Lectures = 100
		if !witness {
			p.AttendProb = 0
		}
		cat := dataset.University(p)
		db := core.NewDB()
		for _, name := range cat.Names() {
			r, _ := cat.Relation(name)
			db.Catalog().Add(r)
		}
		rows = append(rows, queryRow(db, core.StrategyBry, translate.Options{},
			fmt.Sprintf("witness=%v/emptiness-test", witness),
			`exists x: student(x) and exists y: cs_lecture(y) and attends(x, y)`))
		rows = append(rows, queryRow(db, core.StrategyBry, translate.Options{},
			fmt.Sprintf("witness=%v/materialize-all", witness),
			`{ x | student(x) and exists y: cs_lecture(y) and attends(x, y) }`))
	}
	printTable("§3.2 emptiness tests, 1000 students", rows)
}

func e9() {
	p := dataset.DefaultUniversity(2000)
	p.Lectures = 200
	cat := dataset.University(p)
	var rows []row
	for _, q := range []struct{ id, text string }{
		{"closed-exists", `exists x: student(x) and exists y: cs_lecture(y) and attends(x, y)`},
		{"open-negation", `{ x, z | member(x, z) and not skill(x, "db") }`},
	} {
		nq, err := rewrite.Normalize(parser.MustParse(q.text))
		if err != nil {
			log.Fatal(err)
		}
		for _, indexed := range []bool{false, true} {
			label := q.id + "/hash"
			ctx := exec.NewContext(cat)
			if indexed {
				label = q.id + "/indexed"
				ctx = exec.NewIndexedContext(cat)
			}
			plan, bp, err := translate.NewBry(cat).Translate(nq)
			if err != nil {
				log.Fatal(err)
			}
			extra := ""
			if plan != nil {
				out, err := exec.Run(ctx, plan)
				if err != nil {
					log.Fatal(err)
				}
				extra = fmt.Sprintf("%d rows", out.Len())
			} else {
				ok, err := exec.EvalBool(ctx, bp)
				if err != nil {
					log.Fatal(err)
				}
				extra = fmt.Sprintf("%v", ok)
			}
			rows = append(rows, row{label: label, stats: *ctx.Stats, extra: extra})
		}
	}
	printTable("indexed executor ablation, 2000 students", rows)
}

func e10() {
	cat := dataset.University(dataset.DefaultUniversity(1000))
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	q := `{ x | student(x) and forall y: cs_lecture(y) => attends(x, y) }`
	rows := []row{
		queryRow(db, core.StrategyBry, translate.Options{}, "division (paper case 5 + vacuous fix)", q),
		queryRow(db, core.StrategyBry, translate.Options{Universal: translate.UniversalComplementJoin}, "seeded complement-join", q),
	}
	// The Quel-style counting plan (paper §1): compare per-student counts
	// of attended cs lectures against the total count.
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
	quel := &algebra.SemiJoin{Left: algebra.NewScan("student", st.Schema()), Right: matching, On: []algebra.ColPair{{Left: 0, Right: 0}}}
	out, stats := mustRun(cat, quel)
	rows = append(rows, row{label: "Quel-style counting (§1)", stats: stats, extra: fmt.Sprintf("%d rows", out.Len())})
	printTable("universal quantification strategies, 1000 students", rows)
}

// e12 records why the partition-parallel join executor is gone
// (EXPERIMENTS.md E12 has the numbers).
func e12() {
	fmt.Println("The partition-parallel join executor was removed. On a 2-vCPU VM, four")
	fmt.Println("partitions made the E12 join 1.2-1.3x faster than serial and the")
	fmt.Println("complement-join and semijoin 1.3-1.6x slower, so every join runs on")
	fmt.Println("one serial path. See EXPERIMENTS.md E12.")
}

// e13 shows the memoizing subplan cache on the union disjunctive-filter
// strategy: splitting P(x) ∧ T(x) ∧ (U(x) ∨ T2(x) ∨ T3(x) ∨ T4(x)) into a
// union re-derives the P ⋈ T producer in every disjunct, so the shared-
// subtree pass spools it once and replays it w−1 times; a second (warm) run
// replays the whole answer from the engine-held memo without touching base
// relations.
func e13() {
	cat := dataset.PTU(dataset.PTUParams{N: 4000, TProb: 0.5, UProb: 0.1, ExtraShare: 0.05, Branches: 5, Seed: 13})
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	q := `{ x | P(x) and T(x) and (U(x) or T2(x) or T3(x) or T4(x)) }`
	run := func(eng *core.Engine, label string) row {
		res, err := eng.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		return row{label: label, stats: res.Stats,
			extra: fmt.Sprintf("%d rows, hits=%d misses=%d replayed=%d spooled=%d",
				res.Rows.Len(), res.Stats.CacheHits, res.Stats.CacheMisses,
				res.Stats.CacheTuplesReplayed, res.Stats.CacheTuplesSpooled)}
	}
	off := core.NewEngine(db, core.WithDisjunctiveFilters(translate.StrategyUnion))
	on := core.NewEngine(db, core.WithDisjunctiveFilters(translate.StrategyUnion), core.WithPlanCache(0))
	rows := []row{
		run(off, "cache off"),
		run(on, "cache cold"),
		run(on, "cache warm"),
	}
	printTable("memoizing subplan cache, width-4 disjunction, |P|=4000, union strategy", rows)
}

// e14 shows the resource governor's three behaviours on deterministic
// counters (wall-clock overhead lives in go test -bench E14):
//
//  1. parity — a generous budget leaves every counter of the E12 workload
//     identical to the ungoverned run (accounting is observation only);
//  2. trips — the Codd reduction of a negated query blows past a tuple
//     budget the Bry translation of the same query fits in comfortably;
//  3. degradation — under memory pressure the engine sheds warm plan-cache
//     entries, credits the freed bytes, and still answers.
func e14() {
	p := dataset.DefaultUniversity(3000)
	p.Lectures = 60
	p.AttendProb = 0.1
	cat := dataset.University(p)
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	q := `{ x, z | member(x, z) and not skill(x, "db") and exists y: cs_lecture(y) and attends(x, y) }`
	run := func(label string, opts ...core.Option) row {
		eng := core.NewEngine(db, opts...)
		res, err := eng.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		return row{label: label, stats: res.Stats, extra: fmt.Sprintf("%d rows", res.Rows.Len())}
	}
	rows := []row{
		run("ungoverned"),
		run("governed (generous budgets)", core.WithTupleLimit(1<<40), core.WithMemoryBudget(1<<40)),
	}

	// Budget trip: the same negated query under both translations, one
	// tuple budget. Codd's domain products blow past it; Bry fits.
	small := universityDB(60)
	qneg := `{ x | student(x) and not exists y: attends(x, y) }`
	const budget = 2000
	codd := core.NewEngine(small, core.WithStrategy(core.StrategyCodd), core.WithTupleLimit(budget))
	if _, err := codd.Query(qneg); err != nil {
		rows = append(rows, row{label: fmt.Sprintf("codd, %d-tuple budget", budget),
			extra: fmt.Sprintf("aborted: %v", err)})
	} else {
		rows = append(rows, row{label: fmt.Sprintf("codd, %d-tuple budget", budget), extra: "UNEXPECTED: fit"})
	}
	bry := core.NewEngine(small, core.WithTupleLimit(budget))
	bres, err := bry.Query(qneg)
	if err != nil {
		log.Fatal(err)
	}
	rows = append(rows, row{label: fmt.Sprintf("bry, %d-tuple budget", budget), stats: bres.Stats,
		extra: fmt.Sprintf("%d rows", bres.Rows.Len())})

	// Graceful degradation: warm the plan cache, then query under a memory
	// budget smaller than the warm entry — the engine sheds it and answers.
	qpos := `{ x | student(x) and exists y: attends(x, y) }`
	mem := core.NewEngine(small, core.WithPlanCache(0))
	if _, err := mem.Query(qpos); err != nil {
		log.Fatal(err)
	}
	mem.Configure(core.WithMemoryBudget(2048))
	mres, err := mem.Query(qpos)
	if err != nil {
		log.Fatal(err)
	}
	rows = append(rows, row{label: "2048-byte budget vs warm cache", stats: mres.Stats,
		extra: fmt.Sprintf("%d rows, cache entries shed=%d", mres.Rows.Len(), mres.Stats.DegradedEvictions)})
	printTable("resource governor, E12 workload + Codd blowup, 3000 students", rows)
}

// e15 pins cross-query memo sharing on deterministic counters (E13 is the
// within-query half): six cold queries of the E13 workload run one after
// another, either each on its own engine — its own memo, so every one pays
// the full evaluation — or all on one engine, where the first evaluates and
// publishes and the other five replay the published root entry without
// touching a base relation. The memo replays only complete results; the
// single flight that collapses identical *concurrent* queries into one
// evaluation is queryd's flight table (internal/service/flight.go).
func e15() {
	cat := dataset.PTU(dataset.PTUParams{N: 4000, TProb: 0.5, UProb: 0.1, ExtraShare: 0.05, Branches: 5, Seed: 13})
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	q := `{ x | P(x) and T(x) and (U(x) or T2(x) or T3(x) or T4(x)) }`
	const n = 6
	newCached := func() *core.Engine {
		return core.NewEngine(db, core.WithDisjunctiveFilters(translate.StrategyUnion), core.WithPlanCache(0))
	}

	ref, err := newCached().Query(q)
	if err != nil {
		log.Fatal(err)
	}

	runInARow := func(label string, engine func() *core.Engine) row {
		var agg exec.Stats
		var res *core.Result
		for i := 0; i < n; i++ {
			if res, err = engine().Query(q); err != nil {
				log.Fatalf("%s run %d: %v", label, i, err)
			}
			agg.Add(res.Stats)
		}
		return row{label: label, stats: agg,
			extra: fmt.Sprintf("%d rows each, hits=%d spooled=%d abandoned=%d",
				res.Rows.Len(), agg.CacheHits, agg.CacheTuplesSpooled, agg.CacheSpoolsAbandoned)}
	}

	one := newCached()
	rows := []row{
		{label: "single cold run (reference)", stats: ref.Stats, extra: fmt.Sprintf("%d rows", ref.Rows.Len())},
		runInARow(fmt.Sprintf("%d in a row, per-query memos (duplicate evaluation)", n), newCached),
		runInARow(fmt.Sprintf("%d in a row, one engine memo", n), func() *core.Engine { return one }),
	}
	printTable("cross-query memo sharing, E13 workload, 6 cold queries in a row", rows)
}

// fillOf derives the average block fill of one stats record (0 when no
// block was emitted).
func fillOf(st exec.Stats) float64 {
	if st.BatchesEmitted == 0 {
		return 0
	}
	return float64(st.BatchTuples) / float64(st.BatchesEmitted)
}

// e16 pins block execution on deterministic counters (wall clock lives in
// go test -bench E16): the E12 workload runs under block capacities
// 1/64/1024 — every logical counter is identical across the three rows,
// only batches_emitted and the fill gauge move, which is the executor's
// correctness contract (capacity 1 is tuple-at-a-time).
func e16() {
	p := dataset.DefaultUniversity(3000)
	p.Lectures = 60
	p.AttendProb = 0.1
	cat := dataset.University(p)
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	q := `{ x, z | member(x, z) and not skill(x, "db") and exists y: cs_lecture(y) and attends(x, y) }`
	var rows []row
	for _, bs := range []int{1, 64, 1024} {
		label := fmt.Sprintf("batch=%d", bs)
		eng := core.NewEngine(db, core.WithBatchSize(bs))
		res, err := eng.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{label: label, stats: res.Stats,
			extra: fmt.Sprintf("%d rows, batches=%d fill=%.1f",
				res.Rows.Len(), res.Stats.BatchesEmitted, fillOf(res.Stats))})
	}
	printTable("batch-size counter parity, E12 workload, 3000 students", rows)
}
