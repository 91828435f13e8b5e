package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
)

// workload is one set of inputs the benchmark runs. prepare is untimed: it
// builds the pool, computes the oracle and, for serve_warm, builds the
// daemon. setup is timed and runs cfg.setups times; the fixed-count warm-up
// pass that follows it is part of the set-up time and doubles as the
// calibration pass of the percentile placement rule.
type workload struct {
	warmupOps int // per caller
	// memoHitRatio is the share of plan-cache-consulting ops the traced run
	// must see answered without a miss; it holds by construction, so another
	// value is a harness bug.
	memoHitRatio float64
	prepare      func(cfg config) (*pool, error)
	setup        func(cfg config, p *pool) (*env, error)
}

// pool is a workload's prepared inputs.
type pool struct {
	queries []*query
	vacuous []string
	queryd  string // path of the built daemon (serve_warm)
}

var workloadOrder = []string{"cold_quantified", "warm_replay", "integrity_churn", "serve_warm"}

var workloads = map[string]*workload{
	"cold_quantified": {
		warmupOps: 1600,
		prepare:   prepareInProcess(coldPool),
		setup:     setupCold,
	},
	"warm_replay": {
		warmupOps:    16000,
		memoHitRatio: 1,
		prepare:      prepareInProcess(warmPool),
		setup:        setupWarm,
	},
	"integrity_churn": {
		warmupOps:    5200,
		memoHitRatio: 2.0 / 3,
		prepare:      prepareChurn,
		setup:        setupChurn,
	},
	"serve_warm": {
		warmupOps: 650,
		prepare:   prepareServe,
		setup:     setupServe,
	},
}

func workloadNames() string { return strings.Join(workloadOrder, ", ") }

// Ranges of the open pool queries, for the vacuity rule.
const (
	rngStudent = `{ x | student(x) }`
	rngProf    = `{ x | prof(x) }`
	rngMember  = `{ x, z | member(x, z) }`
	rngR       = `{ x | exists y: R(x, y) }`
)

// prop4 is the six nesting cases of Proposition 4 on R, S, T, G, with the
// texts of the repository's E-series benchmarks.
var prop4 = []struct{ name, text string }{
	{"case1", `{ x | exists y: R(x, y) and exists z: S(x, y, z) and G(x, y, z) }`},
	{"case2a", `{ x | exists y: R(x, y) and exists z: S(x, y, z) and not G(x, y, z) }`},
	{"case2b", `{ x | exists y: R(x, y) and exists z: T(y, z) and not G(x, y, z) }`},
	{"case3", `{ x | exists y: R(x, y) and not exists z: S(x, y, z) and G(x, y, z) }`},
	{"case4", `{ x | exists y: R(x, y) and not exists z: S(x, y, z) and not G(x, y, z) }`},
	{"case5", `{ x | exists y: R(x, y) and not exists z: T(y, z) and not G(x, y, z) }`},
}

// coldPool is cold_quantified's fixed pool: nine running-example queries
// (∀ by complement-join, closed ∃ and ∀ with early-exit emptiness tests, 2-
// and 3-way disjunctive filters, a negated atom) and the six Prop. 4 cases.
// Every text is its own op class. The weights (30 slots a cycle) put the
// percentiles inside single classes whatever order the mid-cost texts take on
// a given seed: the three cheap filter queries fill 0–40 %, the closed ∀ that
// is alone at its cost 40–57 % (p50), and the slowest text 90–100 % (p95).
func coldPool() []*query {
	qs := []*query{
		{class: "forall_open", rng: rngStudent, text: `{ x | student(x) and forall y: cs_lecture(y) => attends(x, y) }`},
		{class: "forall_true", weight: 5, text: `forall x: student(x) => exists y: attends(x, y)`},
		{class: "forall_false", text: `forall x: student(x) => exists y: cs_lecture(y) and attends(x, y)`},
		{class: "exists_closed", text: `exists x: student(x) and exists y: cs_lecture(y) and attends(x, y)`},
		{class: "miniscope_q1", weight: 3, text: `exists x: student(x) and forall y: cs_lecture(y) => attends(x, y) and not enrolled(x, "cs")`},
		{class: "disj2", weight: 4, rng: rngProf, text: `{ x | prof(x) and (member(x, "cs") or skill(x, "math")) and speaks(x, "french") }`},
		{class: "disj3", weight: 4, rng: rngStudent, text: `{ x | student(x) and (enrolled(x, "cs") or makes(x, "PhD") or speaks(x, "german")) }`},
		{class: "negated_atom", weight: 4, rng: rngMember, text: `{ x, z | member(x, z) and not skill(x, "db") }`},
		{class: "nested_exists", text: `exists x, y: enrolled(x, y) and y != "cs" and makes(x, "PhD") and exists z: cs_lecture(z) and attends(x, z)`},
	}
	for _, c := range prop4 {
		qs = append(qs, &query{class: "prop4_" + c.name, rng: rngR, text: c.text})
	}
	return qs
}

var (
	depts    = []string{"cs", "math", "bio"}
	langs    = []string{"french", "german", "english"}
	degrees  = []string{"PhD", "MSc"}
	topics   = []string{"db", "ai", "math"}
	lectures = []string{"cs000", "math001", "bio002", "cs003", "math004", "bio005"}
)

// universityTemplates instantiates the open running-example queries with
// their constants varied; one op class per template. withDeptLectures adds
// the two templates that quantify over a department's lectures, which are
// non-vacuous only on the tuned in-process database; notCS is the negated
// atom of the language template.
func universityTemplates(withDeptLectures bool, notCS []string) []*query {
	var qs []*query
	add := func(class, rng, format string, args ...any) {
		qs = append(qs, &query{class: class, rng: rng, text: fmt.Sprintf(format, args...)})
	}
	for _, d := range depts {
		if withDeptLectures {
			add("forall_dept", rngStudent, `{ x | student(x) and forall y: lecture(y, %q) => attends(x, y) }`, d)
			add("exists_dept", rngStudent, `{ x | student(x) and makes(x, "PhD") and exists y: lecture(y, %q) and attends(x, y) }`, d)
		}
		for _, t := range topics[1:] {
			for _, l := range langs {
				add("disj2", rngProf, `{ x | prof(x) and (member(x, %q) or skill(x, %q)) and speaks(x, %q) }`, d, t, l)
			}
		}
		for _, g := range degrees {
			for _, l := range langs[:2] {
				add("disj3", rngStudent, `{ x | student(x) and (enrolled(x, %q) or makes(x, %q) or speaks(x, %q)) }`, d, g, l)
			}
		}
	}
	for _, t := range topics {
		add("negated_atom", rngMember, `{ x, z | member(x, z) and not skill(x, %q) }`, t)
	}
	for i, l := range langs {
		for _, not := range notCS {
			add("negated_lang", rngStudent, `{ x | student(x) and (speaks(x, %q) or speaks(x, %q)) and not %s }`, l, langs[(i+1)%len(langs)], not)
		}
	}
	for _, id := range lectures {
		for _, g := range degrees {
			add("lecture", rngStudent, `{ x | student(x) and attends(x, %q) and not makes(x, %q) }`, id, g)
		}
	}
	return qs
}

// setWeight gives every text of a class the same weight in the cycle.
func setWeight(qs []*query, class string, weight int) {
	for _, q := range qs {
		if q.class == class {
			q.weight = weight
		}
	}
}

// warmPool is warm_replay's pool: 60 distinct open texts in eight classes.
// The lecture class (12 texts, a fifth of the 63 slots) sits in the middle of
// the cost order with p50 inside it; negated_atom has the largest answers by
// far, hence the dearest replays, and weight 2 makes it the top tenth of the
// ops, with p95 in its middle.
func warmPool() []*query {
	qs := universityTemplates(true, []string{"cs_student(x)"})
	for _, c := range prop4 {
		qs = append(qs, &query{class: "prop4", rng: rngR, text: c.text})
	}
	setWeight(qs, "negated_atom", 2)
	return qs
}

// prepareInProcess prepares a query-pool workload over the in-process
// database: expected answers, vacuity, and the nested-loop cross-check.
func prepareInProcess(queries func() []*query) func(config) (*pool, error) {
	return func(cfg config) (*pool, error) {
		p := &pool{queries: queries()}
		var err error
		p.vacuous, err = oracleInProcess(cfg, p.queries)
		return p, err
	}
}

// schedule turns a pool into op classes and one cycle — every text as often
// as its weight says — shuffled with the seed. A caller repeats the cycle, so
// every whole cycle has exactly the fixed mix and any long prefix very nearly
// so.
func schedule(queries []*query, seed int64) (classes []string, cycle []*op) {
	index := map[string]int{}
	for _, q := range queries {
		c, ok := index[q.class]
		if !ok {
			c = len(classes)
			index[q.class] = c
			classes = append(classes, q.class)
		}
		o := &op{class: c, text: q.text, want: q.want}
		for k := 0; k < max(q.weight, 1); k++ {
			cycle = append(cycle, o)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return classes, cycle
}

// cycler walks a schedule cycle round and round.
type cycler struct {
	cycle []*op
	i     int
}

func (c *cycler) next() *op {
	o := c.cycle[c.i%len(c.cycle)]
	c.i++
	return o
}

// runQuery is the in-process query op: Engine.QueryContext untraced, the
// layer-by-layer pipeline over the harness-held memo traced.
func runQuery(tr *tracer, db *core.DB, eng *core.Engine, memo *exec.Memo, text string) outcome {
	if tr != nil {
		res, err := tracedQuery(tr, db, memo, text)
		return outcome{res: res, err: err}
	}
	res, err := eng.QueryContext(context.Background(), text)
	return outcome{res: res, err: err}
}

func allTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// queryCaller is the single caller of cold_quantified and warm_replay.
type queryCaller struct {
	cycler
	db   *core.DB
	eng  *core.Engine
	memo *exec.Memo // the traced pipeline's plan cache; nil = cache off
	t    tally
}

func (c *queryCaller) do(o *op, tr *tracer) outcome {
	return runQuery(tr, c.db, c.eng, c.memo, o.text)
}

func (c *queryCaller) check(o *op, out outcome) error {
	if out.err != nil {
		return out.err
	}
	c.t.noteQuery(out.res.Stats)
	if got := answerOf(out.res); got != o.want {
		return fmt.Errorf("answer %v differs from the oracle's %v: %s", got, o.want, o.text)
	}
	return nil
}

func (c *queryCaller) tally() *tally { return &c.t }

// setupQueries is the timed set-up of the two query-pool workloads:
// generate, load, start the engine. cached selects the plan cache.
func setupQueries(cfg config, p *pool, cached bool) (*env, error) {
	t0 := time.Now()
	db, err := buildDB(cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	load := time.Since(t0).Seconds()
	c := &queryCaller{db: db}
	if cached {
		c.eng = core.NewEngine(db, core.WithPlanCache(0))
		c.memo = exec.NewMemo(0)
	} else {
		c.eng = core.NewEngine(db, core.WithoutPlanCache())
	}
	var classes []string
	classes, c.cycle = schedule(p.queries, cfg.seed)
	return &env{
		classes:  classes,
		pipeline: allTrue(len(classes)),
		callers:  []caller{c},
		cycleLen: len(c.cycle),
		loadS:    load,
		gauges: func() (core.Snapshot, int64) {
			return c.eng.Snapshot(), db.Catalog().Generation()
		},
		close: func() error { return nil },
	}, nil
}

func setupCold(cfg config, p *pool) (*env, error) { return setupQueries(cfg, p, false) }
func setupWarm(cfg config, p *pool) (*env, error) { return setupQueries(cfg, p, true) }
