// Package core is the library facade: it wires the parser, the
// normalization engine (Phase 1), the translators (Phase 2), and the
// executors into a single query-processing pipeline.
//
// Typical use:
//
//	db := core.NewDB()
//	students := db.MustDefine("student", "name")
//	students.InsertValues(relation.Str("ann"))
//	eng := core.NewEngine(db)
//	res, err := eng.Query(`{ x | student(x) }`)
//
// The Engine supports three evaluation strategies, matching the systems the
// paper compares:
//
//   - StrategyBry — canonical form + the improved algebraic translation
//     (complement-joins, constrained outer-joins, emptiness tests);
//   - StrategyCodd — the classical reduction baseline (prenex form,
//     cartesian products of the domain, divisions);
//   - StrategyLoop — the Fig. 1 nested-loop pipelined interpreter.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/loopeval"
	"repro/internal/parser"
	"repro/internal/planopt"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/views"
)

// DB owns a catalog of base relations and a registry of views.
type DB struct {
	cat   *storage.Catalog
	views *views.Registry
}

// NewDB creates an empty database.
func NewDB() *DB { return &DB{cat: storage.NewCatalog(), views: views.NewRegistry()} }

// Catalog exposes the underlying catalog.
func (db *DB) Catalog() *storage.Catalog { return db.cat }

// Views exposes the view registry.
func (db *DB) Views() *views.Registry { return db.views }

// DefineView registers a named view from an open-query definition, e.g.
// db.DefineView("cs_member", `{ x | member(x, "cs") }`). View atoms in
// queries expand inline before normalization (Definition 1 allows views
// wherever relations appear).
func (db *DB) DefineView(name, definition string) error {
	if db.cat.Has(name) {
		return &PlanError{Stage: "views", Err: fmt.Errorf("core: %q is already a base relation", name)}
	}
	_, err := db.views.Define(name, definition)
	return err
}

// Define registers a new base relation with the given column names.
func (db *DB) Define(name string, columns ...string) (*relation.Relation, error) {
	return db.cat.Define(name, relation.NewSchema(columns...))
}

// MustDefine is Define for static setup; it panics on duplicates.
func (db *DB) MustDefine(name string, columns ...string) *relation.Relation {
	return db.cat.MustDefine(name, relation.NewSchema(columns...))
}

// Strategy selects the evaluation pipeline.
type Strategy int

// Evaluation strategies.
const (
	// StrategyBry is the paper's method (the default).
	StrategyBry Strategy = iota
	// StrategyCodd is the classical reduction baseline.
	StrategyCodd
	// StrategyCoddImproved is the [PAL 72]-style refinement of the
	// classical baseline: per-variable ranges instead of the full domain
	// for existential and free variables.
	StrategyCoddImproved
	// StrategyLoop is the Fig. 1 nested-loop interpreter.
	StrategyLoop
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyBry:
		return "bry"
	case StrategyCodd:
		return "codd"
	case StrategyCoddImproved:
		return "codd-improved"
	case StrategyLoop:
		return "loop"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Engine evaluates queries against a DB under a chosen strategy. Its
// tuning state is set through functional options (NewEngine, Configure)
// and read through accessors (options.go); executions are bounded and
// cancelled through the *Context method variants or WithTimeout.
type Engine struct {
	db         *DB
	strategy   Strategy
	topts      translate.Options
	useIndexes bool
	// batchSize is the executor's block capacity (WithBatchSize); 0 selects
	// exec.DefaultBatchSize.
	batchSize int
	timeout   time.Duration
	// memo is the plan-cache result memo (WithPlanCache); nil disables
	// caching. It persists across Query/Check/Run calls, so repeated
	// queries — the integrity-check workload — replay warm entries.
	memo *exec.Memo
	// tupleLimit/memBudget are the engine-level resource budgets
	// (WithTupleLimit, WithMemoryBudget); 0 = unbounded. Per-call overrides
	// arrive through WithQueryLimits on the context.
	tupleLimit int64
	memBudget  int64
	// faults is the fault-injection plan (WithFaultPlan); nil in production.
	faults *faultinject.Plan
	// Cumulative observability state behind Snapshot(): every isolation
	// boundary folds its run's exec.Stats into cum exactly once (noteRun),
	// and runs counts the executions among those folds. Mutex-guarded — the
	// fold happens per run, not per tuple, and one engine may execute
	// concurrently from several goroutines.
	snapMu sync.Mutex
	cum    exec.Stats
	runs   int64
}

// NewEngine builds an engine with the default (Bry) strategy, then applies
// the options: e.g. NewEngine(db, WithStrategy(StrategyCodd),
// WithIndexes(true), WithTimeout(time.Second)).
func NewEngine(db *DB, opts ...Option) *Engine {
	e := &Engine{db: db}
	e.Configure(opts...)
	return e
}

// Result is the outcome of one query evaluation.
type Result struct {
	// Open reports whether the query returned rows (vs a truth value).
	Open bool
	// Rows holds the answer relation of an open query.
	Rows *relation.Relation
	// Truth holds the answer of a closed (yes/no) query.
	Truth bool
	// Stats are the execution cost counters.
	Stats exec.Stats
	// Canonical is the normalized form of the query.
	Canonical string
}

// Prepared is a parsed, normalized and translated query, reusable across
// executions.
type Prepared struct {
	Source    parser.Query
	Canonical parser.Query
	Plan      algebra.Plan     // open queries (Bry/Codd)
	BoolPlan  algebra.BoolPlan // closed queries (Bry/Codd)
	strategy  Strategy
}

// Explain renders the plan of a prepared query.
func (p *Prepared) Explain() string {
	switch {
	case p.Plan != nil:
		return algebra.Explain(p.Plan)
	case p.BoolPlan != nil:
		return algebra.ExplainBool(p.BoolPlan)
	default:
		return "nested-loop interpretation of " + p.Canonical.String() + "\n"
	}
}

// Prepare parses, validates, normalizes and translates a query. Failures
// are classified: *ParseError for syntax, *SafetyError for Definition 1–3
// range-restriction rejections, *PlanError for everything downstream.
func (e *Engine) Prepare(input string) (*Prepared, error) {
	q, err := parser.Parse(input)
	if err != nil {
		return nil, &ParseError{Input: input, Err: err}
	}
	return e.PrepareQuery(q)
}

// runGuarded runs fn inside an isolation boundary: a panic anywhere below —
// an iterator, a translator — is recovered, counted on st, and returned as a typed
// *ExecError instead of killing the process. Organic errors are classified
// (classifyExec) on the way out.
func (e *Engine) runGuarded(st *exec.Stats, stage, plan string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			st.PanicsRecovered++
			err = &ExecError{Stage: stage, Plan: plan, Err: exec.CapturePanic(r, stage)}
		}
	}()
	return classifyExec(stage, plan, fn())
}

// PrepareQuery is Prepare for an already-parsed query.
func (e *Engine) PrepareQuery(q parser.Query) (*Prepared, error) {
	var st exec.Stats
	defer e.noteRun(&st, false)
	var p *Prepared
	err := e.runGuarded(&st, "prepare", q.String(), func() (err error) {
		p, err = e.prepareQuery(q)
		return err
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// prepareQuery is PrepareQuery's body, run inside the isolation boundary.
func (e *Engine) prepareQuery(q parser.Query) (*Prepared, error) {
	q, err := e.db.views.Expand(q)
	if err != nil {
		return nil, &PlanError{Stage: "views", Err: err}
	}
	nq, err := rewrite.Normalize(q)
	if err != nil {
		return nil, classifyNormalize(q.String(), err)
	}
	p := &Prepared{Source: q, Canonical: nq, strategy: e.strategy}
	switch e.strategy {
	case StrategyBry:
		tr := translate.NewBryWithOptions(e.db.cat, e.topts)
		p.Plan, p.BoolPlan, err = tr.Translate(nq)
	case StrategyCodd:
		tr := translate.NewCodd(e.db.cat)
		p.Plan, p.BoolPlan, err = tr.Translate(nq)
	case StrategyCoddImproved:
		tr := translate.NewCoddImproved(e.db.cat)
		p.Plan, p.BoolPlan, err = tr.Translate(nq)
	case StrategyLoop:
		// Interpretation happens at Run time; nothing to translate.
	default:
		err = fmt.Errorf("core: unknown strategy %v", e.strategy)
	}
	if err != nil {
		return nil, &PlanError{Stage: "translate", Err: err}
	}
	// Defense in depth: a malformed plan is a translator bug; report it at
	// preparation time rather than as an index panic during execution.
	if p.Plan != nil {
		if err := algebra.Validate(p.Plan); err != nil {
			return nil, &PlanError{Stage: "validate", Err: fmt.Errorf("core: internal planner error: %w", err)}
		}
	}
	if p.BoolPlan != nil {
		if err := algebra.ValidateBool(p.BoolPlan); err != nil {
			return nil, &PlanError{Stage: "validate", Err: fmt.Errorf("core: internal planner error: %w", err)}
		}
	}
	// With the plan cache on, run the share pass: repeated subtrees (and the
	// plan root, for cross-call reuse) become Shared references the executor
	// resolves against the engine memo. Without a memo the pass is skipped
	// entirely, keeping cache-off plans byte-identical to before.
	if e.memo != nil {
		if p.Plan != nil {
			p.Plan = planopt.Share(p.Plan)
		}
		if p.BoolPlan != nil {
			p.BoolPlan = planopt.ShareBool(p.BoolPlan)
		}
	}
	return p, nil
}

// execContext builds the execution context for one run: engine tuning
// (indexes, block capacity, memo) plus cancellation wiring. An engine-level timeout
// (WithTimeout) layers a deadline over the caller's context; the returned
// cancel func must be called when the run finishes.
func (e *Engine) execContext(goCtx context.Context) (*exec.Context, context.CancelFunc) {
	ctx := exec.NewContext(e.db.cat)
	ctx.UseIndexes = e.useIndexes
	ctx.BatchSize = e.batchSize
	ctx.Memo = e.memo
	tl, mb := e.tupleLimit, e.memBudget
	if l, ok := queryLimits(goCtx); ok {
		tl, mb = l.Tuples, l.MemoryBytes
	}
	if tl > 0 || mb > 0 {
		gov := exec.NewGovernor(tl, mb)
		if e.memo != nil {
			gov.AttachMemo(e.memo)
		}
		ctx.Gov = gov
	}
	ctx.Faults = e.faults
	// With a governor or fault plan installed, tighten the poll interval so
	// abort latency is bounded in tuples, not just "eventually".
	if ctx.Gov != nil || ctx.Faults != nil {
		ctx.CheckInterval = exec.GovernedCheckInterval
	}
	cancel := context.CancelFunc(func() {})
	if e.timeout > 0 {
		goCtx, cancel = context.WithTimeout(goCtx, e.timeout)
	}
	ctx.AttachContext(goCtx)
	return ctx, cancel
}

// Run executes a prepared query without a cancellation bound (beyond an
// engine-level WithTimeout). It is a convenience shim over RunContext
// (convenienceShims in shims.go).
func (e *Engine) Run(p *Prepared) (*Result, error) {
	return e.RunContext(noCancel(), p)
}

// RunContext executes a prepared query under the given context: once it is
// cancelled or its deadline passes, the run aborts within a bounded number
// of tuples and returns the context's error. The loop-interpreter strategy
// checks the context only between top-level phases.
func (e *Engine) RunContext(goCtx context.Context, p *Prepared) (*Result, error) {
	res := &Result{Open: p.Source.IsOpen(), Canonical: p.Canonical.String()}
	if cacheOnly(goCtx) {
		if err := e.admitCacheOnly(p, res.Canonical); err != nil {
			return nil, err
		}
	}
	if p.strategy == StrategyLoop {
		var st exec.Stats
		defer e.noteRun(&st, true)
		err := e.runGuarded(&st, "run", res.Canonical, func() error {
			if err := goCtx.Err(); err != nil {
				return err
			}
			ev := loopeval.New(e.db.cat)
			if p.Source.IsOpen() {
				rows, err := ev.EvalOpen(p.Canonical)
				if err != nil {
					return err
				}
				res.Rows = rows
			} else {
				ok, err := ev.EvalClosed(p.Canonical.Body, loopeval.Env{})
				if err != nil {
					return err
				}
				res.Truth = ok
			}
			res.Stats = *ev.Stats
			return nil
		})
		if err != nil {
			return nil, err
		}
		return res, nil
	}

	ctx, cancel := e.execContext(goCtx)
	defer cancel()
	defer func() { e.noteRun(ctx.Stats, true) }()
	err := e.runGuarded(ctx.Stats, "run", res.Canonical, func() error {
		if p.Plan != nil {
			rows, err := exec.Run(ctx, p.Plan)
			if err != nil {
				return err
			}
			// The plan's schema names the columns after the base relations
			// they were read from; an answer is headed by the query's
			// variables, as the loop interpreter's is.
			rows.Relabel(p.Canonical.OpenVars...)
			res.Rows = rows
			return nil
		}
		ok, err := exec.EvalBool(ctx, p.BoolPlan)
		if err != nil {
			return err
		}
		res.Truth = ok
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = *ctx.Stats
	return res, nil
}

// admitCacheOnly is the degraded-mode (WithCacheOnly) admission gate: a run
// passes only when every memoized root its plan needs — the Shared plan root
// of an open query, every emptiness-probe input of a closed one — has a
// complete, current-generation entry in the plan-cache memo, so the run
// replays at cache cost instead of evaluating cold. The check is advisory
// (an entry can be evicted before the run reads it, in which case the run
// falls back to a cold evaluation), but a rejection is reliable: nothing
// warm exists, so the caller gets a typed *DegradedError without a single
// base-relation read.
func (e *Engine) admitCacheOnly(p *Prepared, canonical string) error {
	if e.memo != nil && p.strategy != StrategyLoop {
		gen := e.db.cat.Generation()
		switch {
		case p.Plan != nil:
			if sh, ok := p.Plan.(*algebra.Shared); ok && e.memo.HasComplete(gen, sh.FP, algebra.Canonical(sh.Input)) {
				return nil
			}
		case p.BoolPlan != nil:
			if warmBool(e.memo, gen, p.BoolPlan) {
				return nil
			}
		}
	}
	return &DegradedError{
		Plan: canonical,
		Err:  fmt.Errorf("core: degraded mode admits only plan-cache warm hits; %q would evaluate cold", canonical),
	}
}

// warmBool reports whether every relational input of a boolean plan is a
// Shared subtree with a complete memo entry under gen.
func warmBool(memo *exec.Memo, gen int64, bp algebra.BoolPlan) bool {
	for _, in := range bp.PlanChildren() {
		sh, ok := in.(*algebra.Shared)
		if !ok || !memo.HasComplete(gen, sh.FP, algebra.Canonical(sh.Input)) {
			return false
		}
	}
	for _, c := range bp.BoolChildren() {
		if !warmBool(memo, gen, c) {
			return false
		}
	}
	return true
}

// Stream executes a prepared OPEN query, delivering result tuples to
// visit as they are produced; visit returns false to stop early (the
// executor's pipelining makes the early stop effective — downstream work
// for unrequested tuples is never done). It returns the stats of the
// partial execution.
func (e *Engine) Stream(p *Prepared, visit func(relation.Tuple) bool) (exec.Stats, error) {
	return e.StreamContext(noCancel(), p, visit)
}

// StreamContext is Stream under a context: cancellation aborts the
// pipeline within a bounded number of tuples and returns the context's
// error with the stats of the partial execution.
func (e *Engine) StreamContext(goCtx context.Context, p *Prepared, visit func(relation.Tuple) bool) (exec.Stats, error) {
	if !p.Source.IsOpen() {
		return exec.Stats{}, &PlanError{Stage: "stream", Err: fmt.Errorf("core: Stream needs an open query")}
	}
	if p.strategy == StrategyLoop || p.Plan == nil {
		// The loop interpreter has its own control flow; materialize.
		res, err := e.RunContext(goCtx, p)
		if err != nil {
			return exec.Stats{}, err
		}
		for _, t := range res.Rows.Tuples() {
			if !visit(t) {
				break
			}
		}
		return res.Stats, nil
	}
	ctx, cancel := e.execContext(goCtx)
	defer cancel()
	defer func() { e.noteRun(ctx.Stats, true) }()
	err := e.runGuarded(ctx.Stats, "stream", p.Canonical.String(), func() error {
		it, err := exec.Build(ctx, p.Plan)
		if err != nil {
			return err
		}
		it.Open()
		defer it.Close()
		seen := make(map[string]struct{})
		for {
			// Demand 1 per visited tuple: an early stop leaves unrequested
			// tuples unread.
			b, ok := it.NextBatch(1)
			if !ok {
				break
			}
			t := b.Tuples[0]
			// Preserve the set semantics of materialized results. The dedup
			// set buffers one key per distinct tuple, so it is charged like
			// any other materialization point (found by govcharge: the one
			// per-tuple buffer the governor could not see).
			k := t.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			if !ctx.ChargeTuple("stream-dedup", t) {
				break
			}
			seen[k] = struct{}{}
			ctx.Stats.OutputTuples++
			if !visit(t) {
				break
			}
		}
		return ctx.CancelErr()
	})
	return *ctx.Stats, err
}

// Query prepares and runs a query in one step. It is a convenience shim
// over QueryContext (convenienceShims in shims.go).
func (e *Engine) Query(input string) (*Result, error) {
	return e.QueryContext(noCancel(), input)
}

// QueryContext prepares and runs a query in one step under a context.
func (e *Engine) QueryContext(goCtx context.Context, input string) (*Result, error) {
	p, err := e.Prepare(input)
	if err != nil {
		return nil, err
	}
	return e.RunContext(goCtx, p)
}

// Check evaluates a closed formula used as an integrity constraint; it
// reports whether the database satisfies it. This is the paper's motivating
// application (handling general integrity constraints).
func (e *Engine) Check(constraint string) (bool, error) {
	return e.CheckContext(noCancel(), constraint)
}

// CheckContext is Check under a context.
func (e *Engine) CheckContext(goCtx context.Context, constraint string) (bool, error) {
	res, err := e.QueryContext(goCtx, constraint)
	if err != nil {
		return false, err
	}
	if res.Open {
		return false, &PlanError{Stage: "check", Err: fmt.Errorf("core: integrity constraints must be closed formulas")}
	}
	return res.Truth, nil
}

// ExplainCost returns the canonical form and the plan annotated with the
// cost model's estimated rows and cost per node (closed queries estimate
// the whole boolean plan).
func (e *Engine) ExplainCost(input string) (string, error) {
	p, err := e.Prepare(input)
	if err != nil {
		return "", err
	}
	m := cost.New(e.db.cat)
	m.SetBatchSize(e.BatchSize())
	out := "canonical: " + p.Canonical.String() + "\n"
	if p.Plan != nil {
		annotated, err := m.Explain(p.Plan)
		if err != nil {
			return "", err
		}
		return out + annotated, nil
	}
	if p.BoolPlan != nil {
		est, err := m.EstimateBool(p.BoolPlan)
		if err != nil {
			return "", err
		}
		return out + fmt.Sprintf("boolean plan, estimated cost≈%.0f\n", est.Cost) + p.Explain(), nil
	}
	return out + p.Explain(), nil
}

// Explain returns the canonical form and the plan of a query without
// executing it.
func (e *Engine) Explain(input string) (string, error) {
	p, err := e.Prepare(input)
	if err != nil {
		return "", err
	}
	return "canonical: " + p.Canonical.String() + "\n" + p.Explain(), nil
}
