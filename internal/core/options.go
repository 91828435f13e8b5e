package core

import (
	"context"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/translate"
)

// Option configures an Engine at construction (NewEngine) or later
// (Configure). Options replace direct field access: the Engine's tuning
// state is unexported and read through accessors, so every configuration
// path is explicit and validated in one place.
type Option func(*Engine)

// WithStrategy selects the evaluation pipeline (default StrategyBry).
func WithStrategy(s Strategy) Option {
	return func(e *Engine) { e.strategy = s }
}

// WithTranslateOptions replaces the Bry pipeline's translation options
// wholesale (disjunctive-filter strategy, universal handling).
func WithTranslateOptions(o translate.Options) Option {
	return func(e *Engine) { e.topts = o }
}

// WithDisjunctiveFilters selects how the Bry pipeline evaluates
// disjunctive filters (§3.3): constrained outer-joins, plain outer-joins,
// or union splitting.
func WithDisjunctiveFilters(s translate.DisjFilterStrategy) Option {
	return func(e *Engine) { e.topts.DisjunctiveFilters = s }
}

// WithIndexes lets the executor probe persistent catalog indexes instead
// of building per-query hash tables where applicable.
func WithIndexes(use bool) Option {
	return func(e *Engine) { e.useIndexes = use }
}

// WithBatchSize sets the executor's block capacity: how many tuples Run and
// every blocking operator ask their inputs for at a time. Zero or negative —
// the default — selects exec.DefaultBatchSize. Emptiness probes and
// streaming executions are unaffected: they state their own demand of one
// tuple, which streaming operators pass down.
func WithBatchSize(n int) Option {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.batchSize = n
	}
}

// WithPlanCache enables the memoizing subplan cache: PrepareQuery wraps
// repeated subtrees (and plan roots) in Shared references, and executions
// resolve them against an engine-held result memo bounded to budget buffered
// tuples (budget <= 0 selects exec.DefaultMemoBudget). The memo persists
// across Query/Check/Run calls and is flushed automatically whenever any
// base relation mutates. Applying the option again replaces the memo with a
// fresh (cold) one.
func WithPlanCache(budget int) Option {
	return func(e *Engine) { e.memo = exec.NewMemo(budget) }
}

// WithoutPlanCache disables the memoizing subplan cache and drops the memo.
// Queries prepared while the cache was on keep their Shared wrappers, which
// execute transparently once no memo is installed.
func WithoutPlanCache() Option {
	return func(e *Engine) { e.memo = nil }
}

// WithTimeout bounds every execution started through this engine: the
// run is cancelled and returns context.DeadlineExceeded once the duration
// elapses. Zero (the default) means no engine-level bound; per-call bounds
// can still be set on the context passed to the *Context methods.
func WithTimeout(d time.Duration) Option {
	return func(e *Engine) {
		if d < 0 {
			d = 0
		}
		e.timeout = d
	}
}

// WithTupleLimit bounds every execution started through this engine to at
// most n tuples materialized or delivered, accounted across all operators
// of one run. Exceeding the bound aborts the
// query with a *ResourceError. Zero (the default) means unbounded.
func WithTupleLimit(n int64) Option {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.tupleLimit = n
	}
}

// WithMemoryBudget bounds every execution's estimated buffered bytes (join
// build tables, materializations, dedup sets, memo spools, the result). Under pressure the engine first sheds warm plan-cache
// entries (graceful degradation); if the run still does not fit it aborts
// with a *ResourceError. Zero (the default) means unbounded.
func WithMemoryBudget(bytes int64) Option {
	return func(e *Engine) {
		if bytes < 0 {
			bytes = 0
		}
		e.memBudget = bytes
	}
}

// WithFaultPlan installs a deterministic fault-injection plan consulted at
// the executor's registered injection points and at catalog lookups. It
// exists for robustness tests; production engines never install one. A nil
// plan removes it.
func WithFaultPlan(p *faultinject.Plan) Option {
	return func(e *Engine) {
		e.faults = p
		if p == nil {
			e.db.cat.SetFaultHook(nil)
			return
		}
		e.db.cat.SetFaultHook(func(op, name string) error {
			return p.Invoke(faultinject.PointCatalogLookup)
		})
	}
}

// Limits is a per-call resource budget, overriding the engine-level
// WithTupleLimit/WithMemoryBudget wholesale for one execution (zero fields
// mean unbounded for that call, even when the engine has a bound).
type Limits struct {
	Tuples      int64
	MemoryBytes int64
}

type limitsKey struct{}

// WithQueryLimits returns a context carrying a per-call budget override;
// pass it to QueryContext/RunContext/StreamContext/CheckContext.
func WithQueryLimits(ctx context.Context, l Limits) context.Context {
	return context.WithValue(ctx, limitsKey{}, l)
}

// queryLimits extracts a per-call budget override, if present.
func queryLimits(ctx context.Context) (Limits, bool) {
	l, ok := ctx.Value(limitsKey{}).(Limits)
	return l, ok
}

type cacheOnlyKey struct{}

// WithCacheOnly returns a context requesting degraded (cache-only)
// execution for one call: the run is admitted only if its plan root has a
// warm, current-generation entry in the engine's plan-cache memo — a warm
// hit replays at cache cost, while a cold plan is rejected with a typed
// *DegradedError before any base relation is read. The service tier's
// circuit breaker uses it to keep a tenant whose governor trips repeatedly
// partially alive instead of hard-failing every request.
func WithCacheOnly(ctx context.Context) context.Context {
	return context.WithValue(ctx, cacheOnlyKey{}, true)
}

// cacheOnly reports whether ctx requests degraded execution.
func cacheOnly(ctx context.Context) bool {
	on, _ := ctx.Value(cacheOnlyKey{}).(bool)
	return on
}

// Configure applies options to an existing engine (e.g. a REPL switching
// strategies). Prepared queries keep the strategy they were prepared with.
func (e *Engine) Configure(opts ...Option) {
	for _, o := range opts {
		o(e)
	}
}

// Strategy returns the engine's evaluation strategy.
func (e *Engine) Strategy() Strategy { return e.strategy }

// TranslateOptions returns the Bry pipeline's translation options.
func (e *Engine) TranslateOptions() translate.Options { return e.topts }

// UseIndexes reports whether persistent-index probing is enabled.
func (e *Engine) UseIndexes() bool { return e.useIndexes }

// BatchSize returns the executor's effective block capacity.
func (e *Engine) BatchSize() int {
	if e.batchSize == 0 {
		return exec.DefaultBatchSize
	}
	return e.batchSize
}

// Timeout returns the engine-level execution bound (0 = none).
func (e *Engine) Timeout() time.Duration { return e.timeout }

// PlanCacheEnabled reports whether the memoizing subplan cache is on.
func (e *Engine) PlanCacheEnabled() bool { return e.memo != nil }

// TupleLimit returns the engine-level tuple budget (0 = unbounded).
func (e *Engine) TupleLimit() int64 { return e.tupleLimit }

// MemoryBudget returns the engine-level byte budget (0 = unbounded).
func (e *Engine) MemoryBudget() int64 { return e.memBudget }

// FaultPlan returns the installed fault-injection plan (nil in production).
func (e *Engine) FaultPlan() *faultinject.Plan { return e.faults }

// noteRun folds one boundary's counters into the engine's cumulative
// Snapshot state, exactly once per boundary (the callers defer it).
// executed marks real executions — RunContext/StreamContext entries, which
// Snapshot counts in Runs — as opposed to prepare-only boundaries, whose
// counters fold without counting as a run.
func (e *Engine) noteRun(st *exec.Stats, executed bool) {
	e.snapMu.Lock()
	e.cum.Add(*st)
	if executed {
		e.runs++
	}
	e.snapMu.Unlock()
}
