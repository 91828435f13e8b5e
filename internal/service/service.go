// Package service is the multi-tenant query service tier: it fronts many
// per-tenant core.Engines over one shared DB behind a stdlib net/http API,
// so the engine's paper-grade counters become measurable under real
// concurrent traffic.
//
// The request path stacks six mechanisms:
//
//  1. Admission — an API key resolves to a tenant whose engine carries
//     governor budgets (WithTupleLimit/WithMemoryBudget); a budget trip
//     surfaces as a typed *core.ResourceError the HTTP layer maps to 429.
//     In front of everything sits an optional per-tenant token bucket
//     (ratelimit.go): a tenant over its configured rate is shed at
//     submission, before its requests occupy any queue space. On top of the
//     budgets sits a CoDel-style overload controller (admission.go), one
//     instance per tenant: when a tenant's queue is persistently
//     backlogged, its requests whose sojourn exceeds the target are shed
//     with a typed 503 carrying Retry-After advice — and only that
//     tenant's.
//  2. Deadlines — every request runs under a deadline budget: the
//     operator's Config.DefaultDeadline unless the caller's context (or the
//     X-Deadline-Ms header over HTTP) already carries one. The deadline
//     propagates into the engine context, so a blown budget cancels the
//     evaluation itself, not just the response.
//  3. Batching and fair scheduling — requests flow through per-tenant FIFO
//     queues drained by a deficit-round-robin scheduler (fairsched.go) into
//     single-tenant, size-bounded batches; a batch groups identical query
//     texts so a burst pays the planner once per distinct query. Dispatch
//     is slot-gated under a bounded pool (Config.MaxConcurrent): the
//     scheduler decides who gets each slot, so under overload tenants
//     receive capacity in proportion to their weights, a flooding tenant
//     lengthens only its own queue, and overload stays observable as queue
//     sojourn instead of unbounded goroutines.
//  4. Circuit breakers — each tenant carries a breaker (breaker.go):
//     consecutive engine failures open it (fast typed 503 until a half-open
//     probe re-closes it), and repeated governor trips put the tenant in
//     degraded cache-only mode, where plan-cache warm hits still succeed.
//  5. Request-level single-flight — a flight table keyed by (tenant,
//     canonical fingerprint, catalog generation) elects one producer per
//     concurrent identical query and shares its result with every waiter,
//     the memo's election protocol lifted from subplans to requests.
//  6. Observability — every request leaves a flat timing record (queue,
//     plan, exec, flight role, rows, status), and /stats serves those
//     records next to each tenant engine's unified core.Snapshot and each
//     tenant's breaker state.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// Service-level sentinel errors, surfaced by Execute and mapped to HTTP
// statuses by the handler (401 and 503 respectively).
var (
	// ErrUnknownTenant reports an API key no tenant owns.
	ErrUnknownTenant = errors.New("service: unknown API key")
	// ErrShuttingDown reports a request submitted after Shutdown began.
	ErrShuttingDown = errors.New("service: shutting down")
)

// Defaults for Config zero values.
const (
	DefaultBatchSize    = 16
	DefaultBatchMaxWait = 2 * time.Millisecond
	DefaultQueueDepth   = 256
	DefaultRecent       = 256
	// DefaultMaxConcurrent bounds concurrently executing batches. Bounded
	// execution is load-bearing for overload resilience: it is what turns
	// "too much traffic" into measurable queue sojourn the admission
	// controller can act on, instead of an unbounded goroutine pile.
	DefaultMaxConcurrent = 8
)

// Config configures a Server.
type Config struct {
	// Tenants declares the tenant registry; at least one is required.
	Tenants []TenantConfig
	// BatchSize flushes a batch when it holds this many requests
	// (DefaultBatchSize when 0).
	BatchSize int
	// BatchMaxWait flushes a non-empty batch after its oldest request has
	// waited this long (DefaultBatchMaxWait when 0).
	BatchMaxWait time.Duration
	// QueueDepth is the submission channel's buffer (DefaultQueueDepth
	// when 0): the burst the server absorbs without blocking submitters.
	QueueDepth int
	// Recent bounds the ring of per-request records /stats serves
	// (DefaultRecent when 0; negative keeps no records).
	Recent int
	// EngineOptions are base options applied to every tenant engine before
	// the tenant's budgets and extras — e.g. core.WithIndexes,
	// core.WithPlanCache.
	EngineOptions []core.Option

	// MaxConcurrent bounds concurrently executing batches
	// (DefaultMaxConcurrent when 0).
	MaxConcurrent int
	// DefaultDeadline is the server-side deadline budget applied to every
	// request whose context carries none. 0 means no server-side deadline
	// (callers may still set their own).
	DefaultDeadline time.Duration
	// ShedTarget/ShedInterval tune the CoDel admission controller
	// (DefaultShedTarget/DefaultShedInterval when 0). A negative value for
	// either disables shedding entirely.
	ShedTarget   time.Duration
	ShedInterval time.Duration
	// BreakerFailures opens a tenant's circuit breaker after this many
	// consecutive engine failures (DefaultBreakerFailures when 0); negative
	// disables the breakers entirely.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker rejects before admitting
	// a half-open probe (DefaultBreakerCooldown when 0).
	BreakerCooldown time.Duration
	// DegradeTrips enters degraded cache-only mode after this many
	// consecutive governor trips (DefaultDegradeTrips when 0); negative
	// disables degraded mode.
	DegradeTrips int
	// DegradeWindow is how long degraded mode lasts (DefaultDegradeWindow
	// when 0).
	DegradeWindow time.Duration
	// Faults is an optional deterministic fault-injection plan consulted at
	// the service-level points (faultinject.ServicePoints). It exists for
	// resilience tests and the queryload harness; production servers never
	// install one.
	Faults *faultinject.Plan
}

// request is one query travelling through the pipeline.
type request struct {
	ctx      context.Context
	tenant   *tenant
	query    string
	enqueued time.Time
	// deadlineMS is the request's remaining deadline budget at admission,
	// in milliseconds (0 when the request runs unbounded).
	deadlineMS int64
	resp       chan *Outcome // buffered: the pipeline never blocks on delivery
}

// Outcome is the service-level result of one request: the engine result
// (nil on failure), the classified error (nil on success), and the flat
// record the metrics layer kept.
type Outcome struct {
	Result *core.Result
	Err    error
	Record Record
}

// Server is the multi-tenant query service.
type Server struct {
	db      *core.DB
	reg     *registry
	flights *flightTable
	batch   *batcher
	metrics *metrics

	// admits holds one CoDel overload controller per tenant name (nil when
	// shedding is disabled), so one tenant's standing queue sheds only that
	// tenant; shedTarget/shedInterval are the resolved tuning, kept for
	// queue-full retry advice even when dequeue shedding is off.
	admits       map[string]*codel
	shedTarget   time.Duration
	shedInterval time.Duration
	// buckets holds one token bucket per rate-limited tenant name (absent =
	// unbounded). Immutable after NewServer.
	buckets map[string]*tokenBucket
	// slots bounds concurrently executing batches.
	slots chan struct{}
	// deadline is the server-side default deadline budget (0 = none).
	deadline time.Duration
	// breakers holds one circuit breaker per tenant name (nil when
	// breakers are disabled). The map is immutable after NewServer.
	breakers map[string]*breaker
	// faults is the optional service-level fault plan (nil in production).
	faults *faultinject.Plan

	// closeMu orders submissions against Shutdown: submit holds the read
	// side across the closing check and the channel send, so once Shutdown
	// holds the write side, no request can slip into the batcher unseen by
	// the drain.
	closeMu sync.RWMutex
	closing bool
}

// NewServer builds the service over db: one engine per tenant, the flight
// table, the batcher, and the metrics layer.
func NewServer(db *core.DB, cfg Config) (*Server, error) {
	reg, err := newRegistry(db, cfg.EngineOptions, cfg.Tenants)
	if err != nil {
		return nil, err
	}
	size := cfg.BatchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	maxWait := cfg.BatchMaxWait
	if maxWait <= 0 {
		maxWait = DefaultBatchMaxWait
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	recent := cfg.Recent
	if recent == 0 {
		recent = DefaultRecent
	}
	if recent < 0 {
		recent = 0
	}
	maxConc := cfg.MaxConcurrent
	if maxConc <= 0 {
		maxConc = DefaultMaxConcurrent
	}
	target := cfg.ShedTarget
	if target == 0 {
		target = DefaultShedTarget
	}
	interval := cfg.ShedInterval
	if interval == 0 {
		interval = DefaultShedInterval
	}
	shedding := target > 0 && interval > 0
	if target < 0 {
		target = DefaultShedTarget
	}
	if interval < 0 {
		interval = DefaultShedInterval
	}
	deadline := cfg.DefaultDeadline
	if deadline < 0 {
		deadline = 0
	}
	s := &Server{
		db:           db,
		reg:          reg,
		flights:      newFlightTable(),
		metrics:      newMetrics(recent),
		shedTarget:   target,
		shedInterval: interval,
		slots:        make(chan struct{}, maxConc),
		deadline:     deadline,
		faults:       cfg.Faults,
	}
	if shedding {
		s.admits = make(map[string]*codel, len(reg.names))
		for _, name := range reg.names {
			s.admits[name] = newCodel(target, interval)
		}
	}
	weights := make(map[string]int, len(reg.names))
	for _, name := range reg.names {
		tc := reg.byName[name].cfg
		if tc.Weight > 1 {
			weights[name] = tc.Weight
		}
		if tc.RatePerSec > 0 {
			if s.buckets == nil {
				s.buckets = make(map[string]*tokenBucket)
			}
			s.buckets[name] = newTokenBucket(tc.RatePerSec)
		}
	}
	if cfg.BreakerFailures >= 0 {
		bcfg := breakerConfig{
			failThreshold: cfg.BreakerFailures,
			cooldown:      cfg.BreakerCooldown,
			tripThreshold: cfg.DegradeTrips,
			degradeWindow: cfg.DegradeWindow,
		}
		if bcfg.failThreshold == 0 {
			bcfg.failThreshold = DefaultBreakerFailures
		}
		if bcfg.cooldown <= 0 {
			bcfg.cooldown = DefaultBreakerCooldown
		}
		if bcfg.tripThreshold == 0 {
			bcfg.tripThreshold = DefaultDegradeTrips
		}
		if bcfg.degradeWindow <= 0 {
			bcfg.degradeWindow = DefaultDegradeWindow
		}
		s.breakers = make(map[string]*breaker, len(reg.names))
		for _, name := range reg.names {
			s.breakers[name] = newBreaker(bcfg)
		}
	}
	s.batch = newBatcher(batcherConfig{
		size:    size,
		depth:   depth,
		maxWait: maxWait,
		slots:   s.slots,
		weights: weights,
		shed:    s.shedPending,
		run:     s.processBatch,
	})
	return s, nil
}

// shedPending rejects a request whose tenant's pending queue is at its cap:
// the per-tenant counterpart of the submit-side entry shed. Called by the
// batcher's collector, so the request was already accepted into the channel
// and its caller is waiting — answer it through finish like any other.
func (s *Server) shedPending(r *request) {
	err := queueFullError(s.shedTarget, s.shedInterval)
	s.finish(r, time.Now(), nil, err, Record{Tenant: r.tenant.cfg.Name})
}

// invokePoint consults the service-level fault plan at point, converting an
// injected panic into an error: a service fault must degrade the request,
// never kill a server goroutine.
func (s *Server) invokePoint(point string) (err error) {
	if s.faults == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: injected panic at %s: %v", point, r)
		}
	}()
	return s.faults.Invoke(point)
}

// Execute runs one query for the tenant owning apiKey, riding the batcher
// and the flight table. It returns the outcome (which carries the per-
// request record) and the classified error; submission-level failures
// (unknown key, shutdown, caller cancellation while queued) return a nil
// outcome.
func (s *Server) Execute(ctx context.Context, apiKey, query string) (*Outcome, error) {
	ten, ok := s.reg.lookup(apiKey)
	if !ok {
		s.metrics.noteAuthFailure()
		return nil, ErrUnknownTenant
	}
	if err := s.invokePoint(faultinject.PointServiceAdmission); err != nil {
		return nil, &core.ExecError{Stage: "service.admission", Err: err}
	}
	// Deadline budget: respect a caller-supplied deadline, otherwise apply
	// the server default so no request runs unbounded. The derived context
	// propagates into the engine, so a blown budget cancels the evaluation.
	if _, has := ctx.Deadline(); !has && s.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.deadline)
		defer cancel()
	}
	r := &request{ctx: ctx, tenant: ten, query: query, enqueued: time.Now(), resp: make(chan *Outcome, 1)}
	if dl, ok := ctx.Deadline(); ok {
		r.deadlineMS = time.Until(dl).Milliseconds()
	}
	if err := s.submit(r); err != nil {
		return nil, err
	}
	select {
	case out := <-r.resp:
		return out, out.Err
	case <-ctx.Done():
		// The pipeline will still answer into the buffered channel; nothing
		// blocks on this caller again.
		return nil, ctx.Err()
	}
}

// submit hands a request to the batcher unless the server is closing. Two
// sheds can happen before the queue: the tenant's token bucket (the cheapest
// rejection — the request never existed as far as the scheduler knows), and
// a full submission channel when shedding is enabled — blocking the
// submitter would hide the overload from both the client and the
// controller. Per-tenant pending caps shed a third way, from the batcher's
// collector (shedPending), so one tenant filling its queue cannot trigger
// entry sheds for the others.
func (s *Server) submit(r *request) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closing {
		return ErrShuttingDown
	}
	if tb := s.buckets[r.tenant.cfg.Name]; tb != nil {
		if ok, wait := tb.take(time.Now()); !ok {
			return s.noteEntryShed(r, rateLimitError(r.tenant.cfg.Name, wait))
		}
	}
	if s.admits == nil {
		s.batch.in <- r
		return nil
	}
	select {
	case s.batch.in <- r:
		return nil
	default:
	}
	return s.noteEntryShed(r, queueFullError(s.shedTarget, s.shedInterval))
}

// noteEntryShed records a submission-time shed (the request never queued)
// and returns its error for the caller to propagate.
func (s *Server) noteEntryShed(r *request, err *ShedError) error {
	rec := Record{Tenant: r.tenant.cfg.Name, DeadlineMS: r.deadlineMS, Status: statusOf(err), Err: err.Error()}
	s.metrics.note(rec, err)
	return err
}

// Shutdown drains the service: new submissions are rejected with
// ErrShuttingDown, everything already accepted is answered, and the batcher
// stops. It returns ctx's error if the drain outlives the deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeMu.Lock()
	already := s.closing
	s.closing = true
	s.closeMu.Unlock()
	if !already {
		go s.batch.close()
	}
	select {
	case <-s.batch.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// StatsReport is the /stats payload: service-level counters, per-tenant
// request counters (the fairness ledger), one unified core.Snapshot and one
// circuit-breaker status per tenant, and the recent per-request records.
type StatsReport struct {
	Service   ServiceCounters           `json:"service"`
	PerTenant map[string]TenantCounters `json:"per_tenant"`
	Tenants   map[string]core.Snapshot  `json:"tenants"`
	Breakers  map[string]BreakerStatus  `json:"breakers,omitempty"`
	Recent    []Record                  `json:"recent"`
}

// Stats assembles the current report.
func (s *Server) Stats() StatsReport {
	tenants := make(map[string]core.Snapshot, len(s.reg.names))
	for _, name := range s.reg.names {
		tenants[name] = s.reg.byName[name].eng.Snapshot()
	}
	var breakers map[string]BreakerStatus
	if s.breakers != nil {
		now := time.Now()
		breakers = make(map[string]BreakerStatus, len(s.breakers))
		for name, br := range s.breakers {
			breakers[name] = br.status(now)
		}
	}
	svc, perTenant, recent := s.metrics.snapshot()
	return StatsReport{Service: svc, PerTenant: perTenant, Tenants: tenants, Breakers: breakers, Recent: recent}
}

// processBatch handles one dispatched batch — single-tenant by
// construction, the scheduler never mixes queues. The collector already
// holds this batch's execution slot (the wait for it is the queue sojourn
// the tenant's controller judges), so the work here is: judge each member's
// sojourn against the tenant's own CoDel instance, then group the admitted
// requests by identical query text and evaluate every group concurrently.
// The batch goroutine waits for its groups, so the batcher's drain covers
// every response.
func (s *Server) processBatch(batch []*request) {
	s.metrics.noteBatch(len(batch))
	if err := s.invokePoint(faultinject.PointServiceBatcher); err != nil {
		werr := &core.ExecError{Stage: "service.batcher", Err: err}
		now := time.Now()
		for _, r := range batch {
			s.finish(r, now, nil, werr, Record{Tenant: r.tenant.cfg.Name, Batch: len(batch)})
		}
		return
	}
	admit := s.admits[batch[0].tenant.cfg.Name] // nil when shedding is disabled
	now := time.Now()
	admitted := batch[:0]
	for _, r := range batch {
		if r.ctx.Err() != nil {
			// Dead on arrival: the caller's context (deadline or
			// cancellation) expired while the request sat in the queue.
			s.finish(r, now, nil, r.ctx.Err(), Record{Tenant: r.tenant.cfg.Name, Batch: len(batch)})
			continue
		}
		if admit != nil {
			sojourn := now.Sub(r.enqueued)
			if shed, retry := admit.onDequeue(now, sojourn); shed {
				s.finish(r, now, nil, shedError(sojourn, admit.target, retry), Record{Tenant: r.tenant.cfg.Name, Batch: len(batch)})
				continue
			}
		}
		admitted = append(admitted, r)
	}
	if len(admitted) == 0 {
		return
	}
	groups := make(map[string][]*request)
	for _, r := range admitted {
		groups[r.query] = append(groups[r.query], r)
	}
	var wg sync.WaitGroup
	for _, reqs := range groups {
		wg.Add(1)
		go func(reqs []*request) {
			defer wg.Done()
			s.processGroup(reqs, len(admitted))
		}(reqs)
	}
	wg.Wait()
}

// processGroup evaluates one batch group — identical requests of one
// tenant. The group first passes the tenant's circuit breaker (rejection
// answers every member with a typed 503; degraded mode runs the evaluation
// cache-only), then prepares once and resolves through the flight table as
// a single unit: its leader is the candidate producer, and every other
// member shares whatever the leader's flight resolves to. If the leader
// dies of its own cancellation, leadership passes to the next member —
// the batch-local mirror of the flight table's re-election. The breaker
// observes the group's resolution exactly once: one evaluation unit is one
// verdict, no matter how many requests rode it.
func (s *Server) processGroup(reqs []*request, batchSize int) {
	ten := reqs[0].tenant
	dispatched := time.Now()
	base := Record{Tenant: ten.cfg.Name, Batch: batchSize}
	br := s.breakers[ten.cfg.Name] // nil when breakers are disabled
	var dec breakerDecision
	if br != nil {
		var tr breakerTransitions
		dec, tr = br.allow(dispatched)
		s.metrics.noteBreaker(tr)
		if !dec.admit {
			err := breakerOpenError(ten.cfg.Name, dec.retryAfter)
			for _, r := range reqs {
				s.finish(r, dispatched, nil, err, base)
			}
			return
		}
		base.Degraded = dec.degraded
	}
	// observe reports the group's verdict to the breaker exactly once; the
	// deferred call covers every exit path, which matters for a half-open
	// probe — a probe that never reports would wedge the breaker.
	observed := false
	observe := func(out groupOutcome) {
		if br == nil || observed {
			return
		}
		observed = true
		s.metrics.noteBreaker(br.observe(time.Now(), out, dec.probe))
	}
	defer observe(outcomeNeutral)
	if ferr := s.invokePoint(faultinject.PointServiceFlight); ferr != nil {
		werr := &core.ExecError{Stage: "service.flight", Err: ferr}
		observe(outcomeFailure)
		for _, r := range reqs {
			s.finish(r, dispatched, nil, werr, base)
		}
		return
	}
	p, err := ten.eng.Prepare(reqs[0].query)
	base.PlanUS = time.Since(dispatched).Microseconds()
	if err != nil {
		// Prepare failures are client mistakes (parse/safety/plan): neutral
		// for the breaker.
		observe(outcomeNeutral)
		for _, r := range reqs {
			s.finish(r, dispatched, nil, err, base)
		}
		return
	}
	fp := fingerprint(ten.cfg.Name, p.Canonical.String())
	base.Fingerprint = fmt.Sprintf("%016x", fp)
	key := flightKey{tenant: ten.cfg.Name, fp: fp, gen: s.db.Catalog().Generation()}
	for len(reqs) > 0 {
		leader := reqs[0]
		rctx := leader.ctx
		if dec.degraded {
			rctx = core.WithCacheOnly(rctx)
		}
		execStart := time.Now()
		res, err, out := s.flights.do(leader.ctx, key, func() (*core.Result, error) {
			return ten.eng.RunContext(rctx, p)
		})
		execDur := time.Since(execStart)
		rec := base
		rec.Flight = out.Role
		rec.FlightWaits = out.Waits
		rec.ExecUS = execDur.Microseconds()
		rec.ExecNS = execDur.Nanoseconds()
		if err != nil && leader.ctx.Err() != nil {
			// The leader's own context killed its flight (as producer the
			// entry was abandoned; as waiter the wait was cut short). Answer
			// the leader and hand leadership to the next member. A blown
			// deadline budget is a breaker failure — the evaluation was too
			// slow — while a caller hanging up proves nothing.
			if errors.Is(leader.ctx.Err(), context.DeadlineExceeded) {
				observe(outcomeFailure)
			}
			s.finish(leader, dispatched, nil, err, rec)
			reqs = reqs[1:]
			continue
		}
		observe(breakerOutcome(err))
		for i, r := range reqs {
			mrec := rec
			if i > 0 {
				// Only the leader carries the election; the rest of the
				// group rode its flight by construction.
				mrec.Flight = flightShare
				mrec.FlightWaits = 0
			}
			s.finish(r, dispatched, res, err, mrec)
		}
		return
	}
}

// breakerOutcome classifies one group resolution for the breaker: engine
// failures and deadline blowouts are failures, governor budget trips feed
// the degraded-mode counter, and client mistakes (parse/safety/plan),
// cancellations and degraded rejections prove nothing about the engine.
func breakerOutcome(err error) groupOutcome {
	if err == nil {
		return outcomeOK
	}
	var re *core.ResourceError
	if errors.As(err, &re) {
		return outcomeTrip
	}
	var ee *core.ExecError
	if errors.As(err, &ee) || errors.Is(err, context.DeadlineExceeded) {
		return outcomeFailure
	}
	return outcomeNeutral
}

// finish completes one request: fills the per-request timing, folds the
// record into the metrics, and delivers the outcome.
func (s *Server) finish(r *request, dispatched time.Time, res *core.Result, err error, rec Record) {
	rec.QueueWaitUS = dispatched.Sub(r.enqueued).Microseconds()
	rec.QueueNS = dispatched.Sub(r.enqueued).Nanoseconds()
	rec.TotalUS = time.Since(r.enqueued).Microseconds()
	rec.DeadlineMS = r.deadlineMS
	rec.Status = statusOf(err)
	if err != nil {
		rec.Err = err.Error()
	}
	if res != nil {
		rec.CacheHit = res.Stats.CacheHits > 0 || res.Stats.CacheTuplesReplayed > 0
		if res.Open && res.Rows != nil {
			rec.Rows = res.Rows.Len()
		}
	}
	s.metrics.note(rec, err)
	r.resp <- &Outcome{Result: res, Err: err, Record: rec}
}

// fingerprint hashes (tenant, canonical query) into the flight key. The
// canonical form — not the raw text — is the identity, so whitespace or
// bound-variable renamings collapse into one flight.
func fingerprint(tenant, canonical string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write([]byte(canonical))
	return h.Sum64()
}
