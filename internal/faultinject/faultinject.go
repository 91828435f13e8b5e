// Package faultinject provides deterministic fault injection for the
// executor's robustness tests. Code under test registers named injection
// points (iterator open/next, memo election/append/publication, catalog
// lookups); a Plan arms a subset of those points to return an error, panic,
// or delay on a chosen invocation. Plans are deterministic: the same arms
// (or the same Seeded seed) produce the same faults at the same points, so
// a chaos failure reproduces from its seed alone.
//
// Every arm fires exactly once. That is deliberate: the property the chaos
// suite asserts is not "the engine fails" but "the engine fails ONCE, with a
// typed error, and then keeps working" — a persistent fault would make the
// post-fault health probe meaningless.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Kind selects what an armed injection point does when it fires.
type Kind uint8

const (
	// KindError makes the point report an error wrapping ErrInjected.
	KindError Kind = iota
	// KindPanic makes the point panic.
	KindPanic
	// KindDelay makes the point sleep for the arm's Delay.
	KindDelay
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ErrInjected is the sentinel every injected error wraps; tests distinguish
// injected failures from organic ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// The registered injection points. Arming any other name is legal (the
// plan simply never fires), so packages can add points without touching
// this list; these are the ones the executor and catalog consult today.
const (
	// PointIterOpen fires when a base-relation scan opens.
	PointIterOpen = "iter.open"
	// PointIterNext fires on every base-relation scan NextBatch call (once
	// per block: per tuple only under demand 1).
	PointIterNext = "iter.next"
	// PointMemoPublish fires just before a completely drained spool is
	// published into the plan-cache memo.
	PointMemoPublish = "memo.publish"
	// PointCatalogLookup fires on catalog relation lookups (both the
	// planner's resolution pass and the executor's scan builds).
	PointCatalogLookup = "catalog.lookup"
	// PointMemoElect fires right after an evaluation becomes producer of a
	// memo spool — killing the producer here proves the entry is abandoned
	// rather than left building, and the next evaluation produces again.
	PointMemoElect = "memo.elect"
	// PointMemoAppend fires on each producer append into an in-flight spool,
	// after the block was charged but before it is appended.
	PointMemoAppend = "memo.append"
	// PointServiceAdmission fires when the service tier admits a request
	// (after auth, before it enters the batcher queue).
	PointServiceAdmission = "service.admission"
	// PointServiceBatcher fires once per flushed service batch, before any
	// of its requests are dispatched.
	PointServiceBatcher = "service.batcher"
	// PointServiceFlight fires when a batch group reaches the request-level
	// flight table, before producer election.
	PointServiceFlight = "service.flight"
)

// Points returns the registered injection point names.
func Points() []string {
	return []string{PointIterOpen, PointIterNext, PointMemoPublish, PointCatalogLookup, PointMemoElect, PointMemoAppend}
}

// ServicePoints returns the service-tier injection point names. They are
// kept out of Points() deliberately: the engine chaos sweeps derive their
// arms from Points(), and a service-level arm would never fire there.
func ServicePoints() []string {
	return []string{PointServiceAdmission, PointServiceBatcher, PointServiceFlight}
}

// Arm describes one armed injection point.
type Arm struct {
	// Point is the injection point name (one of the Point constants).
	Point string
	// Kind is what happens when the arm fires.
	Kind Kind
	// After fires the arm on the After-th invocation of the point
	// (1-based; values below 1 mean the first invocation).
	After int64
	// Delay is how long a KindDelay arm sleeps (default 1ms).
	Delay time.Duration
}

func (a Arm) String() string {
	return fmt.Sprintf("%s:%s@%d", a.Point, a.Kind, a.After)
}

// armState is an Arm plus its (atomic) firing state, shared by every
// execution thread passing through the point.
type armState struct {
	arm   Arm
	count atomic.Int64
	fired atomic.Bool
}

// Plan is a set of armed injection points. A Plan is safe for concurrent
// use: invocation counts are atomic, and each arm fires exactly once.
// The zero-value (or nil) Plan never fires.
type Plan struct {
	arms map[string][]*armState
}

// New builds a plan from explicit arms.
func New(arms ...Arm) *Plan {
	p := &Plan{arms: make(map[string][]*armState, len(arms))}
	for _, a := range arms {
		if a.After < 1 {
			a.After = 1
		}
		if a.Kind == KindDelay && a.Delay <= 0 {
			a.Delay = time.Millisecond
		}
		p.arms[a.Point] = append(p.arms[a.Point], &armState{arm: a})
	}
	return p
}

// Seeded derives one armed point, kind and trigger count deterministically
// from the seed (splitmix64), covering the registered points as seeds sweep.
func Seeded(seed int64) *Plan {
	x := uint64(seed)
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	pts := Points()
	return New(Arm{
		Point: pts[next()%uint64(len(pts))],
		Kind:  Kind(next() % 3),
		After: int64(next()%24) + 1,
		Delay: time.Millisecond,
	})
}

// Invoke registers one pass through the named injection point and realizes
// any arm due to fire there: KindPanic panics, KindDelay sleeps and returns
// nil, KindError returns an error wrapping ErrInjected. A nil plan (or an
// unarmed point) does nothing, so production call sites pay one map lookup
// only when a plan is installed at all.
func (p *Plan) Invoke(point string) error {
	if p == nil {
		return nil
	}
	for _, s := range p.arms[point] {
		n := s.count.Add(1)
		if n != s.arm.After || !s.fired.CompareAndSwap(false, true) {
			continue
		}
		switch s.arm.Kind {
		case KindPanic:
			panic(fmt.Sprintf("faultinject: injected panic at %s (invocation %d)", point, n))
		case KindDelay:
			time.Sleep(s.arm.Delay)
		default:
			return fmt.Errorf("faultinject: %w at %s (invocation %d)", ErrInjected, point, n)
		}
	}
	return nil
}

// Fired reports the arms that have fired, for test assertions.
func (p *Plan) Fired() []Arm {
	return p.collect(true)
}

// Arms returns every armed point, fired or not, for diagnostics.
func (p *Plan) Arms() []Arm {
	return p.collect(false)
}

func (p *Plan) collect(firedOnly bool) []Arm {
	if p == nil {
		return nil
	}
	points := make([]string, 0, len(p.arms))
	for pt := range p.arms {
		points = append(points, pt)
	}
	sort.Strings(points)
	var out []Arm
	for _, pt := range points {
		for _, s := range p.arms[pt] {
			if !firedOnly || s.fired.Load() {
				out = append(out, s.arm)
			}
		}
	}
	return out
}
