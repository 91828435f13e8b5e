package service

import (
	"fmt"

	"repro/internal/core"
)

// TenantConfig declares one tenant of the service: a name, the API key that
// authenticates it, and the governor budgets that act as its admission
// control. Every tenant gets its own core.Engine over the server's shared
// DB, so budgets, plan caches and robustness counters are isolated per
// tenant while base relations are shared.
type TenantConfig struct {
	// Name identifies the tenant in records, /stats and flight keys.
	Name string
	// APIKey authenticates requests (the X-API-Key header over HTTP).
	APIKey string
	// TupleLimit bounds every query of this tenant to at most this many
	// materialized or delivered tuples; exceeding it rejects the request
	// with 429 and a typed resource payload. 0 = unbounded.
	TupleLimit int64
	// MemoryBudget bounds every query's estimated buffered bytes the same
	// way. 0 = unbounded.
	MemoryBudget int64
	// Weight is the tenant's deficit-round-robin share of execution slots
	// under contention: a weight-2 tenant drains twice the batches per
	// scheduler round of a weight-1 tenant. 0 (or anything < 1) means 1.
	Weight int
	// RatePerSec caps the tenant's submission rate with a token bucket
	// (burst = one second's worth); requests over the cap are shed at entry
	// with a typed *ShedError before they ever queue. 0 = unbounded.
	RatePerSec float64
	// Options are extra engine options applied after the server-wide ones
	// and the budget options (so a tenant can override the block capacity
	// or strategy).
	Options []core.Option
}

// tenant is one admitted tenant: its config and its dedicated engine.
type tenant struct {
	cfg TenantConfig
	eng *core.Engine
}

// registry maps API keys and names to tenants. It is immutable after
// NewServer, so lookups need no lock.
type registry struct {
	byKey  map[string]*tenant
	byName map[string]*tenant
	names  []string // declaration order, for stable /stats output
}

// newRegistry builds every tenant engine over the shared db. Budgets become
// engine-level governor options: the admission decision is the governor
// trip itself, surfaced as a typed *core.ResourceError the HTTP layer maps
// to 429.
func newRegistry(db *core.DB, base []core.Option, tenants []TenantConfig) (*registry, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("service: at least one tenant is required")
	}
	reg := &registry{byKey: make(map[string]*tenant), byName: make(map[string]*tenant)}
	for _, tc := range tenants {
		if tc.Name == "" || tc.APIKey == "" {
			return nil, fmt.Errorf("service: tenant needs both a name and an API key (got name=%q)", tc.Name)
		}
		if _, dup := reg.byName[tc.Name]; dup {
			return nil, fmt.Errorf("service: duplicate tenant name %q", tc.Name)
		}
		if _, dup := reg.byKey[tc.APIKey]; dup {
			return nil, fmt.Errorf("service: duplicate API key (tenant %q)", tc.Name)
		}
		opts := make([]core.Option, 0, len(base)+2+len(tc.Options))
		opts = append(opts, base...)
		opts = append(opts, core.WithTupleLimit(tc.TupleLimit), core.WithMemoryBudget(tc.MemoryBudget))
		opts = append(opts, tc.Options...)
		t := &tenant{cfg: tc, eng: core.NewEngine(db, opts...)}
		reg.byKey[tc.APIKey] = t
		reg.byName[tc.Name] = t
		reg.names = append(reg.names, tc.Name)
	}
	return reg, nil
}

// lookup resolves an API key to its tenant.
func (r *registry) lookup(apiKey string) (*tenant, bool) {
	t, ok := r.byKey[apiKey]
	return t, ok
}
