// Command queryd is the multi-tenant query daemon: it loads a generated
// dataset, builds one engine per declared tenant over the shared catalog,
// and serves the service API over HTTP.
//
//	POST /query   X-API-Key header, {"query": "{ x | student(x) }"}
//	GET  /stats   service counters, per-tenant engine snapshots, recent requests
//	GET  /healthz liveness
//
// Usage:
//
//	queryd -dataset university -n 200 \
//	       -tenants 'alice:key-a:5000,bob:key-b:500:1048576:2:100'
//
// Each -tenants entry is
// name:apikey[:tuple-limit[:memory-budget-bytes[:weight[:rps]]]]; a
// tenant's budgets are its admission control — a query that exceeds them is
// rejected with 429 and a typed resource payload. weight is the tenant's
// fair-share weight under overload (deficit round-robin; default 1), and
// rps is a per-tenant token-bucket rate limit (requests/second, burst of
// one second's worth) shedding excess at submission with a typed 503.
// Omitted budgets mean unbounded; empty fields keep their defaults.
//
// The daemon is overload-resilient and fair by default (see DESIGN.md §10
// and §11). Every request runs under a deadline budget (-default-deadline,
// tightened per request with the X-Deadline-Ms header) that propagates into
// the engine; requests queue per tenant and dispatch by weighted deficit
// round-robin, so a flooding tenant lengthens only its own queue; one
// CoDel-style controller per tenant sheds requests whose queue sojourn
// stays above -shed-target for a full -shed-interval; consecutive engine
// failures open a per-tenant circuit breaker (-breaker-failures,
// -breaker-cooldown), and consecutive governor trips enter a cache-only
// degraded window (-degrade-trips, -degrade-window). All rejections are
// typed 503s with retry_after_ms advice and a reason field splitting the
// shed kinds (sojourn, queue-full, rate-limit). -fault injects
// service-level faults for chaos drills (see -fault's grammar below), and
// cmd/queryload is the matching load harness.
//
// SIGINT/SIGTERM drain gracefully: in-flight and queued requests are
// answered, new submissions get 503, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/service"
	"repro/internal/storage"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "localhost:8991", "listen address (host:port; port 0 picks a free one)")
	ds := flag.String("dataset", "university", "dataset: university, ptu, rstg")
	n := flag.Int("n", 100, "dataset scale")
	tenantsFlag := flag.String("tenants", "demo:demo-key", "comma-separated name:apikey[:tuple-limit[:memory-budget[:weight[:rps]]]] entries")
	cache := flag.Bool("cache", true, "enable each tenant's memoizing subplan cache")
	batchSize := flag.Int("batch-size", service.DefaultBatchSize, "flush a batch at this many requests")
	batchWait := flag.Duration("batch-wait", service.DefaultBatchMaxWait, "flush a non-empty batch after this wait")
	recent := flag.Int("recent", service.DefaultRecent, "per-request records kept for /stats")
	portFile := flag.String("portfile", "", "write the bound address to this file once listening (for scripts)")
	maxConcurrent := flag.Int("max-concurrent", service.DefaultMaxConcurrent, "batches executing concurrently (bounds the engine load)")
	defaultDeadline := flag.Duration("default-deadline", service.DefaultDeadlineBudget, "server-side deadline budget for requests that set none (clients override per request with "+service.DeadlineHeader+"; 0 = unbounded)")
	shedTarget := flag.Duration("shed-target", service.DefaultShedTarget, "CoDel queue-sojourn target; sustained sojourn above it sheds requests (negative disables shedding)")
	shedInterval := flag.Duration("shed-interval", service.DefaultShedInterval, "CoDel control interval: how long sojourns must stay above target before the first shed")
	breakerFailures := flag.Int("breaker-failures", service.DefaultBreakerFailures, "consecutive engine failures that open a tenant's circuit breaker (negative disables breakers)")
	breakerCooldown := flag.Duration("breaker-cooldown", service.DefaultBreakerCooldown, "how long an open breaker rejects before a half-open probe")
	degradeTrips := flag.Int("degrade-trips", service.DefaultDegradeTrips, "consecutive governor trips that put a tenant in degraded cache-only mode (negative disables)")
	degradeWindow := flag.Duration("degrade-window", service.DefaultDegradeWindow, "how long degraded cache-only mode lasts")
	faultsFlag := flag.String("fault", "", "comma-separated point:kind[:after] service fault arms for resilience testing, e.g. 'service.flight:error:3' (each arm fires once)")
	flag.Parse()

	cat, err := buildDataset(*ds, *n)
	if err != nil {
		return err
	}
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}

	tenants, err := parseTenants(*tenantsFlag)
	if err != nil {
		return err
	}
	faults, err := parseFaults(*faultsFlag)
	if err != nil {
		return err
	}

	var opts []core.Option
	if *cache {
		opts = append(opts, core.WithPlanCache(0))
	}
	srv, err := service.NewServer(db, service.Config{
		Tenants:         tenants,
		BatchSize:       *batchSize,
		BatchMaxWait:    *batchWait,
		Recent:          *recent,
		EngineOptions:   opts,
		MaxConcurrent:   *maxConcurrent,
		DefaultDeadline: *defaultDeadline,
		ShedTarget:      *shedTarget,
		ShedInterval:    *shedInterval,
		BreakerFailures: *breakerFailures,
		BreakerCooldown: *breakerCooldown,
		DegradeTrips:    *degradeTrips,
		DegradeWindow:   *degradeWindow,
		Faults:          faults,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	fmt.Printf("queryd: dataset %q (scale %d), %d tenant(s), listening on %s\n",
		*ds, *n, len(tenants), ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("queryd: %s — draining\n", sig)
	case err := <-errCh:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Println("queryd: drained")
	return nil
}

// parseTenants parses the -tenants flag: comma-separated
// name:apikey[:tuple-limit[:memory-budget]] entries.
func parseTenants(s string) ([]service.TenantConfig, error) {
	var out []service.TenantConfig
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 6 {
			return nil, fmt.Errorf("bad -tenants entry %q (want name:apikey[:tuple-limit[:memory-budget[:weight[:rps]]]])", entry)
		}
		tc := service.TenantConfig{Name: parts[0], APIKey: parts[1]}
		if len(parts) >= 3 && parts[2] != "" {
			v, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad tuple limit in -tenants entry %q", entry)
			}
			tc.TupleLimit = v
		}
		if len(parts) >= 4 && parts[3] != "" {
			v, err := strconv.ParseInt(parts[3], 10, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad memory budget in -tenants entry %q", entry)
			}
			tc.MemoryBudget = v
		}
		if len(parts) >= 5 && parts[4] != "" {
			v, err := strconv.Atoi(parts[4])
			if err != nil || v < 1 {
				return nil, fmt.Errorf("bad weight in -tenants entry %q (want an integer ≥ 1)", entry)
			}
			tc.Weight = v
		}
		if len(parts) == 6 && parts[5] != "" {
			v, err := strconv.ParseFloat(parts[5], 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad rps in -tenants entry %q (want a number ≥ 0)", entry)
			}
			tc.RatePerSec = v
		}
		out = append(out, tc)
	}
	if len(out) == 0 {
		return nil, errors.New("queryd: -tenants declared no tenants")
	}
	return out, nil
}

// parseFaults parses the -fault flag: comma-separated point:kind[:after]
// arms over the service-tier injection points, where kind is error, panic
// or delay. Every arm fires exactly once (the faultinject contract), and an
// invocation stops at the first arm that fires without advancing the rest,
// so repeating an arm with the default after=1 — e.g.
// 'service.flight:error,service.flight:error' — injects consecutive
// failures: each copy fires on the first invocation it observes unfired.
func parseFaults(s string) (*faultinject.Plan, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	valid := make(map[string]bool)
	for _, pt := range faultinject.ServicePoints() {
		valid[pt] = true
	}
	var arms []faultinject.Arm
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("bad -fault entry %q (want point:kind[:after])", entry)
		}
		if !valid[parts[0]] {
			return nil, fmt.Errorf("bad -fault point %q (service points: %s)",
				parts[0], strings.Join(faultinject.ServicePoints(), ", "))
		}
		arm := faultinject.Arm{Point: parts[0]}
		switch parts[1] {
		case "error":
			arm.Kind = faultinject.KindError
		case "panic":
			arm.Kind = faultinject.KindPanic
		case "delay":
			arm.Kind = faultinject.KindDelay
		default:
			return nil, fmt.Errorf("bad -fault kind %q (error, panic, delay)", parts[1])
		}
		if len(parts) == 3 && parts[2] != "" {
			v, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("bad -fault trigger count in %q", entry)
			}
			arm.After = v
		}
		arms = append(arms, arm)
	}
	if len(arms) == 0 {
		return nil, nil
	}
	return faultinject.New(arms...), nil
}

func buildDataset(name string, n int) (*storage.Catalog, error) {
	switch name {
	case "university":
		return dataset.University(dataset.DefaultUniversity(n)), nil
	case "ptu":
		return dataset.PTU(dataset.PTUParams{N: n, TProb: 0.5, UProb: 0.3, ExtraShare: 0.2, Branches: 3, Seed: 1}), nil
	case "rstg":
		return dataset.RSTG(dataset.DefaultRSTG(n)), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (university, ptu, rstg)", name)
	}
}
