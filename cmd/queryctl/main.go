// Command queryctl is an interactive shell (and one-shot runner) for the
// library: load a generated dataset, type calculus queries, inspect
// canonical forms, plans and execution costs under the three strategies.
//
// Usage:
//
//	queryctl -dataset university -n 100                 # REPL
//	queryctl -dataset ptu -q '{ x | P(x) and T(x) }'    # one-shot
//	queryctl -timeout 5s                                # bounded engine
//	queryctl -remote http://localhost:8991 -apikey K -q '...'  # against queryd
//	queryctl -remote http://localhost:8991 -stats       # daemon report
//
// REPL commands:
//
//	\d             list relations
//	\d NAME        show a relation's contents
//	\strategy S    switch evaluation strategy (bry, codd, codd-improved, loop)
//	\filters S     disjunctive-filter strategy (constrained, outerjoin, union)
//	\cache on|off|status   memoizing subplan cache (shared-subtree results)
//	\limits        show the per-query resource budgets and trip counters
//	\limits tuples N   abort queries that materialize more than N tuples
//	\limits mem N  abort queries that hold more than N bytes of tuples
//	\limits off    clear both budgets
//	\timeout D     per-query execution bound, e.g. 500ms or 10s (0 = none)
//	\explain Q     show canonical form and plan without executing
//	\cost Q        show the plan with cost-model estimates
//	\canonical Q   show only the canonical form
//	\view N = DEF  define a view, e.g. \view busy = { x | exists y: attends(x, y) }
//	\load N PATH   load tab-separated tuples into relation N
//	\save N PATH   save relation N as tab-separated text
//	\quit          exit
//
// Anything else is parsed as a query and executed.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/translate"
)

func main() {
	ds := flag.String("dataset", "university", "dataset: university, ptu, rstg")
	n := flag.Int("n", 100, "dataset scale")
	strategy := flag.String("strategy", "bry", "evaluation strategy: bry, codd, codd-improved, loop")
	timeout := flag.Duration("timeout", 0, "per-query execution bound (0 = none)")
	oneShot := flag.String("q", "", "run a single query and exit")
	remote := flag.String("remote", "", "queryd base URL (e.g. http://localhost:8991): act as a client instead of evaluating locally")
	apiKey := flag.String("apikey", "", "tenant API key for -remote requests")
	stats := flag.Bool("stats", false, "with -remote: print the daemon's /stats report and exit")
	retries := flag.Int("retries", service.DefaultMaxRetries, "with -remote: retry budget for overload rejections (503 shed/breaker, transport errors); -1 disables")
	deadline := flag.Duration("deadline", 0, "with -remote: per-request deadline budget sent as "+service.DeadlineHeader+" (0 = server default)")
	flag.Parse()

	if *remote != "" {
		client := &service.Client{
			Base:       strings.TrimRight(*remote, "/"),
			APIKey:     *apiKey,
			MaxRetries: *retries,
			Deadline:   *deadline,
		}
		os.Exit(remoteMain(client, *oneShot, *stats))
	}

	cat, err := buildDataset(*ds, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	db := core.NewDB()
	for _, name := range cat.Names() {
		r, _ := cat.Relation(name)
		db.Catalog().Add(r)
	}
	eng := core.NewEngine(db, core.WithTimeout(*timeout))
	if err := setStrategy(eng, *strategy); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *oneShot != "" {
		if err := runQuery(eng, *oneShot); err != nil {
			fmt.Fprintln(os.Stderr, diagnose(err))
			os.Exit(1)
		}
		return
	}

	fmt.Printf("dataset %q (scale %d), strategy %s — \\d lists relations, \\quit exits\n", *ds, *n, eng.Strategy())
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("query> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\d`:
			for _, name := range db.Catalog().Names() {
				r, _ := db.Catalog().Relation(name)
				fmt.Printf("  %s%s — %d tuples\n", name, r.Schema(), r.Len())
			}
		case strings.HasPrefix(line, `\d `):
			name := strings.TrimSpace(line[3:])
			r, err := db.Catalog().Relation(name)
			if err != nil {
				fmt.Println(err)
				break
			}
			fmt.Print(r)
		case strings.HasPrefix(line, `\strategy `):
			if err := setStrategy(eng, strings.TrimSpace(line[10:])); err != nil {
				fmt.Println(err)
			} else {
				fmt.Printf("strategy = %s\n", eng.Strategy())
			}
		case strings.HasPrefix(line, `\filters `):
			if err := setFilters(eng, strings.TrimSpace(line[9:])); err != nil {
				fmt.Println(err)
			}
		case strings.HasPrefix(line, `\cache `):
			out, err := setCache(eng, strings.TrimSpace(line[7:]))
			if err != nil {
				fmt.Println(err)
			} else {
				fmt.Println(out)
			}
		case line == `\limits` || strings.HasPrefix(line, `\limits `):
			out, err := setLimits(eng, strings.TrimSpace(strings.TrimPrefix(line, `\limits`)))
			if err != nil {
				fmt.Println(err)
			} else {
				fmt.Println(out)
			}
		case strings.HasPrefix(line, `\timeout `):
			d, err := time.ParseDuration(strings.TrimSpace(line[9:]))
			if err != nil || d < 0 {
				fmt.Println(`usage: \timeout D  (e.g. 500ms, 10s; 0 = none)`)
				break
			}
			eng.Configure(core.WithTimeout(d))
			fmt.Printf("timeout = %s\n", eng.Timeout())
		case strings.HasPrefix(line, `\explain `):
			out, err := eng.Explain(strings.TrimSpace(line[9:]))
			if err != nil {
				fmt.Println(diagnose(err))
			} else {
				fmt.Print(out)
			}
		case strings.HasPrefix(line, `\cost `):
			out, err := eng.ExplainCost(strings.TrimSpace(line[6:]))
			if err != nil {
				fmt.Println(diagnose(err))
			} else {
				fmt.Print(out)
			}
		case strings.HasPrefix(line, `\canonical `):
			p, err := eng.Prepare(strings.TrimSpace(line[11:]))
			if err != nil {
				fmt.Println(diagnose(err))
			} else {
				fmt.Println(p.Canonical)
			}
		case strings.HasPrefix(line, `\view `):
			rest := strings.TrimSpace(line[6:])
			name, def, ok := strings.Cut(rest, "=")
			if !ok {
				fmt.Println(`usage: \view NAME = { x | ... }`)
				break
			}
			if err := db.DefineView(strings.TrimSpace(name), strings.TrimSpace(def)); err != nil {
				fmt.Println(err)
			} else {
				fmt.Printf("view %s defined\n", strings.TrimSpace(name))
			}
		case strings.HasPrefix(line, `\load `):
			name, path, ok := splitTwo(line[6:])
			if !ok {
				fmt.Println(`usage: \load RELATION PATH`)
				break
			}
			n, err := db.Catalog().LoadFile(name, path)
			if err != nil {
				fmt.Println(err)
			} else {
				fmt.Printf("loaded %d tuples into %s\n", n, name)
			}
		case strings.HasPrefix(line, `\save `):
			name, path, ok := splitTwo(line[6:])
			if !ok {
				fmt.Println(`usage: \save RELATION PATH`)
				break
			}
			if err := db.Catalog().SaveFile(name, path); err != nil {
				fmt.Println(err)
			} else {
				fmt.Printf("saved %s to %s\n", name, path)
			}
		case strings.HasPrefix(line, `\`):
			fmt.Printf("unknown command %q\n", line)
		default:
			if err := runQuery(eng, line); err != nil {
				fmt.Println(diagnose(err))
			}
		}
		fmt.Print("query> ")
	}
}

// diagnose turns the engine's typed errors into actionable messages: a
// syntax error points at the grammar, a safety rejection explains the
// range-restriction rules, a planner error asks for a bug report, and a
// deadline hit names the timeout knobs.
func diagnose(err error) string {
	var pe *core.ParseError
	var se *core.SafetyError
	var le *core.PlanError
	var re *core.ResourceError
	var ee *core.ExecError
	switch {
	case errors.As(err, &pe):
		return fmt.Sprintf("syntax error: %v\n  (queries look like { x | student(x) } or a closed formula like exists x: student(x))", pe.Err)
	case errors.As(err, &se):
		return fmt.Sprintf("unsafe query: %v\n  (every variable needs a range: a positive atom binding it — Definitions 1–3)", se.Err)
	case errors.As(err, &le):
		var ur *storage.UnknownRelationError
		if errors.As(le.Err, &ur) {
			return fmt.Sprintf("unknown relation %q\n  (\\d lists the relations and views this database defines)", ur.Name)
		}
		return fmt.Sprintf("planner error (%s stage): %v\n  (the query is well-formed; this is likely a bug worth reporting)", le.Stage, le.Err)
	case errors.As(err, &re):
		return fmt.Sprintf("query aborted: %v\n  (raise or clear the budget with \\limits)", re)
	case errors.As(err, &ee):
		return fmt.Sprintf("execution fault (%s stage): %v\n  (the engine recovered; the database is still queryable)", ee.Stage, ee.Err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Sprintf("query timed out: %v\n  (raise or clear the bound with \\timeout)", err)
	default:
		return err.Error()
	}
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

func setStrategy(eng *core.Engine, s string) error {
	switch s {
	case "bry":
		eng.Configure(core.WithStrategy(core.StrategyBry))
	case "codd":
		eng.Configure(core.WithStrategy(core.StrategyCodd))
	case "codd-improved":
		eng.Configure(core.WithStrategy(core.StrategyCoddImproved))
	case "loop":
		eng.Configure(core.WithStrategy(core.StrategyLoop))
	default:
		return fmt.Errorf("unknown strategy %q (bry, codd, loop)", s)
	}
	return nil
}

func setFilters(eng *core.Engine, s string) error {
	switch s {
	case "constrained":
		eng.Configure(core.WithDisjunctiveFilters(translate.StrategyConstrainedOuterJoin))
	case "outerjoin":
		eng.Configure(core.WithDisjunctiveFilters(translate.StrategyOuterJoin))
	case "union":
		eng.Configure(core.WithDisjunctiveFilters(translate.StrategyUnion))
	default:
		return fmt.Errorf("unknown filter strategy %q (constrained, outerjoin, union)", s)
	}
	return nil
}

// setCache drives the memoizing subplan cache: on installs a fresh memo
// (default budget), off drops it, status reports occupancy.
func setCache(eng *core.Engine, arg string) (string, error) {
	switch arg {
	case "on":
		eng.Configure(core.WithPlanCache(0))
		return fmt.Sprintf("cache = on (budget %d tuples)", eng.Snapshot().CacheBudget), nil
	case "off":
		eng.Configure(core.WithoutPlanCache())
		return "cache = off", nil
	case "status":
		if !eng.PlanCacheEnabled() {
			return "cache = off", nil
		}
		s := eng.Snapshot()
		return fmt.Sprintf("cache = on: %d entries, %d/%d tuples buffered, %d spools abandoned",
			s.CacheEntries, s.CacheTuples, s.CacheBudget, s.MemoSpoolsAbandoned), nil
	default:
		return "", fmt.Errorf(`usage: \cache on|off|status`)
	}
}

// setLimits drives the per-query resource budgets. With no argument it
// reports the current budgets and the engine's cumulative robustness
// counters; `tuples N` and `mem N` set one budget; `off` clears both.
func setLimits(eng *core.Engine, arg string) (string, error) {
	fields := strings.Fields(arg)
	switch {
	case len(fields) == 0:
		status := func(v int64, unit string) string {
			if v == 0 {
				return "unbounded"
			}
			return fmt.Sprintf("%d %s", v, unit)
		}
		s := eng.Snapshot()
		return fmt.Sprintf("tuples = %s, memory = %s\ntrips = %d, panics recovered = %d, cache entries shed = %d, cache spools abandoned = %d",
			status(eng.TupleLimit(), "tuples"), status(eng.MemoryBudget(), "bytes"),
			s.LimitsTripped, s.PanicsRecovered, s.DegradedEvictions, s.CacheSpoolsAbandoned), nil
	case len(fields) == 1 && fields[0] == "off":
		eng.Configure(core.WithTupleLimit(0), core.WithMemoryBudget(0))
		return "limits cleared", nil
	case len(fields) == 2:
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || n < 0 {
			break
		}
		switch fields[0] {
		case "tuples":
			eng.Configure(core.WithTupleLimit(n))
			return fmt.Sprintf("tuple limit = %d", eng.TupleLimit()), nil
		case "mem":
			eng.Configure(core.WithMemoryBudget(n))
			return fmt.Sprintf("memory budget = %d bytes", eng.MemoryBudget()), nil
		}
	}
	return "", fmt.Errorf(`usage: \limits [tuples N | mem N | off]`)
}

func runQuery(eng *core.Engine, input string) error {
	res, err := eng.Query(input)
	if err != nil {
		return err
	}
	if res.Open {
		fmt.Print(res.Rows)
		fmt.Printf("(%d rows)\n", res.Rows.Len())
	} else {
		fmt.Println(res.Truth)
	}
	fmt.Printf("canonical: %s\ncost: %s\n", res.Canonical, res.Stats.String())
	return nil
}

// splitTwo splits "name path" into its two fields.
func splitTwo(s string) (string, string, bool) {
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return "", "", false
	}
	return fields[0], fields[1], true
}
