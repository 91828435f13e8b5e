package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/testutil"
)

// demoDB mirrors the core test fixture: students, attendance, lectures.
func demoDB() *core.DB {
	db := core.NewDB()
	st := db.MustDefine("student", "name")
	for _, n := range []string{"ann", "bob", "eve"} {
		st.InsertValues(relation.Str(n))
	}
	att := db.MustDefine("attends", "name", "lecture")
	att.InsertValues(relation.Str("ann"), relation.Str("db101"))
	att.InsertValues(relation.Str("bob"), relation.Str("db101"))
	lec := db.MustDefine("lecture", "id")
	lec.InsertValues(relation.Str("db101"))
	return db
}

// demoQuery exercises negation and an existential; its answer is exactly
// {eve}, the one student attending nothing.
const demoQuery = `{ x | student(x) and not exists y: attends(x, y) }`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Tenants == nil {
		cfg.Tenants = []TenantConfig{{Name: "acme", APIKey: "k-acme"}}
	}
	s, err := NewServer(demoDB(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// TestSingleFlightColdQueries is the acceptance gate: 8 identical
// concurrent cold queries evaluate exactly once. Batch size 8 with a
// generous max-wait makes the collapse structural — all eight land in one
// batch, form one group, and the group leader is the only producer.
func TestSingleFlightColdQueries(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n = 8
	s := newTestServer(t, Config{
		BatchSize:    n,
		BatchMaxWait: 500 * time.Millisecond,
	})

	outs := make([]*Outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := s.Execute(context.Background(), "k-acme", demoQuery)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()

	elects, shares := 0, 0
	for i, out := range outs {
		if out == nil {
			t.Fatalf("request %d got no outcome", i)
		}
		switch out.Record.Flight {
		case flightElect:
			elects++
		case flightShare:
			shares++
		default:
			t.Errorf("request %d: unexpected flight role %q", i, out.Record.Flight)
		}
		if out.Result == nil || out.Result.Rows.Len() != 1 {
			t.Errorf("request %d: want 1 row (eve), got %+v", i, out.Result)
		}
		if out.Record.Batch != n {
			t.Errorf("request %d rode batch of %d, want %d", i, out.Record.Batch, n)
		}
	}
	if elects != 1 || shares != n-1 {
		t.Fatalf("want exactly 1 election and %d shares, got %d/%d", n-1, elects, shares)
	}
	if runs := s.Stats().Tenants["acme"].Runs; runs != 1 {
		t.Fatalf("engine ran %d times, want exactly 1", runs)
	}
}

// TestMultiTenantIsolation runs N tenants × M identical queries and checks
// the collapse happens per tenant: the flights of one tenant never absorb
// another's, and each tenant's engine runs exactly once.
func TestMultiTenantIsolation(t *testing.T) {
	testutil.CheckGoroutines(t)
	const tenantsN, perTenant = 3, 4
	var tcs []TenantConfig
	for i := 0; i < tenantsN; i++ {
		tcs = append(tcs, TenantConfig{
			Name:   fmt.Sprintf("t%d", i),
			APIKey: fmt.Sprintf("key-%d", i),
		})
	}
	s := newTestServer(t, Config{
		Tenants:      tcs,
		BatchSize:    tenantsN * perTenant,
		BatchMaxWait: 500 * time.Millisecond,
	})

	var wg sync.WaitGroup
	for i := 0; i < tenantsN; i++ {
		for j := 0; j < perTenant; j++ {
			wg.Add(1)
			go func(key string) {
				defer wg.Done()
				if _, err := s.Execute(context.Background(), key, demoQuery); err != nil {
					t.Errorf("tenant %s: %v", key, err)
				}
			}(fmt.Sprintf("key-%d", i))
		}
	}
	wg.Wait()

	report := s.Stats()
	if len(report.Tenants) != tenantsN {
		t.Fatalf("want %d tenant snapshots, got %d", tenantsN, len(report.Tenants))
	}
	for name, snap := range report.Tenants {
		if snap.Runs != 1 {
			t.Errorf("tenant %s ran %d times, want exactly 1 per fingerprint", name, snap.Runs)
		}
	}
	if got := report.Service.Elections; got != tenantsN {
		t.Errorf("want %d elections (one per tenant), got %d", tenantsN, got)
	}
	if got := report.Service.SharedResults; got != int64(tenantsN*(perTenant-1)) {
		t.Errorf("want %d shared results, got %d", tenantsN*(perTenant-1), got)
	}
}

// TestAdmissionRejects429 pins the admission path: a tenant whose tuple
// budget cannot fit the query is rejected with a typed *core.ResourceError,
// and the HTTP layer maps it to 429 with the governor's fields in the body.
func TestAdmissionRejects429(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestServer(t, Config{
		Tenants: []TenantConfig{
			{Name: "cheap", APIKey: "k-cheap", TupleLimit: 2},
			{Name: "rich", APIKey: "k-rich"},
		},
	})

	_, err := s.Execute(context.Background(), "k-cheap", demoQuery)
	var re *core.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want *core.ResourceError, got %v", err)
	}
	if re.Limit != "tuples" || re.Budget != 2 || re.Used <= re.Budget {
		t.Fatalf("governor fields look wrong: %+v", re)
	}

	// The rich tenant is not affected by the cheap tenant's budget.
	if _, err := s.Execute(context.Background(), "k-rich", demoQuery); err != nil {
		t.Fatalf("unbounded tenant must pass: %v", err)
	}

	// The same trip over HTTP: 429 with the typed payload.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp := postQuery(t, srv.URL, "k-cheap", demoQuery)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d", resp.StatusCode)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Kind != "resource" || body.Error.Limit != "tuples" || body.Error.Budget != 2 || body.Error.Used <= 2 {
		t.Fatalf("429 body lost the governor fields: %+v", body.Error)
	}
}

// TestHTTPQueryAndAuth drives the handler end to end: a valid query
// returns rows and a timing record, a bad key gets 401, a malformed body
// 400, and a parse failure a typed "parse" error.
func TestHTTPQueryAndAuth(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postQuery(t, srv.URL, "k-acme", demoQuery)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("want 200, got %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Tenant != "acme" || !qr.Open || len(qr.Rows) != 1 || qr.Rows[0][0] != "eve" {
		t.Fatalf("unexpected answer: %+v", qr)
	}
	if qr.Columns[0] == "" || qr.Timing.Fingerprint == "" || qr.Timing.Status != 200 {
		t.Fatalf("timing record incomplete: %+v", qr.Timing)
	}

	resp = postQuery(t, srv.URL, "wrong-key", demoQuery)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad key: want 401, got %d", resp.StatusCode)
	}

	resp = postQuery(t, srv.URL, "k-acme", `{ x | oops(`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse failure: want 400, got %d", resp.StatusCode)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Kind != "parse" {
		t.Fatalf("want kind parse, got %+v", body.Error)
	}

	req, _ := http.NewRequest("POST", srv.URL+"/query", bytes.NewBufferString("not json"))
	req.Header.Set("X-API-Key", "k-acme")
	badResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: want 400, got %d", badResp.StatusCode)
	}

	healthResp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthResp.Body.Close()
	if healthResp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: want 200, got %d", healthResp.StatusCode)
	}
}

// TestHTTPColumnsAreQueryVariables: the response's columns name the query's
// head variables in head order, not the attributes of the base relations the
// answer was read from.
func TestHTTPColumnsAreQueryVariables(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postQuery(t, srv.URL, "k-acme", `{ what, who | attends(who, what) and student(who) }`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("want 200, got %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Columns) != 2 || qr.Columns[0] != "what" || qr.Columns[1] != "who" {
		t.Fatalf("columns = %q, want [what who]", qr.Columns)
	}
	if len(qr.Rows) != 2 || qr.Rows[0][0] != "db101" {
		t.Fatalf("unexpected answer: %+v", qr.Rows)
	}
}

// TestClosedQueryOverHTTP checks the truth-valued path keeps its shape:
// no rows, a truth field, and the canonical form of the sentence.
func TestClosedQueryOverHTTP(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postQuery(t, srv.URL, "k-acme", `forall y: lecture(y) => exists x: attends(x, y)`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("want 200, got %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Open || qr.Truth == nil || !*qr.Truth || qr.Rows != nil {
		t.Fatalf("closed query answer malformed: %+v", qr)
	}
}

// TestShutdownDrains pins graceful shutdown: requests accepted before
// Shutdown are answered, requests after are rejected with ErrShuttingDown,
// and no goroutine outlives the drain.
func TestShutdownDrains(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, err := NewServer(demoDB(), Config{
		Tenants: []TenantConfig{{Name: "acme", APIKey: "k-acme"}},
		// A long max-wait so in-flight requests are still buffered when
		// Shutdown lands — the drain, not the timer, must flush them.
		BatchSize:    64,
		BatchMaxWait: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 6
	outs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Execute(context.Background(), "k-acme", demoQuery)
			outs <- err
		}()
	}
	// Let the submissions reach the batcher buffer, then shut down.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	wg.Wait()
	close(outs)
	for err := range outs {
		if err != nil {
			t.Errorf("accepted request lost in shutdown: %v", err)
		}
	}

	if _, err := s.Execute(context.Background(), "k-acme", demoQuery); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: want ErrShuttingDown, got %v", err)
	}
	if s.Shutdown(context.Background()) != nil {
		t.Fatal("second shutdown must be a clean no-op")
	}
}

// TestStatsReconcile pins the observability invariant from the issue: the
// /stats Snapshot totals reconcile with the per-request records. For every
// tenant, the number of records that ran an evaluation (flight == elect)
// equals the engine's Snapshot.Runs, and the service counters add up.
func TestStatsReconcile(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestServer(t, Config{
		Tenants: []TenantConfig{
			{Name: "a", APIKey: "ka"},
			{Name: "b", APIKey: "kb"},
		},
		BatchSize:    4,
		BatchMaxWait: 5 * time.Millisecond,
	})

	queries := []string{
		demoQuery,
		`{ x | student(x) }`,
		`{ x | student(x) and not exists y: attends(x, y) }`,
	}
	var wg sync.WaitGroup
	for _, key := range []string{"ka", "kb"} {
		for _, q := range queries {
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func(key, q string) {
					defer wg.Done()
					if _, err := s.Execute(context.Background(), key, q); err != nil {
						t.Errorf("%s %q: %v", key, q, err)
					}
				}(key, q)
			}
		}
	}
	wg.Wait()

	report := s.Stats()
	elected := map[string]int64{}
	var recorded int64
	for _, rec := range report.Recent {
		recorded++
		if rec.Flight == flightElect {
			elected[rec.Tenant]++
		}
	}
	for name, snap := range report.Tenants {
		if elected[name] != snap.Runs {
			t.Errorf("tenant %s: %d elect records but Snapshot.Runs=%d — the layers disagree",
				name, elected[name], snap.Runs)
		}
	}
	svc := report.Service
	if svc.Requests != recorded {
		t.Errorf("counters saw %d requests but the ring kept %d records", svc.Requests, recorded)
	}
	if svc.Elections+svc.SharedResults != svc.Requests {
		t.Errorf("every successful request is an election or a share: %d + %d != %d",
			svc.Elections, svc.SharedResults, svc.Requests)
	}
	if svc.BatchedRequests != svc.Requests || svc.Batches == 0 {
		t.Errorf("batch accounting off: %+v", svc)
	}
	// The /stats endpoint serves the same report as JSON.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire StatsReport
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Tenants) != 2 || wire.Service.Requests == 0 || len(wire.Recent) == 0 {
		t.Fatalf("/stats payload incomplete: %+v", wire.Service)
	}
	for name, snap := range wire.Tenants {
		if snap.Version != core.SnapshotVersion {
			t.Errorf("tenant %s snapshot lost its version over the wire: %+v", name, snap)
		}
	}
}

// TestCancelledCallerGetsContextError checks a caller whose own context
// dies while queued gets its context error back, and the pipeline still
// completes the request without blocking.
func TestCancelledCallerGetsContextError(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestServer(t, Config{
		BatchSize:    64,
		BatchMaxWait: 100 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Execute(ctx, "k-acme", demoQuery)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Drain happens in cleanup; the buffered resp channel means the
	// pipeline's answer to the dead caller cannot block shutdown.
}

func postQuery(t *testing.T, base, key, query string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(queryRequest{Query: query})
	req, err := http.NewRequest("POST", base+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", key)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
