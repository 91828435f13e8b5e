package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
)

// tenants are the daemon's two tenants; clients alternate between them.
var tenants = []struct{ name, key string }{{"a", "key-a"}, {"b", "key-b"}}

// servePool is serve_warm's pool: the open running-example templates that
// are non-vacuous on the daemon's default database, a ∀ over what a
// professor speaks, and four closed queries whose warm cost is well under a
// millisecond. (The nested ∃x,y … ∃z closed query re-runs its probes even
// when warm and stays in cold_quantified only.) Behind the batcher's 2 ms
// max-wait every class but negated_atom costs the same within calibration
// noise, so any two neighbours can look like a step on some run; the weights
// (127 slots) therefore put p50 inside the cheapest class, disj2 at 0–57 %,
// and p95 inside the dearest, negated_atom at 91–100 %.
func servePool() []*query {
	qs := universityTemplates(false, []string{`enrolled(x, "cs")`, `enrolled(x, "math")`, `enrolled(x, "bio")`})
	// Professors whose languages leave the answer non-vacuous at the default
	// scale (p0003 speaks all three: every student qualifies).
	for _, p := range []string{"p0000", "p0001", "p0004", "p0006", "p0007", "p0009"} {
		qs = append(qs, &query{class: "forall_speaks", rng: rngStudent,
			text: fmt.Sprintf(`{ x | student(x) and forall y: speaks(x, y) => speaks(%q, y) }`, p)})
	}
	for _, text := range []string{
		`forall x: student(x) => exists y: attends(x, y)`,
		`forall x: student(x) => exists l: speaks(x, l)`,
		`forall x, d: enrolled(x, d) => member(x, d)`,
		`exists x: prof(x) and speaks(x, "french") and skill(x, "db")`,
	} {
		qs = append(qs, &query{class: "closed", text: text})
	}
	setWeight(qs, "disj2", 4)
	setWeight(qs, "negated_atom", 4)
	return qs
}

func prepareServe(cfg config) (*pool, error) {
	p := &pool{queries: servePool()}
	var err error
	if p.vacuous, err = oracle(daemonDB(cfg.scale), daemonDB(replicaScale), p.queries); err != nil {
		return nil, err
	}
	// Built before any set-up clock starts.
	p.queryd, err = filepath.Abs(filepath.Join(cfg.outDir, "queryd"))
	if err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", p.queryd, "repro/cmd/queryd")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build repro/cmd/queryd: %w\n%s", err, out)
	}
	return p, nil
}

// countingBody counts the response bytes a client reads.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// countingTransport is one client's keep-alive connection.
type countingTransport struct {
	http.Transport
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.Transport.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &t.bytes}
	}
	return resp, err
}

// serveCaller is one closed-loop client bound to one tenant.
type serveCaller struct {
	cycler
	client *service.Client
	t      tally
}

func (c *serveCaller) do(o *op, tr *tracer) outcome {
	root := tr.begin(spRoundtrip, -1)
	resp, err := c.client.Query(context.Background(), o.text)
	tr.end(root)
	return outcome{resp: resp, err: err}
}

func (c *serveCaller) check(o *op, out outcome) error {
	if out.err != nil {
		return out.err
	}
	tm := out.resp.Timing
	c.t.responses++
	c.t.queueWaitUS = append(c.t.queueWaitUS, tm.QueueWaitUS)
	c.t.planUS += tm.PlanUS
	c.t.execUS += tm.ExecUS
	c.t.totalUS += tm.TotalUS
	c.t.batch += int64(tm.Batch)
	if tm.Flight == "share" {
		c.t.flightShares++
	}
	if tm.CacheHit {
		c.t.cacheHits++
	}
	if got := answerOfResponse(out.resp); got != o.want {
		return fmt.Errorf("answer %v differs from the oracle's %v: %s", got, o.want, o.text)
	}
	return nil
}

func (c *serveCaller) tally() *tally { return &c.t }

// setupServe starts a queryd child with every flag but the ones below at its
// default (plan cache on, batch 16 / 2 ms) and binds nproc clients to it.
func setupServe(cfg config, p *pool) (*env, error) {
	portFile := filepath.Join(filepath.Dir(p.queryd), "queryd.addr")
	if err := os.Remove(portFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	cmd := exec.Command(p.queryd,
		"-dataset", "university", "-n", strconv.Itoa(cfg.scale),
		"-tenants", fmt.Sprintf("%s:%s,%s:%s", tenants[0].name, tenants[0].key, tenants[1].name, tenants[1].key),
		"-addr", "localhost:0", "-portfile", portFile)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs()), "GOGC=100")
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stop := func() error {
		// SIGINT asks for a graceful drain, which must end with exit code 0.
		if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
			return err
		}
		select {
		case err := <-exited:
			if err != nil {
				return fmt.Errorf("queryd did not drain cleanly: %w", err)
			}
			return nil
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill() // already failing; the wait below reaps it
			<-exited
			return errors.New("queryd did not exit within 30 s of SIGINT")
		}
	}

	var addr []byte
	for len(addr) == 0 {
		select {
		case err := <-exited:
			return nil, errors.Join(errors.New("queryd exited during start-up"), err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > 60*time.Second {
			return nil, errors.Join(errors.New("queryd wrote no port file within 60 s"), stop())
		}
		addr, _ = os.ReadFile(portFile) // absent until the listener is up
	}
	load := time.Since(t0).Seconds()

	e := &env{pid: cmd.Process.Pid, loadS: load}
	var cycle []*op
	var transports []*countingTransport
	var clients []*service.Client
	for i := 0; i < procs(); i++ {
		// Each client has its own shuffle of the cycle.
		e.classes, cycle = schedule(p.queries, cfg.seed+int64(i))
		tr := &countingTransport{Transport: http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
		transports = append(transports, tr)
		// The client keeps the library's retry discipline. With retries off, a
		// quarter-second stall of this shared VM — several sojourns above the
		// CoDel target in a row — shed one request in 400 000 and failed one
		// run in forty; retried, the op succeeds late and the shed still shows
		// in service.sheds and client.retries.
		client := &service.Client{
			Base:   "http://" + string(addr),
			APIKey: tenants[i%len(tenants)].key,
			HTTP:   &http.Client{Transport: tr},
		}
		clients = append(clients, client)
		e.callers = append(e.callers, &serveCaller{cycler: cycler{cycle: cycle}, client: client})
	}
	e.cycleLen = len(cycle)
	e.pipeline = make([]bool, len(e.classes))
	stats := &service.Client{Base: "http://" + string(addr), APIKey: tenants[0].key}
	e.serviceStats = func() (*service.StatsReport, error) { return stats.Stats(context.Background()) }
	e.responseBytes = func() int64 {
		var n int64
		for _, tr := range transports {
			n += tr.bytes.Load()
		}
		return n
	}
	e.retries = func() int64 {
		var n int64
		for _, c := range clients {
			n += c.RetryCount()
		}
		return n
	}
	e.close = func() error {
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
		return stop()
	}
	return e, nil
}
