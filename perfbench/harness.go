package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/integrity"
	"repro/internal/service"
)

// op is one entry of a schedule cycle.
type op struct {
	class int    // index into env.classes
	text  string // query text, or the constraint name of a Manager.Check
	want  answer // expected answer, where it is known before the run
}

// outcome is what one op returned: the variant its workload produces.
type outcome struct {
	res  *core.Result           // in-process query
	resp *service.QueryResponse // service request
	rep  integrity.Report       // Manager.Check
	err  error
}

// caller is one closed-loop client. do is the timed span and does nothing
// but the call under test (recording spans when tr is non-nil); check runs
// after the clock has stopped, verifies the outcome — an error is a failed
// op — and keeps the tallies.
type caller interface {
	next() *op
	do(o *op, tr *tracer) outcome
	check(o *op, out outcome) error
	tally() *tally
}

// tally is the work one caller observed, summed outside the timed spans.
type tally struct {
	queries    int64      // ops that ran the query pipeline in process
	stats      exec.Stats // their summed Result.Stats
	memoOps    int64      // of those, the ops that consulted the plan cache
	memoHitOps int64      // and the ones it answered without a single miss
	writes     int64
	rejected   int64

	// Service-side numbers, from the timing record of every response.
	responses    int64
	queueWaitUS  []int64
	planUS       int64
	execUS       int64
	totalUS      int64
	batch        int64
	flightShares int64
	cacheHits    int64
}

func (t *tally) add(o *tally) {
	t.queries += o.queries
	t.stats.Add(o.stats)
	t.memoOps += o.memoOps
	t.memoHitOps += o.memoHitOps
	t.writes += o.writes
	t.rejected += o.rejected
	t.responses += o.responses
	t.queueWaitUS = append(t.queueWaitUS, o.queueWaitUS...)
	t.planUS += o.planUS
	t.execUS += o.execUS
	t.totalUS += o.totalUS
	t.batch += o.batch
	t.flightShares += o.flightShares
	t.cacheHits += o.cacheHits
}

// noteQuery folds one in-process query result into the tally.
func (t *tally) noteQuery(st exec.Stats) {
	t.queries++
	t.stats.Add(st)
	if st.CacheHits+st.CacheMisses > 0 {
		t.memoOps++
		if st.CacheMisses == 0 {
			t.memoHitOps++
		}
	}
}

// env is one workload after set-up.
type env struct {
	classes []string
	// pipeline marks the classes whose ops run the query pipeline in
	// process; core.query_us_per_op is their mean latency.
	pipeline []bool
	callers  []caller
	// pid is the process under test: 0 for the harness itself.
	pid   int
	loadS float64
	// gauges reads the plan-cache occupancy of the engine under test and
	// the catalog generation; nil where the harness cannot see them.
	gauges func() (snap core.Snapshot, generation int64)
	// serviceStats fetches the daemon's counters; responseBytes and retries
	// are what the clients have read and retried so far; all nil in process.
	serviceStats  func() (*service.StatsReport, error)
	responseBytes func() int64
	retries       func() int64
	// cycleLen is the length of one caller's schedule cycle.
	cycleLen int
	close    func() error
}

// samples is one caller's measured ops: latency and class, in op order.
type samples struct {
	ns       []int64
	class    []uint8
	failed   int
	firstErr error // the first failed op's reason
	wall     time.Duration
}

func newSamples(capacity int) *samples {
	return &samples{ns: offHeap[int64](capacity), class: offHeap[uint8](capacity)}
}

// offHeap returns an empty slice with room for n pointer-free values in
// memory the garbage collector does not know about. The harness's buffers
// would otherwise be live heap of the process under test: at GOGC=100 over a
// live heap of some 8 MB, the 21 MB span buffer made collections three times
// rarer and the traced half of a run 20 % faster than the untraced half, and
// a sample buffer sized from the warm-up's pace made the collector's cadence
// differ from run to run. The mapping lives until the process exits. Where
// mmap fails the heap serves, with exactly that distortion.
func offHeap[T any](n int) []T {
	var zero T
	b, err := syscall.Mmap(-1, 0, max(n, 1)*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, 0, n)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0]
}

// drive runs one caller's closed loop until maxOps ops (when positive) or
// dur has passed (when positive) or the trace buffer is full.
func drive(c caller, tr *tracer, maxOps int, dur time.Duration, s *samples) {
	start := time.Now()
	for n := 0; maxOps <= 0 || n < maxOps; n++ {
		o := c.next()
		if tr != nil {
			tr.op++
		}
		t0 := time.Now()
		out := c.do(o, tr)
		t1 := time.Now()
		s.ns = append(s.ns, int64(t1.Sub(t0)))
		s.class = append(s.class, uint8(o.class))
		if err := c.check(o, out); err != nil {
			if s.failed++; s.firstErr == nil {
				s.firstErr = err
			}
		}
		if dur > 0 && t1.Sub(start) >= dur {
			break
		}
		if tr != nil && tr.full() {
			break
		}
	}
	s.wall = time.Since(start)
}

// phase drives every caller of the environment at once and merges what they
// measured. capacity preallocates each caller's sample buffer.
func phase(e *env, tracers []*tracer, maxOps int, dur time.Duration, capacity int) *samples {
	parts := make([]*samples, len(e.callers))
	var wg sync.WaitGroup
	for i, c := range e.callers {
		parts[i] = newSamples(capacity)
		var tr *tracer
		if tracers != nil {
			tr = tracers[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(c, tr, maxOps, dur, parts[i])
		}()
	}
	wg.Wait()
	all := parts[0]
	for _, p := range parts[1:] {
		all.ns = append(all.ns, p.ns...)
		all.class = append(all.class, p.class...)
		all.failed += p.failed
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
		all.wall = max(all.wall, p.wall)
	}
	return all
}

// percentile returns the q-quantile (nearest rank) of sorted.
func percentile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// classMedians is the calibration: each class's median latency over the
// warm-up pass, and its share of the ops.
func classMedians(s *samples, classes int) (medianNS []int64, share []float64) {
	by := make([][]int64, classes)
	for i, ns := range s.ns {
		by[s.class[i]] = append(by[s.class[i]], ns)
	}
	medianNS = make([]int64, classes)
	share = make([]float64, classes)
	for c, ns := range by {
		if len(ns) == 0 {
			continue
		}
		medianNS[c] = percentile(sortedCopy(ns), 0.5)
		share[c] = float64(len(ns)) / float64(len(s.ns))
	}
	return medianNS, share
}

// placementMargin is how many percentile points must separate p50 and p95
// from a boundary between two op classes of different cost; placementGap is
// the latency ratio above which two neighbouring classes count as different.
const (
	placementMargin = 1.5
	placementGap    = 1.10
)

// placement applies the percentile placement rule to a calibration: with the
// classes laid out by calibrated latency, neither p50 nor p95 may fall within
// placementMargin points of a boundary across which latency steps by more
// than placementGap. A percentile that sits on such a step reads one class on
// one run and the other on the next. It returns the layout, for the run
// record, and the violations.
func placement(classes []string, medianNS []int64, share []float64) (layout, violations []string) {
	order := make([]int, 0, len(classes))
	for c := range classes {
		if share[c] > 0 {
			order = append(order, c)
		}
	}
	sort.Slice(order, func(i, j int) bool { return medianNS[order[i]] < medianNS[order[j]] })
	cum := 0.0
	for i, c := range order {
		lo := cum
		cum += 100 * share[c]
		layout = append(layout, fmt.Sprintf("%5.1f–%5.1f %% %-24s %9.1f us", lo, cum, classes[c], float64(medianNS[c])/1e3))
		if i+1 == len(order) {
			break
		}
		next := order[i+1]
		if float64(medianNS[next]) <= placementGap*float64(medianNS[c]) {
			continue
		}
		for _, p := range []float64{50, 95} {
			if math.Abs(p-cum) < placementMargin {
				violations = append(violations, fmt.Sprintf(
					"placement: p%.0f lies %.2f points from the boundary at %.1f %% between %s (%.1f us) and %s (%.1f us)",
					p, math.Abs(p-cum), cum, classes[c], float64(medianNS[c])/1e3, classes[next], float64(medianNS[next])/1e3))
			}
		}
	}
	return layout, violations
}

// cpuSeconds is the user+system CPU time the process under test has used:
// the harness itself through getrusage, a child through /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, fmt.Errorf("getrusage: %w", err)
		}
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		return tv(ru.Utime) + tv(ru.Stime), nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in clock ticks of 1/100 s (USER_HZ).
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return (utime + stime) / 100, nil
}

func procDir(pid int) string {
	if pid == 0 {
		return "/proc/self"
	}
	return fmt.Sprintf("/proc/%d", pid)
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of the process
// under test.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(procDir(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// settle brings the harness to a quiet, comparable state before a measured
// phase: garbage from set-up is collected and returned to the OS, and the
// kernel's RSS high-water mark is reset, so that peak_rss_mb reports the
// measured phase and not whichever set-up repetition happened to peak.
// (Writing 5 to clear_refs resets VmHWM; where the kernel refuses, the mark
// simply keeps the set-up peak, on every run alike.)
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// run measures one workload: prepare (untimed), set up cfg.setups times,
// check the percentile placement, then the measured phase — or, for a traced
// run, an untraced half and a traced half.
func run(cfg config) (*report, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have: %s)", cfg.workload, workloadNames())
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	pool, err := w.prepare(cfg)
	if err != nil {
		return nil, err
	}
	rep := newReport(cfg)
	rep.Warnings = append(rep.Warnings, pool.vacuous...)

	var e *env
	var warm *samples
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if e, err = w.setup(cfg, pool); err != nil {
			return nil, err
		}
		warm = phase(e, nil, w.warmupOps, 0, w.warmupOps)
		rep.SetupSeconds = append(rep.SetupSeconds, time.Since(t0).Seconds())
		if warm.failed > 0 {
			return nil, errors.Join(fmt.Errorf("%d of %d warm-up ops failed, the first: %w", warm.failed, len(warm.ns), warm.firstErr), e.close())
		}
	}
	m, err := measure(cfg, e, warm, rep)
	if err := errors.Join(err, e.close()); err != nil {
		return nil, err
	}
	m["setup_s"] = median(rep.SetupSeconds)
	m["storage.load_s"] = e.loadS
	rep.setMetrics(m, cfg.trace)
	return rep, nil
}

// measure checks the placement rule on the last warm-up pass and runs the
// measured phase on the environment that pass warmed.
func measure(cfg config, e *env, warm *samples, rep *report) (metrics, error) {
	medianNS, share := classMedians(warm, len(e.classes))
	var violations []string
	rep.Placement, violations = placement(e.classes, medianNS, share)
	rep.Warnings = append(rep.Warnings, violations...)
	if cfg.strict && len(rep.Warnings) > 0 {
		return nil, fmt.Errorf("refusing to measure:\n  %s\ncalibrated class layout:\n  %s",
			strings.Join(rep.Warnings, "\n  "), strings.Join(rep.Placement, "\n  "))
	}
	// Size the sample buffers from the warm-up's own pace, with headroom.
	perCaller := float64(len(warm.ns) / len(e.callers))
	capacity := int(2*cfg.dur.Seconds()*perCaller/warm.wall.Seconds()) + 1024
	if e.pid == 0 {
		settle()
	}
	if !cfg.trace {
		return measuredRun(cfg, e, capacity, rep)
	}
	m, err := tracedRun(cfg, e, capacity, rep)
	if err != nil {
		return nil, err
	}
	if want := workloads[cfg.workload].memoHitRatio; math.Abs(m["memo.hit_ratio"]-want) > 0.01 {
		return nil, fmt.Errorf("harness bug: memo.hit_ratio is %.4f, by construction %.4f", m["memo.hit_ratio"], want)
	}
	return m, nil
}

// measuredRun is the untraced measured phase and the end-to-end metrics.
func measuredRun(cfg config, e *env, capacity int, rep *report) (metrics, error) {
	cpu0, err := cpuSeconds(e.pid)
	if err != nil {
		return nil, err
	}
	s := phase(e, nil, 0, cfg.dur, capacity)
	cpu1, err := cpuSeconds(e.pid)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(e.pid)
	if err != nil {
		return nil, err
	}
	rep.count(s)
	sorted := sortedCopy(s.ns)
	return metrics{
		"throughput_ops_s": float64(len(s.ns)-s.failed) / s.wall.Seconds(),
		"latency_p50_ms":   float64(percentile(sorted, 0.50)) / 1e6,
		"latency_p95_ms":   float64(percentile(sorted, 0.95)) / 1e6,
		"cpu_ms_per_op":    1e3 * (cpu1 - cpu0) / float64(len(s.ns)),
		"peak_rss_mb":      rss,
	}, nil
}

// ratio is total ÷ n, or 0 when there was nothing to divide by — the value
// of a metric its workload does not have.
func ratio(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// tracedRun spends half the time untraced — the reference for the tracing
// overhead, for core.query_us_per_op and for the allocation counters — and
// half traced, then derives the per-layer metrics.
func tracedRun(cfg config, e *env, capacity int, rep *report) (metrics, error) {
	m := metrics{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := phase(e, nil, 0, cfg.dur/2, capacity)
	runtime.ReadMemStats(&after)
	rep.count(plain)

	// One traced cycle first, so that the traced pipeline's own plan cache
	// is as warm as the engine's; then forget it.
	tracers := make([]*tracer, len(e.callers))
	for i := range tracers {
		tracers[i] = newTracer()
	}
	rep.count(phase(e, tracers, e.cycleLen, 0, e.cycleLen))
	for i, c := range e.callers {
		*c.tally() = tally{}
		tracers[i].reset()
	}
	var stats0 *service.StatsReport
	var gen0, bytes0, retries0 int64
	if e.serviceStats != nil {
		var err error
		if stats0, err = e.serviceStats(); err != nil {
			return nil, err
		}
		bytes0, retries0 = e.responseBytes(), e.retries()
	}
	if e.gauges != nil {
		_, gen0 = e.gauges()
	}

	traced := phase(e, tracers, 0, cfg.dur/2, capacity)
	rep.count(traced)
	if err := writeTrace(cfg.outDir, cfg.workload, tracers); err != nil {
		return nil, err
	}
	var t tally
	for _, c := range e.callers {
		t.add(c.tally())
	}
	lt := aggregate(tracers)

	var layers float64
	for _, name := range pipeline {
		us := lt.meanUS(name)
		m[spanNames[name]+"_us_per_op"] = us
		layers += us
	}
	var queryNS, queryOps int64
	for i, ns := range plain.ns {
		if e.pipeline[plain.class[i]] {
			queryNS += ns
			queryOps++
		}
	}
	if queryOps > 0 {
		m["core.query_us_per_op"] = ratio(queryNS, queryOps) / 1e3
		m["core.self_us_per_op"] = m["core.query_us_per_op"] - layers
	}

	st := t.stats
	m["exec.base_tuples_read_per_op"] = ratio(st.BaseTuplesRead, t.queries)
	m["exec.comparisons_per_op"] = ratio(st.Comparisons, t.queries)
	m["exec.hash_inserts_per_op"] = ratio(st.HashInserts, t.queries)
	m["exec.intermediate_tuples_per_op"] = ratio(st.IntermediateTuples, t.queries)
	m["exec.materializations_per_op"] = ratio(st.Materializations, t.queries)
	m["exec.output_tuples_per_op"] = ratio(st.OutputTuples, t.queries)
	m["exec.batches_emitted_per_op"] = ratio(st.BatchesEmitted, t.queries)
	m["exec.avg_batch_fill"] = ratio(st.BatchTuples, st.BatchesEmitted)
	m["memo.hit_ratio"] = ratio(t.memoHitOps, t.memoOps)
	m["memo.tuples_replayed_per_op"] = ratio(st.CacheTuplesReplayed, t.queries)
	m["memo.tuples_spooled_per_op"] = ratio(st.CacheTuplesSpooled, t.queries)
	if e.gauges != nil {
		snap, gen := e.gauges()
		m["memo.entries"] = float64(snap.CacheEntries)
		m["memo.tuples"] = float64(snap.CacheTuples)
		m["memo.spools_abandoned"] = float64(snap.MemoSpoolsAbandoned)
		m["storage.generation_bumps"] = float64(gen - gen0)
	}

	m["integrity.insert_checked_us_per_op"] = lt.meanUS(spInsertChecked)
	m["integrity.check_us_per_op"] = lt.meanUS(spCheck)
	m["integrity.rejected_share"] = ratio(t.rejected, t.writes)
	m["relation.delete_us_per_op"] = lt.meanUS(spDelete)

	if e.serviceStats != nil {
		stats1, err := e.serviceStats()
		if err != nil {
			return nil, err
		}
		q := sortedCopy(t.queueWaitUS)
		m["service.queue_wait_us_p50"] = float64(percentile(q, 0.50))
		m["service.queue_wait_us_p95"] = float64(percentile(q, 0.95))
		m["service.plan_us_per_op"] = ratio(t.planUS, t.responses)
		m["service.exec_us_per_op"] = ratio(t.execUS, t.responses)
		m["service.total_us_per_op"] = ratio(t.totalUS, t.responses)
		m["service.batch_mean"] = ratio(t.batch, t.responses)
		m["service.flight_share_ratio"] = ratio(t.flightShares, t.responses)
		m["service.cache_hit_ratio"] = ratio(t.cacheHits, t.responses)
		m["service.sheds"] = float64(stats1.Service.Sheds - stats0.Service.Sheds)
		m["service.errors"] = float64(stats1.Service.Errors - stats0.Service.Errors)
		m["client.roundtrip_us_per_op"] = lt.meanUS(spRoundtrip)
		m["client.http_overhead_us_per_op"] = lt.meanUS(spRoundtrip) - m["service.total_us_per_op"]
		m["client.response_kb_per_op"] = ratio(e.responseBytes()-bytes0, t.responses) / 1024
		m["client.retries"] = float64(e.retries() - retries0)
	}

	if e.pid == 0 {
		n := float64(len(plain.ns))
		m["proc.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
		m["proc.alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
		m["proc.gc_cycles"] = float64(after.NumGC - before.NumGC)
		m["proc.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	}

	sorted := sortedCopy(plain.ns)
	m["e2e.latency_p99_ms"] = float64(percentile(sorted, 0.99)) / 1e6
	m["e2e.latency_max_ms"] = float64(sorted[len(sorted)-1]) / 1e6
	m["e2e.samples"] = float64(len(sorted))
	plainRate := float64(len(plain.ns)) / plain.wall.Seconds()
	tracedRate := float64(len(traced.ns)) / traced.wall.Seconds()
	m["trace.overhead_share"] = 1 - tracedRate/plainRate
	return m, nil
}
