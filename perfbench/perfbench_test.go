package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
)

// smokeScale is too small for the vacuity and placement rules, which the
// smoke runs therefore report (strict off) without refusing to measure.
const smokeScale = 100

// contract is the part of BENCHMARK.json the tests compare the code with.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesCode: BENCHMARK.json names exactly the workloads and
// metrics the program knows, with the same units and run length.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, workloadOrder)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default %d", c.RunSeconds, defaultSeconds)
	}
	for _, side := range []struct {
		what string
		file []contractMetric
		code []metricDef
	}{{"end_to_end", c.EndToEnd, endToEnd}, {"per_layer", c.PerLayer, perLayer}} {
		if len(side.file) != len(side.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", side.what, len(side.file), len(side.code))
			continue
		}
		for i, m := range side.file {
			if d := side.code[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", side.what, i, m.Name, m.Unit, d.name, d.unit)
			}
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", side.what, m.Name)
			}
		}
	}
}

// TestSmoke runs every workload for a second at a small scale, untraced and
// traced: each emits exactly its side of BENCHMARK.json, no op fails, and —
// run returning without error — queryd drains with exit code 0.
func TestSmoke(t *testing.T) {
	pinRuntime()
	c := readContract(t)
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			if name == "serve_warm" && testing.Short() {
				t.Skip("builds and runs queryd")
			}
			for _, traced := range []bool{false, true} {
				cfg := config{workload: name, seed: 7, scale: smokeScale, dur: time.Second, trace: traced, setups: 1, outDir: t.TempDir()}
				rep, err := run(cfg)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				res := rep.result()
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := c.EndToEnd
				if traced {
					want = c.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json names %d", traced, len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s (%s): emitted %v (present=%v)", traced, m.Name, m.Unit, got, ok)
					}
				}
				if !traced {
					for _, m := range rep.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want positive", m.Name, m.Value)
						}
					}
					continue
				}
				if _, err := os.Stat(cfg.outDir + "/trace_" + name + ".jsonl"); err != nil {
					t.Error(err)
				}
				if over := res.Metrics["trace.overhead_share"].Value; over >= 0.5 {
					t.Errorf("trace.overhead_share = %v", over)
				}
			}
		})
	}
}

// TestTracedPipelineAgrees: for every pool text the layer-by-layer pipeline
// returns what Engine.QueryContext returns, cold and warm, cache off and on.
func TestTracedPipelineAgrees(t *testing.T) {
	db, err := buildDB(smokeScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string]bool{}
	for _, q := range append(coldPool(), warmPool()...) {
		texts[q.text] = true
	}
	for _, text := range churnReports {
		texts[text] = true
	}
	ref := core.NewEngine(db, core.WithoutPlanCache())
	tr := newTracer()
	memo := exec.NewMemo(0)
	for text := range texts {
		res, err := ref.QueryContext(context.Background(), text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		want := answerOf(res)
		for _, run := range []struct {
			what string
			memo *exec.Memo
		}{{"cache off", nil}, {"cache cold", memo}, {"cache warm", memo}} {
			got, err := tracedQuery(tr, db, run.memo, text)
			if err != nil {
				t.Fatalf("%s (%s): %v", text, run.what, err)
			}
			if a := answerOf(got); a != want {
				t.Errorf("%s (%s): traced pipeline answers %v, QueryContext %v", text, run.what, a, want)
			}
			if got.Canonical != res.Canonical {
				t.Errorf("%s: canonical forms differ", text)
			}
		}
	}
	lt := aggregate([]*tracer{tr})
	var layers int64
	for _, name := range pipeline {
		layers += lt.total[name]
	}
	if lt.count[spQuery] != int64(3*len(texts)) || layers > lt.total[spQuery] {
		t.Errorf("%d root spans of %d ns in all, their layer spans %d ns", lt.count[spQuery], lt.total[spQuery], layers)
	}
}

// TestServePoolOnDaemonData: the serve_warm pool is non-vacuous on the
// database queryd builds at the default scale, and agrees with the
// nested-loop interpreter on the replica.
func TestServePoolOnDaemonData(t *testing.T) {
	vacuous, err := oracle(daemonDB(1000), daemonDB(replicaScale), servePool())
	if err != nil {
		t.Fatal(err)
	}
	if len(vacuous) > 0 {
		t.Error(strings.Join(vacuous, "\n"))
	}
}

func TestPlacement(t *testing.T) {
	classes := []string{"fast", "mid", "slow"}
	for _, tc := range []struct {
		what       string
		medianNS   []int64
		share      []float64
		violations int
	}{
		{"p50 and p95 inside classes", []int64{100, 200, 400}, []float64{0.4, 0.5, 0.1}, 0},
		{"p50 on a step", []int64{100, 200, 400}, []float64{0.49, 0.41, 0.1}, 1},
		{"p95 on a step", []int64{100, 200, 400}, []float64{0.4, 0.54, 0.06}, 1},
		{"p50 on a boundary between classes of one cost", []int64{100, 105, 400}, []float64{0.5, 0.4, 0.1}, 0},
		{"order comes from the latencies", []int64{400, 100, 200}, []float64{0.1, 0.4, 0.5}, 0},
	} {
		if _, v := placement(classes, tc.medianNS, tc.share); len(v) != tc.violations {
			t.Errorf("%s: %d violations %v, want %d", tc.what, len(v), v, tc.violations)
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	qs := coldPool()
	classes, a := schedule(qs, 3)
	_, b := schedule(qs, 3)
	_, c := schedule(qs, 4)
	if len(classes) != 15 || len(a) != 30 {
		t.Fatalf("%d classes, %d slots", len(classes), len(a))
	}
	same := func(x, y []*op) bool {
		for i := range x {
			if x[i].text != y[i].text {
				return false
			}
		}
		return true
	}
	if !same(a, b) || same(a, c) {
		t.Error("the cycle must be a function of the seed")
	}
	if n := len(warmPool()); n != 60 {
		t.Errorf("warm_replay has %d texts, want 60", n)
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]int64{0.5: 5, 0.95: 10, 0.1: 1, 0.11: 2} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(%v) = %d, want %d", q, got, want)
		}
	}
}
