package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// report is one run's record: where and how it ran, what it measured. It is
// printed, written to <out>/<workload>.json, and reduced to the contract's
// last-line object.
type report struct {
	Workload   string  `json:"workload"`
	Traced     bool    `json:"traced"`
	Seed       int64   `json:"seed"`
	Scale      int     `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Started    string  `json:"started"`

	SetupSeconds []float64 `json:"setup_seconds"`
	// Placement is the calibrated class layout the percentile placement
	// rule was checked on; Warnings lists vacuity and placement findings
	// (always empty for a run that measured under -strict).
	Placement []string `json:"placement"`
	Warnings  []string `json:"warnings"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// FirstFailure is the reason the first failed op gave.
	FirstFailure string `json:"first_failure,omitempty"`
	// PercentileSamples says how many samples lie at or beyond each
	// reported percentile: what makes p95 trustworthy and p99 informational.
	PercentileSamples map[string]int `json:"percentile_samples"`

	Metrics []reportMetric `json:"metrics"`
}

type reportMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

func newReport(cfg config) *report {
	return &report{
		Workload:   cfg.workload,
		Traced:     cfg.trace,
		Seed:       cfg.seed,
		Scale:      cfg.scale,
		Seconds:    cfg.dur.Seconds(),
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Started:    time.Now().UTC().Format(time.RFC3339),
		Correct:    true,
	}
}

// commit is the VCS revision the toolchain stamped into the binary;
// "unknown" outside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// count adds one phase's ops to the attempted/failed totals.
func (r *report) count(s *samples) {
	r.Attempted += len(s.ns)
	r.Failed += s.failed
	if s.failed > 0 {
		r.Correct = false
		if r.FirstFailure == "" {
			r.FirstFailure = s.firstErr.Error()
		}
	}
	if r.PercentileSamples == nil {
		n := len(s.ns)
		r.PercentileSamples = map[string]int{
			"total": n,
			"p50":   n - n/2,
			"p95":   n - n*95/100,
			"p99":   n - n*99/100,
		}
	}
}

func (r *report) setMetrics(m metrics, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		r.Metrics = append(r.Metrics, reportMetric{d.name, d.unit, m[d.name]})
	}
}

func (r *report) result() result {
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range r.Metrics {
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return res
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload   %s (traced=%v)\n", r.Workload, r.Traced)
	fmt.Fprintf(w, "commit     %s\n", r.Commit)
	fmt.Fprintf(w, "machine    %s, nproc=%d, GOMAXPROCS=%d, %s\n", r.CPUModel, r.NProc, r.GOMAXPROCS, r.GoVersion)
	fmt.Fprintf(w, "inputs     seed=%d scale=%d replica=%d seconds=%g\n", r.Seed, r.Scale, replicaScale, r.Seconds)
	fmt.Fprintf(w, "set-ups    %.3f s\n", r.SetupSeconds)
	fmt.Fprintln(w, "calibrated class layout (share of ops, class, median latency):")
	for _, l := range r.Placement {
		fmt.Fprintln(w, "  "+l)
	}
	for _, l := range r.Warnings {
		fmt.Fprintln(w, "WARNING "+l)
	}
	if r.FirstFailure != "" {
		fmt.Fprintln(w, "FAILED OP  "+r.FirstFailure)
	}
	ps := r.PercentileSamples
	fmt.Fprintf(w, "ops        attempted=%d failed=%d; first phase n=%d, at or beyond p50 %d, p95 %d, p99 %d\n",
		r.Attempted, r.Failed, ps["total"], ps["p50"], ps["p95"], ps["p99"])
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
}

func (r *report) write(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := r.Workload + ".json"
	if r.Traced {
		name = r.Workload + ".traced.json"
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
