// Command perfbench is the repository's wall-clock benchmark: four closed-loop
// workloads, six end-to-end metrics measured with tracing off, and a separate
// traced run that attributes time and work to each layer. README.md in this
// directory defines every workload and metric and explains each stabiliser.
//
//	go run ./perfbench -workload cold_quantified -seed 1            # end-to-end metrics
//	go run ./perfbench -workload warm_replay -seed 1 -trace 1       # per-layer metrics
//	go run ./perfbench -selfcheck                                   # five runs each, spread vs bound
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
// when an op failed, an answer differed from the oracle, or the harness
// refused to measure (vacuous pool query, percentile-placement violation).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeconds is the measured phase's length; BENCHMARK.json's run_seconds
// carries the same number.
const defaultSeconds = 20

// defaultSetups is how many times a run sets up; setup_s is their median and
// the measured phase uses the last one.
const defaultSetups = 3

type config struct {
	workload string
	seed     int64
	scale    int
	dur      time.Duration
	trace    bool
	setups   int
	outDir   string
	// strict makes a vacuous pool query or a percentile-placement violation
	// a refusal to measure. The smoke test turns it off because its scale-100
	// database is too small for either rule to hold.
	strict bool
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the dataset, the op schedule and the written tuples")
	flag.IntVar(&cfg.scale, "scale", 1000, "dataset scale (students); every committed number uses the default")
	flag.Float64Var(&seconds, "seconds", defaultSeconds, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	selfcheck := flag.Bool("selfcheck", false, "run every workload five times and compare each metric's spread with its bound in BENCHMARK.json")
	flag.Parse()
	cfg.dur = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0
	cfg.setups = defaultSetups
	cfg.outDir = "perfbench/out"
	cfg.strict = true

	pinRuntime()
	if *selfcheck {
		if err := runSelfcheck(cfg); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if err := rep.write(cfg.outDir); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// procs is the GOMAXPROCS the harness runs under and hands to the daemon:
// the box's CPUs, capped so a larger machine measures the same configuration.
func procs() int {
	return min(runtime.NumCPU(), 4)
}

// pinRuntime fixes the two runtime settings that move every metric, so a
// caller's environment cannot.
func pinRuntime() {
	runtime.GOMAXPROCS(procs())
	debug.SetGCPercent(100)
}

// result is the benchmark contract's last-line object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
