package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// selfcheckRuns is how many times the self-check runs each workload.
const selfcheckRuns = 5

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck runs every workload selfcheckRuns times, each in a process of
// its own (so that set-up time and peak RSS are a fresh process's), prints
// min, median, max and (max−min)/median of every end-to-end metric, and
// fails when a spread exceeds the metric's bound in BENCHMARK.json or a run
// fails — which a percentile-placement violation makes it do.
func runSelfcheck(cfg config) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the self-check runs from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var over []string
	for _, name := range workloadOrder {
		values := map[string][]float64{}
		for i := 0; i < selfcheckRuns; i++ {
			cmd := exec.Command(self,
				"-workload", name,
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-scale", strconv.Itoa(cfg.scale),
				"-seconds", strconv.FormatFloat(cfg.dur.Seconds(), 'g', -1, 64))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i+1, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: last line: %w", name, i+1, err)
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
			fmt.Printf("%s run %d/%d: attempted=%d failed=%d\n", name, i+1, selfcheckRuns, res.Attempted, res.Failed)
		}
		fmt.Printf("%-16s %-18s %12s %12s %12s %8s %6s\n", name, "metric", "min", "median", "max", "spread", "bound")
		for _, m := range bf.EndToEnd {
			v := values[m.Name]
			if len(v) != selfcheckRuns {
				return fmt.Errorf("%s: metric %s reported %d times in %d runs", name, m.Name, len(v), selfcheckRuns)
			}
			lo, hi, mid := slices.Min(v), slices.Max(v), median(v)
			spread := (hi - lo) / mid
			verdict := ""
			if spread > m.Bound {
				verdict = "  OVER"
				over = append(over, fmt.Sprintf("%s %s: spread %.3f > bound %.3f", name, m.Name, spread, m.Bound))
			}
			fmt.Printf("%-16s %-18s %12.4f %12.4f %12.4f %8.3f %6.3f%s\n", "", m.Name, lo, mid, hi, spread, m.Bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("self-check failed:\n  %s", strings.Join(over, "\n  "))
	}
	fmt.Println("self-check passed: every spread is within its bound")
	return nil
}
