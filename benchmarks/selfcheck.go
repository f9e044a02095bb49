package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/benchmarks/harness"
)

// selfcheck measures the benchmark's own noise the way the driver judges
// it: `sets` sets of `runs` runs of this same build, alternating between
// the sets, every run in a fresh process with another seed. For every
// end-to-end metric and workload it prints each set's median, how much
// worse the later set's median is than the first's, and each set's
// quartile spread (Q3-Q1 over the median, exclusive quartiles), next to
// the metric's bound. It reports a breach when a median moved, or a
// spread is wider, by more than the bound (setup_s is exempt from the
// spread rule, as with the driver), and returns false if there was one.
func selfcheck(self string, passthrough []string, sets, runs int, seconds float64) (bool, error) {
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][][]float64{}
	for _, w := range harness.Workloads {
		values[w.Name] = map[string][][]float64{}
		for _, m := range harness.EndToEnd {
			values[w.Name][m.Name] = make([][]float64, sets)
		}
	}
	for run := 0; run < runs; run++ {
		for set := 0; set < sets; set++ {
			for _, w := range harness.Workloads {
				seed := 1 + run + 1000*set
				args := append(append([]string{}, passthrough...), "-workload", w.Name,
					"-seed", strconv.Itoa(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
				res, err := runOnce(self, args)
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				if !res.Correct {
					return false, fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, seed, res.Failed, res.Attempted)
				}
				for _, m := range harness.EndToEnd {
					values[w.Name][m.Name][set] = append(values[w.Name][m.Name][set], res.Metrics[m.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %d %s done\n", run+1, runs, set+1, w.Name)
			}
		}
	}

	ok := true
	fmt.Printf("%d sets x %d runs x %g s, alternating sets; spread = (Q3-Q1)/median within a set;\n", sets, runs, seconds)
	fmt.Printf("moved = how much worse a later set's median is than set 1's (negative: better).\n\n")
	fmt.Printf("| workload | metric | unit | set medians | moved | spreads | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	for _, w := range harness.Workloads {
		for _, m := range harness.EndToEnd {
			var meds, spreads []string
			var first, widest float64
			moved := math.Inf(-1)
			for set, xs := range values[w.Name][m.Name] {
				med := harness.Median(xs)
				q1, q3 := harness.Quartiles(xs)
				spread := (q3 - q1) / med
				widest = math.Max(widest, spread)
				if set == 0 {
					first = med
				} else {
					worse := (med - first) / first
					if m.Better == "higher" {
						worse = -worse
					}
					moved = math.Max(moved, worse)
				}
				meds = append(meds, fmt.Sprintf("%.4g", med))
				spreads = append(spreads, fmt.Sprintf("%.1f%%", 100*spread))
			}
			if sets < 2 {
				moved = 0
			}
			verdict := "ok"
			if moved > m.Bound || (m.Name != "setup_s" && widest > m.Bound) {
				verdict = "BREACH"
				ok = false
			} else if m.Name != "setup_s" && widest > m.Bound/3 {
				verdict = "ok (spread over a third of the bound)"
			}
			fmt.Printf("| %s | %s | %s | %s | %+.1f%% | %s | %.0f%% | %s |\n", w.Name, m.Name, m.Unit,
				strings.Join(meds, " / "), 100*moved, strings.Join(spreads, " / "), 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

// runOnce runs this binary once and parses the verdict on its last line.
func runOnce(self string, args []string) (*harness.Result, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res harness.Result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a verdict: %w", err)
	}
	return &res, nil
}
