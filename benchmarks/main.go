// Command jbench is the repo's benchmark (see README.md): one workload
// per invocation, every metric printed by name and unit, and the verdict
// as one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/benchmarks/harness"
)

func main() {
	name := flag.String("workload", "", "workload: emb-a, emb-b, net-a or net-counter")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: per-layer run (ladder, probes, spans); 0: end-to-end run")
	quick := flag.Bool("quick", false, "smoke run: a tenth of the dataset, a twentieth of the time, one recovery, one set-up")
	workDir := flag.String("workdir", ".bench_build/work", "directory for pool links and scratch")
	serverBin := flag.String("gridserver", ".bench_build/bin/gridserver", "gridserver binary")
	traceDir := flag.String("tracedir", "benchmarks/out", "directory for the span file")
	check := flag.Bool("selfcheck", false, "measure the benchmark's own noise: alternate -sets sets of -runs runs of every workload")
	sets := flag.Int("sets", 2, "selfcheck: number of sets")
	runs := flag.Int("runs", 5, "selfcheck: runs per set and workload")
	flag.Parse()

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	if *check {
		self, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		ok, err := selfcheck(self, []string{"-workdir", *workDir, "-gridserver", *serverBin}, *sets, *runs, *seconds)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, err := harness.FindWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *quick {
		*seconds /= 20
	}
	res, err := harness.Run(harness.Options{
		Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick,
		WorkDir: *workDir, ServerBin: *serverBin, TraceDir: *traceDir, Log: os.Stdout,
	})
	if err != nil {
		fatal(err)
	}
	// This change defines the benchmark and claims no gain.
	fmt.Printf("{\"workload\": %q, \"seed\": %d, \"trace\": %d, \"claim\": null}\n", w.Name, *seed, *trace)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jbench:", err)
	os.Exit(1)
}
