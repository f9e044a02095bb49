// Command crashmc runs the deterministic crash-consistency explorer over
// the standing workloads (see internal/crashmc). It exits non-zero if any
// crash image violates its workload's invariants, printing a minimized
// (point, sample, seed) report that reproduces the failure with one
// command:
//
//	go run ./cmd/crashmc -workload bank -seed 1 -point 137 -sample 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/crashmc"
)

func main() {
	var names []string
	width := 0
	for _, w := range crashmc.Workloads() {
		names = append(names, w.Name)
		width = max(width, len(w.Name))
	}
	var (
		workload    = flag.String("workload", "all", "workload to explore ("+strings.Join(names, ", ")+", all)")
		points      = flag.Int("points", 0, "max crash points per workload (0 = every ordering point)")
		samples     = flag.Int("samples", 4, "random line-subset images per crash point")
		seed        = flag.Int64("seed", 1, "seed for the op mix and subset sampling")
		point       = flag.Int("point", 0, "explore only this crash point (repro mode)")
		sample      = flag.Int("sample", -3, "with -point: only this sample index (-1 strict, -2 all-pending)")
		maxFailures = flag.Int("max-failures", 3, "stop a workload after this many failures (<0 = unlimited)")
		out         = flag.String("out", "", "write the JSON report here")
		verbose     = flag.Bool("v", false, "log per-workload progress")
	)
	flag.Parse()

	var targets []*crashmc.Workload
	if *workload == "all" {
		targets = crashmc.Workloads()
	} else {
		w, ok := crashmc.ByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "crashmc: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		targets = []*crashmc.Workload{w}
	}
	if *point > 0 && *workload == "all" {
		fmt.Fprintln(os.Stderr, "crashmc: -point requires a single -workload")
		os.Exit(2)
	}

	opt := crashmc.Options{
		Points:      *points,
		Samples:     *samples,
		Seed:        *seed,
		Point:       *point,
		Sample:      *sample,
		MaxFailures: *maxFailures,
	}
	if *verbose {
		opt.Log = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}

	var reports []*crashmc.Report
	failures := 0
	for _, w := range targets {
		start := time.Now()
		rep, err := crashmc.Explore(w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashmc: %s: %v\n", w.Name, err)
			os.Exit(2)
		}
		reports = append(reports, rep)
		failures += len(rep.Failures)
		fmt.Printf("%-*s %6d points, explored %5d, %6d images, %d failures (%.1fs)\n",
			width, w.Name, rep.Points, rep.Explored, rep.Images, len(rep.Failures), time.Since(start).Seconds())
		for i := range rep.Failures {
			fmt.Println(rep.Failures[i].String())
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashmc: write %s: %v\n", *out, err)
			os.Exit(2)
		}
	}

	if failures > 0 {
		fmt.Printf("crashmc: %d failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("crashmc: all invariants held")
}
