// Command paper regenerates the tables and figures of the paper's
// evaluation: Figures 1 and 2 (the GC counter-examples of §2.2), Table 1
// (deletion sites), Figures 7-10 (YCSB), Figure 11 (TPC-B recovery),
// Figure 12 (data types), Table 3 (block bandwidth), the internal
// fragmentation of §5.3.5 and the ablations of DESIGN.md §7.
//
// Usage:
//
//	paper [-exp all|NAME,...] [-records N] [-ops N] [-threads N] [-run D]
//	      [-commit per-tx|async] [-metrics-addr ADDR] [-json FILE]
//
// Output opens with a "# commit <sha> GOMAXPROCS=<n>" line (the sha is
// stamped by go build, not go run), then each experiment's table and a
// blank line. A zero -records, -ops or -run keeps each figure's
// laptop-scaled default; the flags reach the paper's full-size
// parameters (3M records, 100M ops). -records also sizes Figure 11's
// bank, Figure 2's largest dataset (1 KB values) and the constant
// datasets of Figures 9c and 9d; -commit selects the J-NVM commit
// protocol of Figures 7 and 11.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/stack"
)

// experiment runs one table or figure at a scale, prints it and returns
// its rows for -json.
type experiment struct {
	name string
	run  func(sc bench.Scale, w io.Writer) (any, error)
}

// experiments is the paper's evaluation in output order.
var experiments = []experiment{
	{"fig1", func(sc bench.Scale, w io.Writer) (any, error) {
		return show(w, bench.PrintFig1)(bench.Fig1(sc, nil, 0))
	}},
	{"fig2", func(sc bench.Scale, w io.Writer) (any, error) {
		return show(w, bench.PrintFig2)(bench.Fig2(sc, nil, 0))
	}},
	{"fig7", func(sc bench.Scale, w io.Writer) (any, error) {
		return show(w, bench.PrintFig7)(bench.Fig7(sc, nil))
	}},
	{"fig8", func(sc bench.Scale, w io.Writer) (any, error) {
		return show(w, bench.PrintFig8)(bench.Fig8(sc, nil))
	}},
	{"fig9a", fig9("a")},
	{"fig9b", fig9("b")},
	{"fig9c", fig9("c")},
	{"fig9d", fig9("d")},
	{"fig10", func(sc bench.Scale, w io.Writer) (any, error) {
		return show(w, bench.PrintFig10)(bench.Fig10(sc, nil))
	}},
	{"fig11", func(sc bench.Scale, w io.Writer) (any, error) {
		cfg := bench.Fig11Config{Accounts: sc.Records, RunFor: sc.Run, Commit: sc.Commit}
		return show(w, bench.PrintFig11)(bench.Fig11(cfg))
	}},
	{"fig12", func(sc bench.Scale, w io.Writer) (any, error) {
		return show(w, bench.PrintFig12)(bench.Fig12(sc))
	}},
	{"table1", func(_ bench.Scale, w io.Writer) (any, error) {
		return show(w, bench.PrintTable1)(bench.Table1(nil))
	}},
	{"table3", func(_ bench.Scale, w io.Writer) (any, error) {
		return show(w, bench.PrintTable3)(bench.Table3(0))
	}},
	{"frag", func(_ bench.Scale, w io.Writer) (any, error) {
		return show(w, bench.PrintFragmentation)(bench.Fragmentation(), nil)
	}},
	{"ablation", func(sc bench.Scale, w io.Writer) (any, error) {
		return show(w, bench.PrintAblation)(ablations(sc.Operations))
	}},
}

// ablations runs the four ablations of DESIGN.md §7, each over ops
// operations (per worker for log-slots; 0 keeps each one's default).
func ablations(ops int) ([]bench.AblationRow, error) {
	var rows []bench.AblationRow
	for _, run := range []func(int) ([]bench.AblationRow, error){
		func(n int) ([]bench.AblationRow, error) { return bench.AblationValidation(n, 0) },
		func(n int) ([]bench.AblationRow, error) { return bench.AblationSmallPool(n, 0) },
		func(n int) ([]bench.AblationRow, error) { return bench.AblationLogSlots(n, 0) },
		bench.AblationFenceCost,
	} {
		r, err := run(ops)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func fig9(panel string) func(bench.Scale, io.Writer) (any, error) {
	return func(sc bench.Scale, w io.Writer) (any, error) {
		rows, err := bench.Fig9(panel, sc, nil)
		if err != nil {
			return nil, err
		}
		bench.PrintFig9(w, panel, rows)
		return rows, nil
	}
}

// show prints an experiment's rows unless it failed.
func show[R any](w io.Writer, render func(io.Writer, R)) func(R, error) (any, error) {
	return func(rows R, err error) (any, error) {
		if err != nil {
			return nil, err
		}
		render(w, rows)
		return rows, nil
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	fl := flag.NewFlagSet("paper", flag.ContinueOnError)
	fl.SetOutput(stderr)
	exp := fl.String("exp", "all", "comma-separated experiments, or all: "+strings.Join(names, ", "))
	var sc bench.Scale
	fl.IntVar(&sc.Records, "records", 0, "record count, also Figure 11's accounts and Figure 2's and 9c-d's datasets (0 = each figure's default)")
	fl.IntVar(&sc.Operations, "ops", 0, "operation count (0 = each figure's default)")
	fl.IntVar(&sc.Threads, "threads", 1, "YCSB client threads (the paper defaults to a sequential client)")
	fl.DurationVar(&sc.Run, "run", 0, "Figure 11's injection time (0 = 4s)")
	fl.StringVar(&sc.Commit, "commit", "per-tx", "J-NVM commit protocol of Figures 7 and 11: per-tx or async")
	metricsAddr := fl.String("metrics-addr", "", "serve live metrics JSON + pprof on this address (e.g. :6060)")
	jsonOut := fl.String("json", "", "also write each experiment's rows (Figure 7's with per-run metrics) as JSON to this file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, err := stack.ParseCommit(sc.Commit); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	todo := experiments
	if *exp != "all" {
		todo = nil
		for _, n := range strings.Split(*exp, ",") {
			i := slices.Index(names, n)
			if i < 0 {
				fmt.Fprintf(stderr, "unknown experiment %q; the experiments are all, %s\n", n, strings.Join(names, ", "))
				return 2
			}
			todo = append(todo, experiments[i])
		}
	}

	if *metricsAddr != "" {
		obs.Serve(*metricsAddr, func(err error) {
			fmt.Fprintf(stderr, "metrics listener: %v\n", err)
		})
	}
	fmt.Fprintf(stdout, "# commit %s GOMAXPROCS=%d\n", revision(), runtime.GOMAXPROCS(0))
	results := map[string]any{}
	for _, e := range todo {
		rows, err := e.run(sc, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
		results[e.name] = rows
		fmt.Fprintln(stdout)
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "write %s: %v\n", *jsonOut, err)
			return 1
		}
	}
	return 0
}

// revision is the commit the binary was built from, "+dirty" when the
// tree had uncommitted changes, or "unknown" in a build without VCS
// stamps (go run).
func revision() string {
	info, _ := debug.ReadBuildInfo()
	rev, dirty := "unknown", ""
	if info != nil {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 7:
				rev = s.Value[:7]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
