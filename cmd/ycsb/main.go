// Command ycsb regenerates the YCSB figures of the paper's evaluation:
// Figure 7 (backend throughput), Figure 8 (marshalling cost), Figures
// 9a-9d (sensitivity) and Figure 10 (thread scaling).
//
// Usage:
//
//	ycsb -exp fig7 [-records N] [-ops N] [-threads N]
//	ycsb -exp fig8|fig9a|fig9b|fig9c|fig9d|fig10|all
//
// The paper's full-size parameters (3M records, 100M ops) are reachable
// with the flags; defaults are laptop-scaled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/stack"
)

func main() {
	exp := flag.String("exp", "fig7", "experiment: fig7, fig8, fig9a, fig9b, fig9c, fig9d, fig10, exte, shard, all")
	records := flag.Int("records", 0, "record count (0 = scaled default)")
	ops := flag.Int("ops", 0, "operation count (0 = scaled default)")
	threads := flag.Int("threads", 1, "client threads (the paper defaults to a sequential client)")
	pools := flag.String("pools", "1,4,8", "pool counts for -exp shard (DESIGN.md \u00a717)")
	commit := flag.String("commit", "per-tx", "J-NVM commit protocol: per-tx, group or async")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics JSON + pprof on this address (e.g. :6060)")
	jsonOut := flag.String("json", "", "also write experiment rows (with embedded per-run metrics) as JSON to this file")
	flag.Parse()

	if *metricsAddr != "" {
		obs.Serve(*metricsAddr, func(err error) {
			fmt.Fprintf(os.Stderr, "metrics listener: %v\n", err)
		})
	}
	results := map[string]any{}

	sc := bench.DefaultScale()
	if *records > 0 {
		sc.Records = *records
	}
	if *ops > 0 {
		sc.Operations = *ops
	}
	sc.Threads = *threads
	if _, err := stack.ParseCommit(*commit); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sc.Commit = *commit

	run := func(name string) error {
		switch name {
		case "fig7":
			rows, err := bench.Fig7(sc, nil)
			if err != nil {
				return err
			}
			bench.PrintFig7(os.Stdout, rows)
			results[name] = rows
		case "fig8":
			rows, err := bench.Fig8(sc, nil)
			if err != nil {
				return err
			}
			bench.PrintFig8(os.Stdout, rows)
			results[name] = rows
		case "fig9a":
			rows, err := bench.Fig9a(sc, nil)
			if err != nil {
				return err
			}
			bench.PrintFig9(os.Stdout, "Figure 9a — impact of the cache ratio (YCSB-A)", rows)
			results[name] = rows
		case "fig9b":
			rows, err := bench.Fig9b(sc, nil)
			if err != nil {
				return err
			}
			bench.PrintFig9(os.Stdout, "Figure 9b — impact of the number of records (YCSB-A)", rows)
			results[name] = rows
		case "fig9c":
			rows, err := bench.Fig9c(sc, nil)
			if err != nil {
				return err
			}
			bench.PrintFig9(os.Stdout, "Figure 9c — impact of the number of fields (YCSB-A)", rows)
			results[name] = rows
		case "fig9d":
			rows, err := bench.Fig9d(sc, nil)
			if err != nil {
				return err
			}
			bench.PrintFig9(os.Stdout, "Figure 9d — impact of the record size (YCSB-A)", rows)
			results[name] = rows
		case "fig10":
			rows, err := bench.Fig10(sc, nil)
			if err != nil {
				return err
			}
			bench.PrintFig10(os.Stdout, rows)
			results[name] = rows
		case "exte":
			rows, err := bench.ExtE(sc, 0)
			if err != nil {
				return err
			}
			bench.PrintExtE(os.Stdout, rows)
			results[name] = rows
		case "shard":
			var counts []int
			for _, tok := range strings.Split(*pools, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil || n < 1 {
					return fmt.Errorf("bad -pools entry %q", tok)
				}
				counts = append(counts, n)
			}
			ssc := sc
			if ssc.Threads < 8 {
				ssc.Threads = 8 // the sweep's point is contending clients
			}
			var rows []bench.ShardRow
			for _, bk := range []bench.BackendKind{bench.JPFA, bench.JPDT} {
				r, err := bench.ShardSweep(ssc, bk, "A", counts)
				if err != nil {
					return err
				}
				rows = append(rows, r...)
			}
			bench.PrintShard(os.Stdout, rows)
			results[name] = rows
			if err := bench.ShardGate(rows); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"fig7", "fig8", "fig9a", "fig9b", "fig9c", "fig9d", "fig10", "exte", "shard"}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
	}
}
