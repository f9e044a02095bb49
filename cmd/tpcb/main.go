// Command tpcb regenerates Figure 11: the TPC-B-like bank is hammered
// with transfers, killed mid-run, restarted, and the throughput timeline
// plus the restart delay are reported for Volatile, J-PFA, J-PFA-nogc and
// FS.
//
// Usage:
//
//	tpcb [-accounts N] [-clients N] [-run 4s] [-crash 2s]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/stack"
)

func main() {
	accounts := flag.Int("accounts", 20_000, "bank accounts (paper: 10M)")
	clients := flag.Int("clients", 4, "load-injector goroutines")
	runFor := flag.Duration("run", 4*time.Second, "total injection time")
	crashAt := flag.Duration("crash", 0, "crash instant (default run/2)")
	bucket := flag.Duration("bucket", 100*time.Millisecond, "timeline bucket")
	commit := flag.String("commit", "per-tx", "J-PFA commit protocol: per-tx, group or async")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics JSON + pprof on this address (e.g. :6060)")
	flag.Parse()

	if _, err := stack.ParseCommit(*commit); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *metricsAddr != "" {
		obs.Serve(*metricsAddr, func(err error) {
			fmt.Fprintf(os.Stderr, "metrics listener: %v\n", err)
		})
	}

	tls, err := bench.Fig11(bench.Fig11Config{
		Accounts:   *accounts,
		Clients:    *clients,
		RunFor:     *runFor,
		CrashAfter: *crashAt,
		Bucket:     *bucket,
		Commit:     *commit,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bench.PrintFig11(os.Stdout, tls)
}
