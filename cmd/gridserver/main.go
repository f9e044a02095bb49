// Command gridserver exposes the embedded data grid over TCP: the wire
// protocol of internal/wire (DESIGN.md §16), per-connection pipeline
// batching folded into the async group-commit pipeline, connection-limit
// backpressure, and graceful drain on SIGTERM. With -data the NVMM pool
// is file-backed, so a SIGKILLed server restarted on the same directory
// recovers every acknowledged write; the repo's benchmark (benchmarks/)
// kills and audits it that way on every net-* run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/wire"
)

// statsPayload is the OpStats response document. The benchmark diffs two
// of these to derive pwb/op and pfence/op for a run interval.
type statsPayload struct {
	Backend  string                 `json:"backend"`
	Commit   string                 `json:"commit"`
	Records  int                    `json:"records"`
	UptimeS  float64                `json:"uptime_s"`
	Server   obs.ServerSnapshot     `json:"server"`
	Stack    *obs.StackSnapshot     `json:"stack"`
	Recovery []obs.RecoverySnapshot `json:"recovery,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gridserver:", err)
		os.Exit(1)
	}
}

// run serves until the listener fails or a signal drains the server. The
// environment is closed exactly once, on every return path, and a pool
// that fails to close fails the process.
func run() (err error) {
	addr := flag.String("addr", "127.0.0.1:7420", "listen address")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics JSON + pprof on this address (e.g. :6060)")
	backend := flag.String("backend", "J-PFA", "grid backend: J-PFA, J-PDT, PCJ, Volatile, TmpFS, FS")
	commit := flag.String("commit", "async", "J-NVM commit protocol: per-tx or async")
	records := flag.Int("records", 8_000, "expected record count (pool sizing hint)")
	fields := flag.Int("fields", 10, "expected fields per record (pool sizing hint)")
	fieldLen := flag.Int("fieldlen", 100, "expected field value bytes (pool sizing hint)")
	dataDir := flag.String("data", "", "directory for the file-backed pool (empty: volatile in-memory NVMM simulation)")
	maxConns := flag.Int("max-conns", 256, "concurrent connection cap (accept-loop backpressure)")
	maxBatch := flag.Int("max-batch", 128, "max requests folded into one pipeline window")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful drain bound on SIGTERM")
	flag.Parse()

	if *metricsAddr != "" {
		obs.Serve(*metricsAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "gridserver: metrics:", err)
		})
	}

	env, err := bench.NewEnv(bench.GridConfig{
		Backend:    bench.BackendKind(*backend),
		Records:    *records * 2,
		FieldCount: *fields,
		FieldLen:   *fieldLen,
		Commit:     *commit,
		DataDir:    *dataDir,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := env.Close(); err == nil {
			err = cerr
		}
	}()

	// Count touches the backend's root structure, forcing the mirror
	// rebuild on a recovered heap, so "listening" below really means
	// ready to serve: a client's restart-to-ready clock includes rebuild
	// time.
	openStart := time.Now()
	recovered := env.Grid.Count()
	if recovered > 0 {
		fmt.Printf("gridserver: recovered %d records in %v\n", recovered, time.Since(openStart).Round(time.Millisecond))
	}

	start := time.Now()

	// Only the async pipeline defers durability past the grid call; the
	// per-window wait is what makes an acknowledged write durable.
	var await func()
	if *commit == "async" {
		await = env.AwaitDurable
	}
	var srv *wire.Server
	srv = wire.NewServer(wire.ServerConfig{
		Grid:         env.Grid,
		AwaitDurable: await,
		MaxConns:     *maxConns,
		MaxBatch:     *maxBatch,
		StatsJSON: func() []byte {
			p := statsPayload{
				Backend:  *backend,
				Commit:   *commit,
				Records:  env.Grid.Count(),
				UptimeS:  time.Since(start).Seconds(),
				Server:   srv.Stats().Snapshot(),
				Stack:    env.Snapshot(),
				Recovery: env.Recovery(),
			}
			buf, err := json.Marshal(p)
			if err != nil {
				return []byte("{}")
			}
			return buf
		},
	})
	obs.Default.Publish("gridserver", func() any { return srv.Stats().Snapshot() })

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("gridserver: listening on %s (backend=%s commit=%s max-conns=%d max-batch=%d)\n",
		l.Addr(), *backend, *commit, *maxConns, *maxBatch)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case sig := <-sigCh:
		fmt.Printf("gridserver: %v: draining (timeout %v)\n", sig, *drainTimeout)
		clean := srv.Shutdown(*drainTimeout)
		<-done
		if !clean {
			return errors.New("drain timed out with connections still active")
		}
		fmt.Println("gridserver: drained")
		return nil
	case err := <-done:
		return err
	}
}
