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
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/stack"
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
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "gridserver:", err)
		os.Exit(1)
	}
}

// run serves until the listener fails or a signal on stop drains the
// server. The stack is closed exactly once, on every return path, and a
// pool that fails to close fails the process.
func run(args []string, out io.Writer, stop <-chan os.Signal) (err error) {
	fl := flag.NewFlagSet("gridserver", flag.ExitOnError)
	addr := fl.String("addr", "127.0.0.1:7420", "listen address")
	metricsAddr := fl.String("metrics-addr", "", "serve live metrics JSON + pprof on this address (e.g. :6060)")
	backend := fl.String("backend", stack.JPFA, "grid backend: "+strings.Join(stack.Kinds, ", "))
	commit := fl.String("commit", "async", "J-NVM commit protocol: per-tx or async")
	records := fl.Int("records", 8_000, "expected record count (pool sizing hint)")
	fields := fl.Int("fields", 10, "expected fields per record (pool sizing hint)")
	fieldLen := fl.Int("fieldlen", 100, "expected field value bytes (pool sizing hint)")
	dataDir := fl.String("data", "", "directory for the file-backed pool (empty: volatile in-memory NVMM simulation)")
	maxConns := fl.Int("max-conns", 256, "concurrent connection cap (accept-loop backpressure)")
	maxBatch := fl.Int("max-batch", 128, "max requests folded into one pipeline window")
	drainTimeout := fl.Duration("drain-timeout", 10*time.Second, "graceful drain bound on SIGTERM")
	_ = fl.Parse(args) // ExitOnError: a bad flag exits 2 and -h exits 0 before this returns

	if *metricsAddr != "" {
		obs.Serve(*metricsAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "gridserver: metrics:", err)
		})
	}

	st, err := stack.OpenGrid(stack.GridConfig{
		Backend:    *backend,
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
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	obs.Default.Publish("stack", func() any { return st.Snapshot() })

	// Count touches the backend's root structure, forcing the mirror
	// rebuild on a recovered heap, so "listening" below really means
	// ready to serve: a client's restart-to-ready clock includes rebuild
	// time.
	openStart := time.Now()
	recovered := st.Grid.Count()
	if recovered > 0 {
		fmt.Fprintf(out, "gridserver: recovered %d records in %v\n", recovered, time.Since(openStart).Round(time.Millisecond))
	}

	start := time.Now()

	// Only the async pipeline defers durability past the grid call; the
	// per-window wait is what makes an acknowledged write durable.
	var await func()
	if *commit == "async" {
		await = st.AwaitDurable
	}
	var srv *wire.Server
	srv = wire.NewServer(wire.ServerConfig{
		Grid:         st.Grid,
		AwaitDurable: await,
		MaxConns:     *maxConns,
		MaxBatch:     *maxBatch,
		StatsJSON: func() []byte {
			p := statsPayload{
				Backend:  *backend,
				Commit:   *commit,
				Records:  st.Grid.Count(),
				UptimeS:  time.Since(start).Seconds(),
				Server:   srv.Stats().Snapshot(),
				Stack:    st.Snapshot(),
				Recovery: st.Recovery(),
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
	fmt.Fprintf(out, "gridserver: listening on %s (backend=%s commit=%s max-conns=%d max-batch=%d)\n",
		l.Addr(), *backend, *commit, *maxConns, *maxBatch)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case sig := <-stop:
		fmt.Fprintf(out, "gridserver: %v: draining (timeout %v)\n", sig, *drainTimeout)
		clean := srv.Shutdown(*drainTimeout)
		<-done
		if !clean {
			return errors.New("drain timed out with connections still active")
		}
		fmt.Fprintln(out, "gridserver: drained")
		return nil
	case err := <-done:
		return err
	}
}
