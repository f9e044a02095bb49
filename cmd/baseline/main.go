// Command baseline records the repository's performance baseline: short
// YCSB-A/B/C/F passes over the three J-NVM backends plus a
// multi-goroutine TPC-B transfer pass, each annotated with the
// persistence-primitive rates (pwb/op, pfence/op) and the Go allocation
// rate (allocs/op) from the shared obs layer. The output file
// (BENCH_baseline.json via `make bench`) anchors the perf trajectory of
// the optimization PRs: each pipeline change re-runs it and diffs the
// throughput, flush-rate and allocation columns against the committed
// baseline. num_cpu is recorded per row so cross-host runs stay
// comparable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/stack"
	"repro/internal/tpcb"
	"repro/internal/ycsb"
)

// Row is one benchmark measurement.
type Row struct {
	Bench string `json:"bench"`
	// Commit is the J-NVM commit protocol of the row: empty (the
	// per-Tx default), "per-tx" (explicit, in the group-commit sweep),
	// "group" or "async".
	Commit  string `json:"commit,omitempty"`
	Backend string `json:"backend"`
	Threads int    `json:"threads"`
	// Pools is the NVMM pool count of the row's heap (DESIGN.md §17);
	// 0/1 is the classic single-pool stack.
	Pools       int     `json:"pools,omitempty"`
	Ops         int     `json:"ops"`
	NumCPU      int     `json:"num_cpu"`
	KopsSec     float64 `json:"kops_sec"`
	P99Us       float64 `json:"p99_us"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	PWBPerOp    float64 `json:"pwb_per_op"`
	PFencePerOp float64 `json:"pfence_per_op"`
	StoresPerOp float64 `json:"stores_per_op"`
	// Commit-pipeline columns (J-PFA only): cache lines the flush set
	// coalesced away per op, and the share of Begins served by a warm
	// cached transaction.
	CoalescedPerOp float64 `json:"coalesced_per_op"`
	WarmTxPct      float64 `json:"warm_tx_pct"`
	// Stack embeds the full cross-layer counter deltas for the run (FA
	// slot/coalescing counters, heap allocator traffic, grid latencies).
	Stack *obs.StackSnapshot `json:"stack,omitempty"`
}

// Baseline is the serialized result file.
type Baseline struct {
	results.Header
	Records    int   `json:"ycsb_records"`
	Operations int   `json:"ycsb_operations"`
	Accounts   int   `json:"tpcb_accounts"`
	Transfers  int   `json:"tpcb_transfers"`
	Rows       []Row `json:"rows"`
}

func main() {
	records := flag.Int("records", 8_000, "YCSB record count")
	ops := flag.Int("ops", 30_000, "YCSB operations per pass")
	threads := flag.Int("threads", 1, "YCSB client goroutines (the J-PFA backend requires 1; see DESIGN.md)")
	accounts := flag.Int("accounts", 10_000, "TPC-B accounts")
	transfers := flag.Int("transfers", 40_000, "TPC-B transfers per pass")
	groupCommit := flag.Bool("group-commit", false, "run the main rows with shared commit barriers")
	durability := flag.String("durability", "sync", "main rows' commit durability: sync or async")
	pools := flag.Int("pools", 1, "shard the main YCSB rows across this many NVMM pools (1 = classic single-pool stack)")
	check := flag.String("check", "", "compare against this committed baseline JSON and fail on pwb/pfence-per-op regressions instead of recording")
	checkKops := flag.Bool("check-kops", false, "with -check, also gate throughput: rows whose committed counterpart ran on the same CPU count must keep their Kops/s within tolerance")
	checkAllocs := flag.Bool("check-allocs", false, "with -check, also gate the Go allocation rate: single-threaded rows must keep allocs/op within tolerance (the read-path column of DESIGN.md §14)")
	tol := flag.Float64("tol", 0.15, "relative per-op regression tolerance for -check (doubled for multi-threaded rows)")
	out := flag.String("out", "", "output JSON path (default results/BENCH_baseline.json; none in -check mode)")
	flag.Parse()
	if *out == "" && *check == "" {
		*out = "results/BENCH_baseline.json"
	}
	commit, err := bench.CommitModeName(*groupCommit, *durability)
	if err != nil {
		fatal(err)
	}

	b := Baseline{
		Header:     results.NewHeader(),
		Records:    *records,
		Operations: *ops,
		Accounts:   *accounts,
		Transfers:  *transfers,
	}

	for _, wl := range []string{"A", "B", "C", "F"} {
		for _, bk := range []bench.BackendKind{bench.JPFA, bench.JPDT, bench.PCJ} {
			n := *ops
			if bk == bench.PCJ {
				// PCJ pays an emulated JNI crossing per field access;
				// a shortened pass keeps `make bench` fast without
				// changing the per-op columns.
				n = *ops / 20
			}
			row, err := runYCSB(wl, bk, *records, n, *threads, commit, *pools)
			if err != nil {
				fatal(err)
			}
			b.Rows = append(b.Rows, row)
		}
	}
	// Lock-free head-to-head (DESIGN.md §16): locked vs lock-free J-PDT
	// on YCSB-A/B/C at 1 and 8 client goroutines. The lock-free rows are
	// the tentpole evidence: at 8 goroutines J-PDT-LF must beat J-PDT on
	// both Kops/s and pwb/op (the -check gate enforces the pwb side).
	for _, wl := range []string{"A", "B", "C"} {
		for _, th := range []int{1, 8} {
			for _, bk := range []bench.BackendKind{bench.JPDT, bench.JPDTLF} {
				if bk == bench.JPDT && th == *threads && commit == "" {
					continue // identical to a main-loop row above
				}
				row, err := runYCSB(wl, bk, *records, *ops, th, "", 1)
				if err != nil {
					fatal(err)
				}
				b.Rows = append(b.Rows, row)
			}
		}
	}
	// Group-commit sweep (DESIGN.md §15): YCSB-A over J-PFA at growing
	// client counts, per-Tx vs shared-barrier commit. The load phase is
	// always single-threaded (concurrent inserts hit shared map-slot
	// blocks); the A run phase is reads and per-key updates, which the
	// grid's stripe locks make safe to run concurrently.
	for _, th := range []int{1, 8, 64} {
		for _, cm := range []string{"per-tx", "group"} {
			row, err := runYCSB("A", bench.JPFA, *records, *ops, th, cm, 1)
			if err != nil {
				fatal(err)
			}
			b.Rows = append(b.Rows, row)
		}
	}
	// Heap-sharding head-to-head (DESIGN.md §17): YCSB-A at 8 client
	// goroutines, single-pool vs 4 pools, for the two mutex-bound J-NVM
	// backends. With 4 pools every pool owns its allocator, redo-log
	// manager and backend lock, so 8 clients stop colliding on one mutex;
	// check_bench.sh gates the expected throughput win.
	for _, bk := range []bench.BackendKind{bench.JPFA, bench.JPDT} {
		for _, np := range []int{1, 4} {
			if bk == bench.JPDT && np == 1 {
				continue // identical to the lock-free head-to-head row above
			}
			row, err := runYCSB("A", bk, *records, *ops, 8, "", np)
			if err != nil {
				fatal(err)
			}
			b.Rows = append(b.Rows, row)
		}
	}
	for _, clients := range []int{1, 8} {
		row, err := runTPCB(*accounts, *transfers, clients, commit)
		if err != nil {
			fatal(err)
		}
		b.Rows = append(b.Rows, row)
	}
	// The async watermark row: transfers are acknowledged by ticket and
	// the drain before the closing snapshot settles every epoch, so the
	// per-op columns include the full (amortized) fence bill.
	for _, cm := range []string{"group", "async"} {
		row, err := runTPCB(*accounts, *transfers, 8, cm)
		if err != nil {
			fatal(err)
		}
		b.Rows = append(b.Rows, row)
	}

	printRows(b.Rows)
	if *check != "" {
		if err := checkRows(*check, b.Rows, *tol, *checkKops, *checkAllocs); err != nil {
			fatal(err)
		}
		fmt.Printf("check: per-op flush columns within tolerance of %s\n", *check)
	}
	if *out != "" {
		if err := results.WriteJSON(*out, &b); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// rowKey identifies a row across baseline files.
func rowKey(r Row) string {
	np := r.Pools
	if np == 0 {
		np = 1
	}
	return fmt.Sprintf("%s|%s|%s|%d|%dp", r.Bench, r.Backend, r.Commit, r.Threads, np)
}

// checkRows is the perf gate: every row present in both runs must keep
// its pwb/op and pfence/op within tolerance of the committed baseline
// (throughput is too host-dependent to gate on; the primitive rates are
// deterministic modulo batching). Multi-threaded rows get double the
// tolerance — epoch and cohort sizes depend on goroutine interleaving.
// It also asserts the point of the group modes: at 8+ concurrent
// committers the shared-barrier YCSB-A row must beat per-Tx on fences.
func checkRows(path string, rows []Row, tol float64, checkKops, checkAllocs bool) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old Baseline
	if err := json.Unmarshal(buf, &old); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	oldByKey := map[string]Row{}
	for _, r := range old.Rows {
		oldByKey[rowKey(r)] = r
	}
	var failures []string
	matched := 0
	exceeds := func(name string, now, was, t float64) {
		// The absolute slack keeps near-zero columns (read-only
		// workloads) from tripping on rounding.
		if now > was*(1+t)+0.05 {
			failures = append(failures, fmt.Sprintf("%s: %.2f -> %.2f (tol %.0f%%)", name, was, now, 100*t))
		}
	}
	for _, r := range rows {
		o, ok := oldByKey[rowKey(r)]
		if !ok {
			continue
		}
		matched++
		t := tol
		if r.Threads > 1 {
			t = 2 * tol
		}
		exceeds(rowKey(r)+" pwb/op", r.PWBPerOp, o.PWBPerOp, t)
		exceeds(rowKey(r)+" pfence/op", r.PFencePerOp, o.PFencePerOp, t)
		// The allocation rate is the read-path gate (the YCSB-C rows are
		// where zero-copy view reads show): single-threaded rows are
		// deterministic enough to compare absolutely; multi-threaded rows
		// inherit the doubled tolerance like the flush columns.
		if checkAllocs && o.AllocsPerOp > 0 {
			exceeds(rowKey(r)+" allocs/op", r.AllocsPerOp, o.AllocsPerOp, t)
		}
		// Throughput is only comparable between hosts of the same width;
		// -check-kops gates it where num_cpu matches the committed row.
		// Even then wall-clock is far noisier than the counter columns
		// (scheduler jitter moves single-threaded rows ~20% run to run on
		// a narrow host), so the throughput gate gets double the counter
		// tolerance: it exists to catch wholesale collapses, not drift.
		if kt := 2 * t; checkKops && r.NumCPU == o.NumCPU && o.KopsSec > 0 && r.KopsSec < o.KopsSec*(1-kt) {
			failures = append(failures, fmt.Sprintf("%s Kops/s: %.1f -> %.1f (tol %.0f%%)",
				rowKey(r), o.KopsSec, r.KopsSec, 100*kt))
		}
	}
	if matched == 0 {
		return fmt.Errorf("check: no rows of %s match this run (schema drift?)", path)
	}
	perTx := map[int]float64{}
	for _, r := range rows {
		if r.Bench == "ycsb-A" && r.Backend == string(bench.JPFA) && r.Commit == "per-tx" {
			perTx[r.Threads] = r.PFencePerOp
		}
	}
	for _, r := range rows {
		if r.Bench != "ycsb-A" || r.Backend != string(bench.JPFA) || r.Commit != "group" || r.Threads < 8 {
			continue
		}
		if base, ok := perTx[r.Threads]; ok && r.PFencePerOp >= base {
			failures = append(failures,
				fmt.Sprintf("group commit not combining: ycsb-A @%d threads %.2f pfence/op vs per-tx %.2f", r.Threads, r.PFencePerOp, base))
		}
	}
	// Lock-free head-to-head (DESIGN.md §16): wherever this run produced
	// both a locked and a lock-free J-PDT row for the same workload at 8+
	// goroutines, the lock-free row must keep its pwb/op advantage. Rows
	// for variants absent from the committed baseline are tolerated above
	// (they simply do not match); this check only fires when both sides
	// ran, so older baselines without lock-free rows still pass.
	lockedPWB := map[string]float64{}
	for _, r := range rows {
		if r.Backend == string(bench.JPDT) && r.Threads >= 8 {
			lockedPWB[fmt.Sprintf("%s|%d", r.Bench, r.Threads)] = r.PWBPerOp
		}
	}
	for _, r := range rows {
		if r.Backend != string(bench.JPDTLF) || r.Threads < 8 {
			continue
		}
		// Read-only mixes flush nothing on either side; the superiority
		// gate only bites where the locked baseline actually pays pwbs.
		if base, ok := lockedPWB[fmt.Sprintf("%s|%d", r.Bench, r.Threads)]; ok && base > 0 && r.PWBPerOp >= base {
			failures = append(failures,
				fmt.Sprintf("lock-free not cheaper: %s @%d threads %.2f pwb/op vs locked %.2f",
					r.Bench, r.Threads, r.PWBPerOp, base))
		}
	}
	// Heap-sharding head-to-head (DESIGN.md §17): wherever this run
	// produced both a single-pool and a 4+-pool row for the same workload,
	// backend, commit mode and client count, the sharded row must win on
	// throughput — the whole point of splitting the allocator, redo-log
	// manager and backend mutex per pool. In-run comparison, so host speed
	// cancels out. The win is physical parallelism, so on a host without
	// spare cores (GOMAXPROCS < 4) the gate instead bounds the routing
	// tax at 20%.
	singlePool := map[string]float64{}
	for _, r := range rows {
		if (r.Pools == 0 || r.Pools == 1) && r.Threads >= 8 {
			singlePool[fmt.Sprintf("%s|%s|%s|%d", r.Bench, r.Backend, r.Commit, r.Threads)] = r.KopsSec
		}
	}
	multicore := runtime.GOMAXPROCS(0) >= 4
	for _, r := range rows {
		if r.Pools < 4 || r.Threads < 8 {
			continue
		}
		base, ok := singlePool[fmt.Sprintf("%s|%s|%s|%d", r.Bench, r.Backend, r.Commit, r.Threads)]
		if !ok {
			continue
		}
		if multicore && r.KopsSec <= base {
			failures = append(failures,
				fmt.Sprintf("sharding did not pay: %s/%s @%d threads %.1f Kops/s with %d pools vs %.1f single-pool",
					r.Bench, r.Backend, r.Threads, r.KopsSec, r.Pools, base))
		}
		if !multicore && r.KopsSec < base*0.8 {
			failures = append(failures,
				fmt.Sprintf("routing tax too high: %s/%s @%d threads %.1f Kops/s with %d pools vs %.1f single-pool (>20%%)",
					r.Bench, r.Backend, r.Threads, r.KopsSec, r.Pools, base))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("check: %d regression(s) vs %s:\n  %s", len(failures), path, strings.Join(failures, "\n  "))
	}
	return nil
}

func runYCSB(wl string, bk bench.BackendKind, records, ops, threads int, commit string, pools int) (Row, error) {
	// Rows share one process; without reclaiming the previous rows' pools
	// and garbage first, GC pressure from earlier envs bleeds into this
	// row's numbers (alloc-heavy workloads lose up to 4x on one CPU).
	runtime.GC()
	debug.FreeOSMemory()
	cfg := ycsb.MustWorkload(wl)
	cfg.RecordCount = records
	cfg.Operations = ops
	cfg.Threads = threads
	cfg = cfg.Defaults()
	mode := commit
	if mode == "per-tx" {
		mode = "" // explicit sweep label for the default protocol
	}
	env, err := bench.NewEnv(bench.GridConfig{
		Backend: bk, Records: cfg.RecordCount * 2,
		FieldCount: cfg.FieldCount, FieldLen: cfg.FieldLen,
		Commit: mode,
		Pools:  pools,
	})
	if err != nil {
		return Row{}, err
	}
	defer env.Close()
	// Load single-threaded regardless of the run's client count: inserts
	// touch shared map-slot blocks, which only the run-phase op mix
	// avoids (the grid stripe locks cover per-key reads and updates).
	loadCfg := cfg
	loadCfg.Threads = 1
	if err := ycsb.Load(env.Grid, loadCfg); err != nil {
		return Row{}, fmt.Errorf("load %s/%s: %w", wl, bk, err)
	}
	before := env.Snapshot()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	res, err := ycsb.Run(env.Grid, cfg)
	if err != nil {
		return Row{}, fmt.Errorf("run %s/%s: %w", wl, bk, err)
	}
	env.DrainDurable() // settle async epochs inside the interval
	runtime.ReadMemStats(&msAfter)
	stack := env.Snapshot().Sub(*before)
	row := Row{
		Bench:       "ycsb-" + wl,
		Commit:      commit,
		Backend:     string(bk),
		Threads:     threads,
		Pools:       pools,
		Ops:         int(res.Operations),
		NumCPU:      runtime.NumCPU(),
		KopsSec:     res.Throughput() / 1000,
		P99Us:       float64(res.Hist().Percentile(0.99).Nanoseconds()) / 1e3,
		PWBPerOp:    stack.PWBPerOp,
		PFencePerOp: stack.PFencePerOp,
		StoresPerOp: stack.StoresPerOp,
		Stack:       &stack,
	}
	if res.Operations > 0 {
		row.AllocsPerOp = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(res.Operations)
	}
	if stack.FA != nil && stack.Ops > 0 {
		row.CoalescedPerOp = float64(stack.FA.SavedLines) / float64(stack.Ops)
		if stack.FA.Begun > 0 {
			row.WarmTxPct = 100 * float64(stack.FA.TxReuse) / float64(stack.FA.Begun)
		}
	}
	return row, nil
}

func runTPCB(accounts, transfers, clients int, commit string) (Row, error) {
	pool := nvm.New(accounts*512+(32<<20), nvm.Options{FenceLatency: bench.DefaultFenceNs})
	sc := tpcb.StackConfig(false)
	sc.Commit = commit
	st, err := stack.Open([]*nvm.Pool{pool}, sc)
	if err != nil {
		return Row{}, err
	}
	bank, err := tpcb.NewJNVMBank(st, accounts)
	if err != nil {
		return Row{}, err
	}
	nvmBefore := pool.Obs().Snapshot()
	faBefore := bank.Manager().ObsSnapshot()
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	hists := make([]*ycsb.Histogram, clients)
	per := transfers / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		hists[c] = &ycsb.Histogram{}
		go func(seed int64, h *ycsb.Histogram) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				t0 := time.Now()
				if err := bank.Transfer(from, to, 1); err != nil {
					errCh <- err
					return
				}
				h.Record(time.Since(t0))
			}
		}(int64(c)+1, hists[c])
	}
	wg.Wait()
	// Async mode: settle the queued epochs before closing the books so
	// every acknowledged transfer is durable and its fences are counted.
	bank.Manager().DrainDurable()
	close(errCh)
	for err := range errCh {
		return Row{}, err
	}
	elapsed := time.Since(start)
	delta := pool.Obs().Snapshot().Sub(nvmBefore)
	faDelta := bank.Manager().ObsSnapshot().Sub(faBefore)
	merged := &ycsb.Histogram{}
	for _, h := range hists {
		merged.Merge(h)
	}
	done := float64(per * clients)
	row := Row{
		Bench:       "tpcb",
		Commit:      commit,
		Backend:     "J-PFA",
		Threads:     clients,
		Ops:         per * clients,
		NumCPU:      runtime.NumCPU(),
		KopsSec:     done / elapsed.Seconds() / 1000,
		P99Us:       float64(merged.Percentile(0.99).Nanoseconds()) / 1e3,
		PWBPerOp:    float64(delta.PWBs) / done,
		PFencePerOp: float64(delta.Fences()) / done,
		StoresPerOp: float64(delta.Stores) / done,
	}
	row.CoalescedPerOp = float64(faDelta.SavedLines) / done
	if faDelta.Begun > 0 {
		row.WarmTxPct = 100 * float64(faDelta.TxReuse) / float64(faDelta.Begun)
	}
	return row, nil
}

func printRows(rows []Row) {
	fmt.Printf("%-10s%-8s%-8s%8s%7s%12s%12s%11s%10s%12s%12s%14s%10s\n",
		"bench", "backend", "commit", "threads", "pools", "Kops/s", "p99(us)", "allocs/op", "pwb/op", "pfence/op", "stores/op", "coalesced/op", "warm-tx%")
	for _, r := range rows {
		cm := r.Commit
		if cm == "" {
			cm = "-"
		}
		np := r.Pools
		if np == 0 {
			np = 1
		}
		fmt.Printf("%-10s%-8s%-8s%8d%7d%12.1f%12.1f%11.2f%10.2f%12.2f%12.1f%14.2f%10.1f\n",
			r.Bench, r.Backend, cm, r.Threads, np, r.KopsSec, r.P99Us, r.AllocsPerOp, r.PWBPerOp, r.PFencePerOp, r.StoresPerOp,
			r.CoalescedPerOp, r.WarmTxPct)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
