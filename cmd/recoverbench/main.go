// Command recoverbench measures recovery time as a function of the
// worker count of the parallel recovery pipeline (redo-log replay,
// reachability mark, segment sweep, mirror rebuild). It builds a heap
// holding a large persistent map — every entry is a pair object, a key
// string and a pooled value array, so a million entries is several
// million live objects — punches garbage into it, snapshots the pool
// image as a crash would leave it, and then re-opens that image once per
// requested worker count, timing Open (replay + mark + sweep) and the
// first Root().Get (mirror rebuild) separately. Per-phase nanosecond
// breakdowns come from the shared obs layer, so the JSON shows where the
// workers helped. The workers=1 row is the paper's serial §4.1.3
// procedure and the speedup denominator.
//
// `make bench-recovery` writes results/BENCH_recovery.json. Speedup is
// bounded by the host: on a single-core container every configuration
// degenerates to the serial schedule, which is why the file records
// NumCPU alongside the rows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pdt"
	"repro/internal/results"
	"repro/internal/stack"
	"repro/internal/store"
)

// Row is one recovery measurement at a fixed worker count.
type Row struct {
	Workers   int     `json:"workers"`
	OpenMs    float64 `json:"open_ms"`
	RebuildMs float64 `json:"rebuild_ms"`
	TotalMs   float64 `json:"total_ms"`
	// Speedup is total recovery time relative to the workers=1 row.
	Speedup float64 `json:"speedup"`
	// Recovery is the per-phase breakdown and counters from the obs layer
	// (replay/mark/sweep/rebuild ns, live objects, swept blocks, ...).
	// For sharded runs it is the element-wise sum across pools.
	Recovery obs.RecoverySnapshot `json:"recovery"`
	// PerPool is the per-pool recovery breakdown of a sharded run
	// (DESIGN.md §17.4): pools recover concurrently, so the slowest
	// entry bounds the open time, not the sum.
	PerPool []obs.RecoverySnapshot `json:"per_pool,omitempty"`
}

// Result is the serialized benchmark file.
type Result struct {
	results.Header
	Structure   string `json:"structure"`
	Entries     int    `json:"entries"`
	LiveEntries int    `json:"live_entries"`
	ValueBytes  int    `json:"value_bytes"`
	PoolMB      int    `json:"pool_mb"`
	Pools       int    `json:"pools"`
	Rows        []Row  `json:"rows"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recoverbench:", err)
	os.Exit(1)
}

func main() {
	entries := flag.Int("entries", 1_000_000, "map entries to load before the crash")
	valueBytes := flag.Int("value-bytes", 32, "payload size of each value")
	poolMB := flag.Int("pool-mb", 2048, "pool size in MiB")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated recovery worker counts (1 = serial oracle)")
	deleteEvery := flag.Int("delete-every", 7, "delete every Nth entry so the sweep sees garbage (0 disables)")
	structure := flag.String("structure", "hash", "table structure: hash (locked pdt.Map) or lockfree (pdt.LFMap; its rebuild is the §16 cell judgment, parallel above the chunk threshold)")
	repeat := flag.Int("repeat", 3, "recoveries per worker count; the fastest is reported")
	poolsN := flag.Int("pools", 1, "shard the heap across this many NVMM pools (DESIGN.md §17); pools recover concurrently, workers split across them")
	out := flag.String("out", "results/BENCH_recovery.json", "output JSON path")
	check := flag.String("check", "", "compare against this committed recovery JSON and fail on drift: deterministic counters (live_objects, rebuild_entries, replayed_tx) always, total_ms only when num_cpu matches")
	tol := flag.Float64("tol", 0.5, "relative recovery-time tolerance for -check (the deterministic counters must match exactly)")
	flag.Parse()

	var workerCounts []int
	for _, tok := range strings.Split(*workersFlag, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || w < 1 {
			fatal(fmt.Errorf("bad -workers entry %q", tok))
		}
		workerCounts = append(workerCounts, w)
	}

	if *structure != "hash" && *structure != "lockfree" {
		fatal(fmt.Errorf("bad -structure %q (want hash or lockfree)", *structure))
	}

	fmt.Printf("building heap: %d entries, %dB values, %d MiB pool, %s table, %d pool(s)\n",
		*entries, *valueBytes, *poolMB, *structure, *poolsN)
	var snapshots [][]byte
	var liveEntries int
	if *poolsN > 1 {
		var err error
		snapshots, liveEntries, err = buildShardCrashImages(*entries, *valueBytes, *poolMB, *deleteEvery, *structure, *poolsN)
		if err != nil {
			fatal(err)
		}
	} else {
		one, live, err := buildCrashImage(*entries, *valueBytes, *poolMB, *deleteEvery, *structure)
		if err != nil {
			fatal(err)
		}
		snapshots, liveEntries = [][]byte{one}, live
	}
	recover := func(workers int) (Row, error) {
		if *poolsN > 1 {
			return recoverOnceShard(snapshots, workers, liveEntries, *structure)
		}
		return recoverOnce(snapshots[0], workers, liveEntries, *structure)
	}

	res := Result{
		Header:      results.NewHeader(),
		Structure:   *structure,
		Entries:     *entries,
		LiveEntries: liveEntries,
		ValueBytes:  *valueBytes,
		PoolMB:      *poolMB,
		Pools:       *poolsN,
	}
	// Warm-up: the first recovery grows the Go runtime heap (mark queues,
	// mirror maps) and faults in fresh spans, which would otherwise be
	// billed entirely to whichever worker count runs first.
	if _, err := recover(1); err != nil {
		fatal(err)
	}

	var base float64
	for _, w := range workerCounts {
		row, err := recover(w)
		if err != nil {
			fatal(fmt.Errorf("workers=%d: %w", w, err))
		}
		for r := 1; r < *repeat; r++ {
			again, err := recover(w)
			if err != nil {
				fatal(fmt.Errorf("workers=%d: %w", w, err))
			}
			if again.TotalMs < row.TotalMs {
				row = again
			}
		}
		if base == 0 {
			base = row.TotalMs
		}
		if row.TotalMs > 0 {
			row.Speedup = base / row.TotalMs
		}
		res.Rows = append(res.Rows, row)
		fmt.Printf("workers=%d  open %.1f ms  rebuild %.1f ms  total %.1f ms  speedup %.2fx  (%d live objects)\n",
			row.Workers, row.OpenMs, row.RebuildMs, row.TotalMs, row.Speedup,
			row.Recovery.LiveObjects)
	}

	if *check != "" {
		if err := checkResult(*check, &res, *tol); err != nil {
			fatal(err)
		}
		fmt.Printf("check: recovery counters match %s\n", *check)
		return
	}
	if err := results.WriteJSON(*out, &res); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", *out)
}

// checkResult is the recovery gate of `make bench-check` (run at a small,
// CI-sized -entries). The work counters of a recovery are a function of
// the crash image alone, so at fixed build parameters they must reproduce
// exactly: live_objects, rebuild_entries and replayed_tx drifting means
// the recovery pipeline changed what it recovers, not just how fast.
// Wall-clock totals are only comparable on a host as wide as the one that
// produced the committed file, and even then stay noisy, so total_ms is
// gated loosely and only when num_cpu matches.
func checkResult(path string, now *Result, tol float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old Result
	if err := json.Unmarshal(buf, &old); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if old.Entries != now.Entries || old.Structure != now.Structure || old.Pools != now.Pools {
		return fmt.Errorf("check: committed file built with -entries %d -structure %s -pools %d, this run with %d/%s/%d",
			old.Entries, old.Structure, old.Pools, now.Entries, now.Structure, now.Pools)
	}
	var failures []string
	if old.LiveEntries != now.LiveEntries {
		failures = append(failures, fmt.Sprintf("live_entries: %d -> %d", old.LiveEntries, now.LiveEntries))
	}
	oldRows := map[int]Row{}
	for _, r := range old.Rows {
		oldRows[r.Workers] = r
	}
	matched := 0
	for _, r := range now.Rows {
		o, ok := oldRows[r.Workers]
		if !ok {
			continue
		}
		matched++
		for _, c := range []struct {
			name     string
			was, now uint64
		}{
			{"live_objects", o.Recovery.LiveObjects, r.Recovery.LiveObjects},
			{"rebuild_entries", o.Recovery.RebuildEntries, r.Recovery.RebuildEntries},
			{"replayed_tx", o.Recovery.ReplayedTx, r.Recovery.ReplayedTx},
		} {
			if c.was != c.now {
				failures = append(failures, fmt.Sprintf("workers=%d %s: %d -> %d", r.Workers, c.name, c.was, c.now))
			}
		}
		if old.NumCPU == now.NumCPU && o.TotalMs > 0 && r.TotalMs > o.TotalMs*(1+tol) {
			failures = append(failures, fmt.Sprintf("workers=%d total_ms: %.1f -> %.1f (tol %.0f%%)",
				r.Workers, o.TotalMs, r.TotalMs, 100*tol))
		}
	}
	if matched == 0 {
		return fmt.Errorf("check: no worker counts of %s match this run", path)
	}
	if len(failures) > 0 {
		return fmt.Errorf("check: %d recovery regression(s) vs %s:\n  %s", len(failures), path, strings.Join(failures, "\n  "))
	}
	return nil
}

// buildCrashImage loads the pool and returns its byte image as a crash
// would leave it (the pool is in direct mode, so the post-PSync image is
// exactly the durable state), plus the number of live map entries a
// correct recovery must reproduce.
func buildCrashImage(entries, valueBytes, poolMB, deleteEvery int, structure string) ([]byte, int, error) {
	pool := nvm.New(poolMB<<20, nvm.Options{})
	db, err := jnvm.OpenPool(pool, jnvm.Options{})
	if err != nil {
		return nil, 0, err
	}
	// put/del abstract over the two table structures; the lock-free map
	// takes born-valid values and persists only the destination cell.
	var put func(key string, payload []byte) error
	var del func(key string) bool
	switch structure {
	case "hash":
		m, err := jnvm.NewMap(db, jnvm.MirrorHash)
		if err != nil {
			return nil, 0, err
		}
		if err := db.Root().Put("table", m); err != nil {
			return nil, 0, err
		}
		put = func(key string, payload []byte) error {
			val, err := jnvm.NewBytes(db, payload)
			if err != nil {
				return err
			}
			return m.Put(key, val)
		}
		del = m.Delete
	case "lockfree":
		m, err := pdt.NewLFMap(db.Heap, entries/3)
		if err != nil {
			return nil, 0, err
		}
		if err := db.Root().Put("table", m); err != nil {
			return nil, 0, err
		}
		put = func(key string, payload []byte) error {
			val, err := pdt.NewBytesValid(db.Heap, payload)
			if err != nil {
				return err
			}
			return m.Put(key, val)
		}
		del = m.Delete
	}
	payload := make([]byte, valueBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	start := time.Now()
	for i := 0; i < entries; i++ {
		if err := put(fmt.Sprintf("key-%08d", i), payload); err != nil {
			return nil, 0, fmt.Errorf("entry %d: %w", i, err)
		}
	}
	live := entries
	if deleteEvery > 0 {
		for i := 0; i < entries; i += deleteEvery {
			if del(fmt.Sprintf("key-%08d", i)) {
				live--
			}
		}
	}
	db.PSync()
	fmt.Printf("loaded in %.1f s (%d live entries)\n", time.Since(start).Seconds(), live)
	snapshot := pool.ReadBytes(0, pool.Size())
	db.Close()
	return snapshot, live, nil
}

// recoverOnce restores the crash image into a fresh pool and runs the
// full recovery pipeline at the given worker count, verifying that the
// recovered table has the expected size.
func recoverOnce(snapshot []byte, workers, wantEntries int, structure string) (Row, error) {
	pool := nvm.New(len(snapshot), nvm.Options{})
	pool.WriteBytes(0, snapshot)

	openStart := time.Now()
	db, err := jnvm.OpenPool(pool, jnvm.Options{RecoverParallelism: workers})
	if err != nil {
		return Row{}, err
	}
	openDur := time.Since(openStart)

	rebuildStart := time.Now()
	po, err := db.Root().Get("table")
	if err != nil {
		return Row{}, err
	}
	rebuildDur := time.Since(rebuildStart)

	var got int
	switch m := po.(type) {
	case *jnvm.Map:
		got = m.Len()
	case *pdt.LFMap:
		got = m.Len()
	default:
		return Row{}, fmt.Errorf("root object has type %T, want a map (structure %s)", po, structure)
	}
	if got != wantEntries {
		return Row{}, fmt.Errorf("recovered map has %d entries, want %d", got, wantEntries)
	}
	snap := db.RecoveryObs().Snapshot()
	db.Close()
	return Row{
		Workers:   workers,
		OpenMs:    float64(openDur.Nanoseconds()) / 1e6,
		RebuildMs: float64(rebuildDur.Nanoseconds()) / 1e6,
		TotalMs:   float64((openDur + rebuildDur).Nanoseconds()) / 1e6,
		Recovery:  snap,
	}, nil
}

// shardCfg is the stack configuration of the sharded benchmark variants:
// a J-PDT backend per pool ("hash") or its lock-free sibling
// ("lockfree"), with the recovery worker budget split across pools.
func shardCfg(structure string, workers int) stack.Config {
	cfg := stack.Config{Backend: stack.JPDT, LogSlots: 16, LogSlotSize: 1 << 15, Parallelism: workers}
	if structure == "lockfree" {
		cfg.Backend = stack.JPDTLF
	}
	return cfg
}

// buildShardCrashImages loads the dataset through the sharded heap's
// routing backend, with the pool budget split evenly, and snapshots every
// pool image as a crash would leave it.
func buildShardCrashImages(entries, valueBytes, poolMB, deleteEvery int, structure string, npools int) ([][]byte, int, error) {
	per := poolMB / npools
	if per < 16 {
		per = 16
	}
	pools := make([]*nvm.Pool, npools)
	for i := range pools {
		pools[i] = nvm.New(per<<20, nvm.Options{})
	}
	st, err := stack.Open(pools, shardCfg(structure, 0))
	if err != nil {
		return nil, 0, err
	}
	b := st.Backend
	payload := make([]byte, valueBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	start := time.Now()
	field := []store.Field{{Name: "v", Value: payload}}
	for i := 0; i < entries; i++ {
		if err := b.Insert(fmt.Sprintf("key-%08d", i), &store.Record{Fields: field}); err != nil {
			return nil, 0, fmt.Errorf("entry %d: %w", i, err)
		}
	}
	live := entries
	if deleteEvery > 0 {
		for i := 0; i < entries; i += deleteEvery {
			ok, err := b.Delete(fmt.Sprintf("key-%08d", i))
			if err != nil {
				return nil, 0, err
			}
			if ok {
				live--
			}
		}
	}
	st.DrainDurable()
	snapshots := make([][]byte, npools)
	for i, p := range pools {
		p.PSync()
		snapshots[i] = p.ReadBytes(0, p.Size())
	}
	fmt.Printf("loaded in %.1f s (%d live entries across %d pools)\n", time.Since(start).Seconds(), live, npools)
	return snapshots, live, st.Close()
}

// recoverOnceShard restores every pool image and re-opens the set: pools
// recover concurrently (the worker budget splits across them), then the
// first Count() forces every pool's mirror rebuild. The per-pool
// breakdown shows where the concurrency helped; the summed snapshot keeps
// the single-pool JSON shape.
func recoverOnceShard(snapshots [][]byte, workers, wantEntries int, structure string) (Row, error) {
	pools := make([]*nvm.Pool, len(snapshots))
	for i, sn := range snapshots {
		pools[i] = nvm.New(len(sn), nvm.Options{})
		pools[i].WriteBytes(0, sn)
	}
	openStart := time.Now()
	st, err := stack.Open(pools, shardCfg(structure, workers))
	if err != nil {
		return Row{}, err
	}
	openDur := time.Since(openStart)

	rebuildStart := time.Now()
	got := st.Backend.Count()
	rebuildDur := time.Since(rebuildStart)
	if got != wantEntries {
		return Row{}, fmt.Errorf("recovered set has %d entries, want %d", got, wantEntries)
	}
	row := Row{
		Workers:   workers,
		OpenMs:    float64(openDur.Nanoseconds()) / 1e6,
		RebuildMs: float64(rebuildDur.Nanoseconds()) / 1e6,
		TotalMs:   float64((openDur + rebuildDur).Nanoseconds()) / 1e6,
	}
	row.PerPool = st.Recovery()
	for _, snap := range row.PerPool {
		row.Recovery = row.Recovery.Add(snap)
	}
	return row, st.Close()
}
