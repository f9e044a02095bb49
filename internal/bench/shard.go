package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"repro/internal/obs"
	"repro/internal/ycsb"
)

// ---- DESIGN.md §17: multi-pool heap scaling sweep ----

// ShardRow is one (workload, backend, pool count) throughput point of the
// heap-sharding experiment. Pools == 1 runs the classic single-pool stack
// (not a one-pool Set), so the first row of a sweep is the configuration
// every other experiment runs.
type ShardRow struct {
	Workload    string      `json:"workload"`
	Backend     BackendKind `json:"backend"`
	Pools       int         `json:"pools"`
	Threads     int         `json:"threads"`
	KopsSec     float64     `json:"kops_sec"`
	Errors      uint64      `json:"errors"`
	PWBPerOp    float64     `json:"pwb_per_op"`
	PFencePerOp float64     `json:"pfence_per_op"`
	// OccupancyPct is the per-pool allocator occupancy after the run,
	// in pool order; a single-pool run reports one entry. Balanced
	// entries are the sweep's evidence that jump hashing spreads the
	// dataset evenly (§17.2).
	OccupancyPct []float64 `json:"occupancy_pct"`
	// FallbackInserts counts inserts diverted off a full home pool;
	// non-zero means the per-pool headroom was undersized for the skew.
	FallbackInserts uint64 `json:"fallback_inserts"`
	// Stack is the full run-interval metrics snapshot, embedded in JSON
	// result files.
	Stack *obs.StackSnapshot `json:"stack,omitempty"`
}

// ShardSweep runs one YCSB workload over the same backend at each pool
// count. Per-thread work is held constant at sc.Operations so the sweep
// isolates the contention axis: with the J-NVM backends every pool owns
// its allocator, redo-log manager, and backend mutex, so more pools means
// fewer threads colliding on each.
func ShardSweep(sc Scale, bk BackendKind, workload string, poolCounts []int) ([]ShardRow, error) {
	if poolCounts == nil {
		poolCounts = []int{1, 4, 8}
	}
	var rows []ShardRow
	for _, np := range poolCounts {
		if np < 1 {
			return nil, fmt.Errorf("bench: pool count %d", np)
		}
		cfg := ycsb.MustWorkload(workload)
		cfg.RecordCount = sc.Records
		cfg.Operations = sc.Operations * sc.Threads // constant per-thread work
		cfg.Threads = sc.Threads
		cfg = cfg.Defaults()
		env, err := NewEnv(GridConfig{
			Backend: bk, Records: cfg.RecordCount * 2,
			FieldCount: cfg.FieldCount, FieldLen: cfg.FieldLen,
			Commit: sc.Commit,
			Pools:  np,
		})
		if err != nil {
			return nil, err
		}
		// Load single-threaded regardless of the run's client count:
		// concurrent inserts contend on shared map-slot blocks (the run
		// phase's read/update mix is what the stripe locks cover).
		loadCfg := cfg
		loadCfg.Threads = 1
		if err := ycsb.Load(env.Grid, loadCfg); err != nil {
			env.Close()
			return nil, fmt.Errorf("load %s/%s/%dp: %w", workload, bk, np, err)
		}
		before := env.Snapshot()
		res, err := ycsb.Run(env.Grid, cfg)
		env.DrainDurable()
		after := env.Snapshot()
		stack := after.Sub(*before)
		env.Close()
		if err != nil {
			return nil, fmt.Errorf("run %s/%s/%dp: %w", workload, bk, np, err)
		}
		row := ShardRow{
			Workload: workload, Backend: bk, Pools: np, Threads: cfg.Threads,
			KopsSec: res.Throughput() / 1000, Errors: res.Errors,
			PWBPerOp: stack.PWBPerOp, PFencePerOp: stack.PFencePerOp,
			Stack: &stack,
		}
		// Occupancy is a gauge, so it comes from the end-of-run snapshot,
		// not the interval diff.
		if after.Shard != nil {
			row.FallbackInserts = after.Shard.FallbackInserts
			for _, p := range after.Shard.PerPool {
				row.OccupancyPct = append(row.OccupancyPct, p.OccupancyPct)
			}
		} else if h := after.Heap; h != nil && h.TotalBlocks > 0 {
			row.OccupancyPct = []float64{100 * float64(h.Bump-h.FreeBlocks) / float64(h.TotalBlocks)}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ShardGate is the sharding claim, checked in-run so host speed cancels
// out: at 8+ clients each backend's 4+-pool rows must beat its
// single-pool row. The win is physical parallelism (per-pool locks and
// fence spins overlapping on separate cores), so without spare cores
// (GOMAXPROCS < 4) the gate bounds the routing tax instead: sharded rows
// stay within 20% of single-pool. An op error on any row fails it.
func ShardGate(rows []ShardRow) error {
	var failures []string
	single := map[string]float64{}
	for _, r := range rows {
		if r.Errors != 0 {
			failures = append(failures, fmt.Sprintf("%s/%s/%dp: %d op errors", r.Workload, r.Backend, r.Pools, r.Errors))
		}
		if r.Pools == 1 {
			single[r.Workload+"|"+string(r.Backend)] = r.KopsSec
		}
	}
	multicore := runtime.GOMAXPROCS(0) >= 4
	for _, r := range rows {
		base, ok := single[r.Workload+"|"+string(r.Backend)]
		if !ok || r.Pools < 4 || r.Threads < 8 {
			continue
		}
		switch {
		case multicore && r.KopsSec <= base:
			failures = append(failures, fmt.Sprintf("sharding did not pay: %s/%s %.1f Kops/s with %d pools vs %.1f single-pool",
				r.Workload, r.Backend, r.KopsSec, r.Pools, base))
		case !multicore && r.KopsSec < base*0.8:
			failures = append(failures, fmt.Sprintf("routing tax over 20%%: %s/%s %.1f Kops/s with %d pools vs %.1f single-pool (GOMAXPROCS %d)",
				r.Workload, r.Backend, r.KopsSec, r.Pools, base, runtime.GOMAXPROCS(0)))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("shard gate: %s", strings.Join(failures, "; "))
	}
	return nil
}

// PrintShard renders the pool-count sweep.
func PrintShard(w io.Writer, rows []ShardRow) {
	fmt.Fprintf(w, "Heap sharding — YCSB throughput vs pool count (DESIGN.md §17)\n")
	fmt.Fprintf(w, "%-10s%-10s%7s%9s%12s%10s%10s  %s\n",
		"workload", "backend", "pools", "threads", "Kops/s", "pwb/op", "pfence/op", "occupancy%")
	for _, r := range rows {
		occ := ""
		for i, o := range r.OccupancyPct {
			if i > 0 {
				occ += " "
			}
			occ += fmt.Sprintf("%.1f", o)
		}
		fmt.Fprintf(w, "%-10s%-10s%7d%9d%12.1f%10.2f%10.2f  [%s]\n",
			r.Workload, r.Backend, r.Pools, r.Threads, r.KopsSec, r.PWBPerOp, r.PFencePerOp, occ)
		if r.FallbackInserts > 0 {
			fmt.Fprintf(w, "%-10s  (%d fallback inserts — home pools ran full)\n", "", r.FallbackInserts)
		}
	}
}
