package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/ycsb"
)

// TestShardEnv runs YCSB-A over a sharded environment for each shardable
// backend: the routing grid backend must behave exactly like the classic
// single-pool stack from the workload's point of view.
func TestShardEnv(t *testing.T) {
	for _, bk := range []BackendKind{JPDT, JPDTLF, JPFA, PCJ} {
		t.Run(string(bk), func(t *testing.T) {
			env, err := NewEnv(GridConfig{Backend: bk, Records: 200, FieldCount: 10, FieldLen: 100, FenceNs: 1, Pools: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			if env.Set == nil || env.Set.Pools() != 3 {
				t.Fatal("expected a 3-pool sharded env")
			}
			cfg := ycsb.MustWorkload("A")
			cfg.RecordCount, cfg.Operations = 200, 600
			cfg = cfg.Defaults()
			if err := ycsb.Load(env.Grid, cfg); err != nil {
				t.Fatal(err)
			}
			res, err := ycsb.Run(env.Grid, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d errors", res.Errors)
			}
		})
	}
	if _, err := NewEnv(GridConfig{Backend: FS, Records: 100, FieldCount: 10, FieldLen: 100, Pools: 2}); err == nil {
		t.Fatal("FS backend accepted a pool count")
	}
}

// TestShardSnapshotSums is the satellite check that the per-pool obs
// breakdown is complete: summing every pool's NVM/heap/FA counters must
// reproduce the global layer gauges the snapshot reports.
func TestShardSnapshotSums(t *testing.T) {
	env, err := NewEnv(GridConfig{Backend: JPFA, Records: 300, FieldCount: 10, FieldLen: 100, FenceNs: 1, Pools: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	cfg := ycsb.MustWorkload("A")
	cfg.RecordCount, cfg.Operations = 300, 900
	cfg = cfg.Defaults()
	if err := ycsb.Load(env.Grid, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := ycsb.Run(env.Grid, cfg); err != nil {
		t.Fatal(err)
	}
	s := env.Snapshot()
	if s.Shard == nil || len(s.Shard.PerPool) != 4 {
		t.Fatalf("missing per-pool breakdown: %+v", s.Shard)
	}
	var nvm obs.NVMSnapshot
	var heap obs.HeapSnapshot
	var fa obs.FASnapshot
	active := 0
	for _, p := range s.Shard.PerPool {
		nvm, heap, fa = nvm.Add(p.NVM), heap.Add(p.Heap), fa.Add(p.FA)
		if p.Heap.ObjAllocs > 0 {
			active++
		}
	}
	if *s.NVM != nvm || *s.Heap != heap || *s.FA != fa {
		t.Errorf("global layers\n%+v %+v %+v\nare not the per-pool sums\n%+v %+v %+v", *s.NVM, *s.Heap, *s.FA, nvm, heap, fa)
	}
	if nvm.PWBs == 0 || heap.Bump == 0 || fa.Committed == 0 {
		t.Errorf("sums are empty: %+v %+v %+v", nvm, heap, fa)
	}
	// Jump hashing must actually spread the dataset: every pool allocated.
	if active != 4 {
		t.Errorf("only %d/4 pools saw allocations", active)
	}
	// The report printer must include the per-pool section.
	var buf bytes.Buffer
	s.Report(&buf)
	if !strings.Contains(buf.String(), "pool") {
		t.Fatalf("report missing shard section:\n%s", buf.String())
	}
}

// TestShardSweepRuns exercises the sweep experiment end to end at tiny
// scale: one single-pool row (classic stack) and one sharded row, with
// non-empty occupancy and a printable table.
func TestShardSweepRuns(t *testing.T) {
	sc := Scale{Records: 300, Operations: 600, Threads: 2}
	rows, err := ShardSweep(sc, JPFA, "A", []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Pools != 1 || len(rows[0].OccupancyPct) != 1 {
		t.Fatalf("single-pool row malformed: %+v", rows[0])
	}
	if rows[1].Pools != 2 || len(rows[1].OccupancyPct) != 2 {
		t.Fatalf("sharded row malformed: %+v", rows[1])
	}
	for _, r := range rows {
		if r.Errors != 0 {
			t.Fatalf("%d-pool run had %d errors", r.Pools, r.Errors)
		}
		if r.KopsSec <= 0 {
			t.Fatalf("%d-pool run had no throughput", r.Pools)
		}
		if r.PWBPerOp <= 0 {
			t.Fatalf("%d-pool run recorded no persistence work", r.Pools)
		}
	}
	var buf bytes.Buffer
	PrintShard(&buf, rows)
	if !strings.Contains(buf.String(), "pools") {
		t.Fatal("print broken")
	}
}

// TestShardGate drives both branches of the gate on synthetic rows: with
// four procs a 4+-pool row must beat single-pool, with fewer it may lose
// up to 20%; an op error fails either way.
func TestShardGate(t *testing.T) {
	sweep := func(single, sharded float64, errs uint64) []ShardRow {
		return []ShardRow{
			{Workload: "A", Backend: JPFA, Pools: 1, Threads: 8, KopsSec: single},
			{Workload: "A", Backend: JPFA, Pools: 2, Threads: 8, KopsSec: single / 2}, // under 4 pools: not gated
			{Workload: "A", Backend: JPFA, Pools: 4, Threads: 8, KopsSec: sharded, Errors: errs},
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs   int
		sharded float64 // against 100 single-pool
		errs    uint64
		want    string // substring of the error, "" = pass
	}{
		{4, 101, 0, ""},
		{4, 100, 0, "sharding did not pay"},
		{4, 85, 0, "sharding did not pay"},
		{2, 85, 0, ""},
		{2, 79, 0, "routing tax over 20%"},
		{4, 150, 3, "3 op errors"},
		{2, 150, 3, "3 op errors"},
	} {
		runtime.GOMAXPROCS(tc.procs)
		err := ShardGate(sweep(100, tc.sharded, tc.errs))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("procs %d, %.0f vs 100: %v", tc.procs, tc.sharded, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("procs %d, %.0f vs 100, %d errors: got %v, want %q", tc.procs, tc.sharded, tc.errs, err, tc.want)
		}
	}
	// Rows with nothing to compare against pass: no single-pool row, or
	// too few clients to contend.
	if err := ShardGate([]ShardRow{{Workload: "A", Backend: JPDT, Pools: 8, Threads: 8, KopsSec: 1}}); err != nil {
		t.Error(err)
	}
	rows := sweep(100, 10, 0)
	for i := range rows {
		rows[i].Threads = 2
	}
	if err := ShardGate(rows); err != nil {
		t.Error(err)
	}
}

// counterEnv opens a two-pool async J-PFA env holding one 8-byte counter,
// bumped once, with nothing queued: every later AddDelta is a ledger op.
func counterEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(GridConfig{Backend: JPFA, Commit: "async", Pools: 2, Records: 64, FieldCount: 1, FieldLen: 8, FenceNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Grid.Insert("hot", &store.Record{Fields: []store.Field{{Name: "n", Value: make([]byte, 8)}}}); err != nil {
		t.Fatal(err)
	}
	if err := env.Grid.AddDelta("hot", "n", 1); err != nil {
		t.Fatal(err)
	}
	env.AwaitDurable()
	return env
}

func counterValue(t *testing.T, env *Env) int64 {
	t.Helper()
	var v int64
	if err := env.Grid.Read("hot", func(_ string, b []byte) { v = int64(binary.LittleEndian.Uint64(b)) }); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestShardedDeltaFolds is the regression for the capability the shard
// wrapper used to drop: under -pools N every ADDDELTA must reach the fa
// ledger of the pool that holds the key (delta_ops, summed over pools,
// counts every op) and fold there (fewer log entries than ops) instead of
// degrading to a stripe-locked read-modify-write.
func TestShardedDeltaFolds(t *testing.T) {
	env := counterEnv(t)
	defer env.Close()
	const n = 200
	before := env.Snapshot()
	for i := 0; i < n; i++ {
		if err := env.Grid.AddDelta("hot", "n", 1); err != nil {
			t.Fatal(err)
		}
	}
	env.AwaitDurable()
	d := env.Snapshot().Sub(*before)
	if d.FA.DeltaOps != n || d.FA.DeltaEntries == 0 || d.FA.DeltaEntries >= n {
		t.Fatalf("sharded ADDDELTA did not fold: delta_ops %d (want %d), delta_entries %d (want 1..%d)",
			d.FA.DeltaOps, n, d.FA.DeltaEntries, n-1)
	}
	if got := counterValue(t, env); got != n+1 {
		t.Fatalf("counter = %d after %d increments", got, n+1)
	}
}

// TestShardedDeltaOverWire repeats it through the server: pipelined
// OpAddDelta windows on two connections, one durability wait per window,
// and the counter exact once everything is acknowledged.
func TestShardedDeltaOverWire(t *testing.T) {
	env := counterEnv(t)
	defer env.Close()
	srv := wire.NewServer(wire.ServerConfig{Grid: env.Grid, AwaitDurable: env.AwaitDurable})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Shutdown(5 * time.Second)
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()

	const conns, windows, depth = 2, 10, 16
	before := env.Snapshot()
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		go func() {
			errs <- func() error {
				cl, err := wire.DialTimeout(l.Addr().String(), time.Second)
				if err != nil {
					return err
				}
				defer cl.Close()
				req := wire.Request{Op: wire.OpAddDelta, Key: "hot", Field: "n", Delta: 1}
				var resp wire.Response
				for w := 0; w < windows; w++ {
					for i := 0; i < depth; i++ {
						if err := cl.Send(&req); err != nil {
							return err
						}
					}
					if err := cl.Flush(); err != nil {
						return err
					}
					for i := 0; i < depth; i++ {
						if err := cl.Recv(&resp); err != nil {
							return err
						}
						if resp.Status != wire.StatusOK {
							return fmt.Errorf("ADDDELTA status %d", resp.Status)
						}
					}
				}
				return nil
			}()
		}()
	}
	for c := 0; c < conns; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	const n = conns * windows * depth
	d := env.Snapshot().Sub(*before)
	if d.FA.DeltaOps != n || d.FA.DeltaEntries >= n {
		t.Fatalf("wire ADDDELTA did not fold: delta_ops %d (want %d), delta_entries %d", d.FA.DeltaOps, n, d.FA.DeltaEntries)
	}
	if got := counterValue(t, env); got != n+1 {
		t.Fatalf("counter = %d after %d acknowledged increments", got, n+1)
	}
}

// TestCapabilityTable pins what each J-NVM backend offers, and that a
// sharded env offers the same minus Scan, against one literal table; the
// grid must adopt the same read path over one pool and over three.
func TestCapabilityTable(t *testing.T) {
	for _, tc := range []struct {
		kind       BackendKind
		caps, path string
	}{
		{JPDT, "keys,view", "view"},
		{JPDTLF, "keys,lockfree", "lockfree"},
		{JPFA, "keys,delta", "locked"},
		{PCJ, "keys", "locked"},
	} {
		for _, pools := range []int{1, 3} {
			env, err := NewEnv(GridConfig{Backend: tc.kind, Records: 100, FieldCount: 1, FieldLen: 8, FenceNs: 1, Pools: pools})
			if err != nil {
				t.Fatal(err)
			}
			if got := env.Backend.Caps().String(); got != tc.caps {
				t.Errorf("%s over %d pools offers [%s], want [%s]", tc.kind, pools, got, tc.caps)
			}
			if got := env.Grid.ReadPath(); got != tc.path {
				t.Errorf("%s over %d pools: grid read path %q, want %q", tc.kind, pools, got, tc.path)
			}
			if (env.Set != nil) != (pools > 1) {
				t.Errorf("%s over %d pools: set = %v (one pool must stay the direct backend)", tc.kind, pools, env.Set != nil)
			}
			env.Close()
		}
	}
}
