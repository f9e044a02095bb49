package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
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
// reproduce the global layer gauges the snapshot reports (which is also
// what keeps check_bench.sh honest on sharded runs).
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
