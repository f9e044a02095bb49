package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketRoundTrip(t *testing.T) {
	// bucketLow(bucketIdx(v)) must be <= v with bounded relative error,
	// and bucket indexes must be monotone in v.
	prev := -1
	for _, v := range []uint64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1000, 4095, 4096,
		1 << 20, 1<<20 + 12345, 1 << 40, math.MaxUint64} {
		i := bucketIdx(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, i)
		}
		if i < prev {
			t.Fatalf("bucketIdx not monotone at %d", v)
		}
		prev = i
		low := bucketLow(i)
		if low > v {
			t.Fatalf("bucketLow(%d) = %d > %d", i, low, v)
		}
		if v >= 16 && float64(v-low)/float64(v) > 1.0/16 {
			t.Fatalf("bucket error too large: v=%d low=%d", v, low)
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.ObserveNs(uint64(i) * 1000) // 1us..1ms uniform
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 1000 || s.Max != 1000000 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	p50 := float64(s.Percentile(0.50))
	if p50 < 400e3 || p50 > 600e3 {
		t.Fatalf("p50 = %v out of tolerance", p50)
	}
	p99 := float64(s.Percentile(0.99))
	if p99 < 900e3 || p99 > 1000e3 {
		t.Fatalf("p99 = %v out of tolerance", p99)
	}
	if m := s.Mean(); m < 480e3 || m > 520e3 {
		t.Fatalf("mean = %d", m)
	}
}

func TestHistogramDelta(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.ObserveNs(100)
	}
	before := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.ObserveNs(1 << 20)
	}
	d := h.Snapshot().Sub(before)
	if d.Count != 50 {
		t.Fatalf("delta count = %d", d.Count)
	}
	// All 50 interval samples are ~1ms, so the delta p50 must ignore the
	// 100ns samples from before the interval.
	if p := d.Percentile(0.50); p < 1<<19 {
		t.Fatalf("delta p50 = %d, want ~1<<20", p)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.ObserveNs(uint64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != 80000 {
		t.Fatalf("count = %d", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 80000 {
		t.Fatalf("count = %d", c.Load())
	}
}

func TestStackSnapshotDerived(t *testing.T) {
	var nvm NVMStats
	nvm.PWBs.Add(300)
	nvm.PFences.Add(80)
	nvm.PSyncs.Add(20)
	var grid GridStats
	for i := 0; i < 100; i++ {
		grid.Read.Observe(time.Microsecond)
	}
	n := nvm.Snapshot()
	g := grid.Snapshot()
	s := StackSnapshot{NVM: &n, Grid: &g}
	s.Finalize()
	if s.Ops != 100 {
		t.Fatalf("ops = %d", s.Ops)
	}
	if s.PWBPerOp != 3.0 {
		t.Fatalf("pwb/op = %v", s.PWBPerOp)
	}
	if s.PFencePerOp != 1.0 { // pfence + psync combined
		t.Fatalf("pfence/op = %v", s.PFencePerOp)
	}
}

func TestStackSnapshotSub(t *testing.T) {
	var nvm NVMStats
	var grid GridStats
	nvm.PWBs.Add(10)
	grid.Insert.Observe(time.Microsecond)
	n0 := nvm.Snapshot()
	g0 := grid.Snapshot()
	before := StackSnapshot{NVM: &n0, Grid: &g0}

	nvm.PWBs.Add(40)
	for i := 0; i < 20; i++ {
		grid.Read.Observe(time.Microsecond)
	}
	n1 := nvm.Snapshot()
	g1 := grid.Snapshot()
	after := StackSnapshot{NVM: &n1, Grid: &g1}

	d := after.Sub(before)
	if d.NVM.PWBs != 40 {
		t.Fatalf("delta pwbs = %d", d.NVM.PWBs)
	}
	if d.Ops != 20 { // the insert predates the interval
		t.Fatalf("delta ops = %d", d.Ops)
	}
	if d.PWBPerOp != 2.0 {
		t.Fatalf("delta pwb/op = %v", d.PWBPerOp)
	}
}

func TestSnapshotJSON(t *testing.T) {
	var grid GridStats
	grid.Read.Observe(time.Millisecond)
	g := grid.Snapshot()
	s := StackSnapshot{Grid: &g}
	s.Finalize()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	gridJSON := m["grid"].(map[string]any)
	perOp := gridJSON["per_op"].(map[string]any)
	read := perOp["read"].(map[string]any)
	if read["count"].(float64) != 1 {
		t.Fatalf("json round-trip lost count: %s", b)
	}
	if _, ok := read["p99_ns"]; !ok {
		t.Fatalf("json missing p99_ns: %s", b)
	}

	// The keys the repo's benchmark reads out of a stats document
	// (pinnedKeys and pinnedServerKeys of benchmarks/harness/stack.go,
	// copied because that module may not be imported): a renamed JSON tag
	// fails here rather than first in `make bench-e2e-smoke`.
	doc, err := json.Marshal(map[string]any{
		"stack":    filled[StackSnapshot](0, 4),
		"recovery": []RecoverySnapshot{filled[RecoverySnapshot](0, 0)},
		"server":   filled[ServerSnapshot](0, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	var top any
	if err := json.Unmarshal(doc, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"stack.nvm.stores", "stack.nvm.pwbs", "stack.nvm.pfences", "stack.nvm.psyncs",
		"stack.heap.obj_allocs", "stack.heap.obj_frees", "stack.heap.small_allocs", "stack.heap.small_frees",
		"stack.heap.bump_allocs", "stack.heap.reuse_allocs", "stack.heap.transient_reuse",
		"stack.heap.bump_high_water", "stack.heap.free_list_depth",
		"stack.fa.begun", "stack.fa.committed", "stack.fa.log_entries", "stack.fa.tx_slot_reuse",
		"stack.fa.flushed_lines", "stack.fa.coalesced_lines_saved", "stack.fa.group_epochs",
		"stack.fa.group_epoch_txs", "stack.fa.async_commits", "stack.fa.delta_ops", "stack.fa.delta_entries",
		"stack.fa.delta_flushes_saved", "stack.fa.watermark_lag",
		"stack.grid.zero_copy_hits", "stack.grid.copy_fallbacks", "stack.grid.seqlock_retries",
		"stack.grid.mirror_shard_lock_waits",
		"recovery.0.replay_ns", "recovery.0.mark_ns", "recovery.0.sweep_ns", "recovery.0.rebuild_ns",
		"recovery.0.live_objects", "recovery.0.swept_blocks", "recovery.0.replayed_tx",
		"server.requests", "server.batches", "server.write_fences", "server.bytes_in", "server.bytes_out",
	} {
		at := top
		for _, part := range strings.Split(key, ".") {
			switch x := at.(type) {
			case map[string]any:
				at = x[part]
			case []any:
				i, _ := strconv.Atoi(part)
				at = x[i]
			}
		}
		if _, ok := at.(float64); !ok {
			t.Errorf("stats document lacks pinned key %q", key)
		}
	}
}

// TestReportNamesEveryLayer: the pretty-printer gives every layer of a
// full stack its line.
func TestReportNamesEveryLayer(t *testing.T) {
	var buf strings.Builder
	filled[StackSnapshot](0, 4).Report(&buf)
	for _, want := range []string{
		"read", "read path:", "persistence per op:", "nvm:", "heap:",
		"fa:", "fa commit pipeline:", "fa group commit:", "fa delta ledger:",
		"recovery:",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Publish("a", func() any { return 1 })
	r.Publish("a", func() any { return 2 }) // replace
	r.Publish("b", func() any { return map[string]int{"x": 3} })
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["a"].(float64) != 2 {
		t.Fatalf("publish did not replace: %v", m)
	}
	r.Unpublish("b")
	if _, ok := r.Snapshot()["b"]; ok {
		t.Fatal("unpublish failed")
	}
}
