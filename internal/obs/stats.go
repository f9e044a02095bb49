package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Per-layer stat holders. Each layer of the stack embeds one of these and
// bumps its counters on the hot path; snapshots assemble into a
// StackSnapshot for reporting.

// ---- NVMM primitives (internal/nvm) ----

// NVMStats counts the hardware-level persistence primitives of §3.2.2 —
// the currency in which the paper prices everything (Table 3).
type NVMStats struct {
	Stores  Counter // individual store calls (any width)
	PWBs    Counter // cache-line write-backs (clwb)
	PFences Counter // ordering fences
	PSyncs  Counter // durability fences (sfence on the paper's hardware)
}

// NVMSnapshot is an immutable copy of NVMStats.
type NVMSnapshot struct {
	Stores  uint64 `json:"stores"`
	PWBs    uint64 `json:"pwbs"`
	PFences uint64 `json:"pfences"`
	PSyncs  uint64 `json:"psyncs"`
}

// Snapshot captures the current counter values.
func (s *NVMStats) Snapshot() NVMSnapshot { return load[NVMSnapshot](s) }

// Sub returns the delta since prev.
func (s NVMSnapshot) Sub(prev NVMSnapshot) NVMSnapshot { return sub(s, prev) }

// Fences returns ordering plus durability fences — the paper's combined
// "pfence" column (both map to sfence on x86).
func (s NVMSnapshot) Fences() uint64 { return s.PFences + s.PSyncs }

// ---- Block heap (internal/heap) ----

// HeapStats counts allocator activity: object allocations and frees,
// pool-allocator (small-object) traffic of §4.4, and where blocks come
// from (bump pointer vs recycled free queue).
type HeapStats struct {
	ObjAllocs   Counter // block-chain objects allocated
	ObjFrees    Counter // block-chain objects freed
	SmallAllocs Counter // pooled small-object slots allocated (§4.4 hits)
	SmallFrees  Counter // pooled slots freed
	Carves      Counter // pool chunks carved from fresh blocks
	BumpAllocs  Counter // blocks taken from the bump pointer
	ReuseAllocs Counter // blocks recycled from the volatile free queue

	// TransientReuse is never incremented (fa takes no raw blocks); it
	// stays because benchmarks/harness reads its key.
	TransientReuse Counter
}

// HeapSnapshot combines the counters with point-in-time gauges supplied by
// the heap (free-list depth, bump high-water, arena capacity).
type HeapSnapshot struct {
	ObjAllocs   uint64 `json:"obj_allocs"`
	ObjFrees    uint64 `json:"obj_frees"`
	SmallAllocs uint64 `json:"small_allocs"`
	SmallFrees  uint64 `json:"small_frees"`
	Carves      uint64 `json:"pool_chunk_carves"`
	BumpAllocs  uint64 `json:"bump_allocs"`
	ReuseAllocs uint64 `json:"reuse_allocs"`

	TransientReuse uint64 `json:"transient_reuse"`

	Bump        uint64 `json:"bump_high_water" obs:"gauge"`
	FreeBlocks  uint64 `json:"free_list_depth" obs:"gauge"`
	TotalBlocks uint64 `json:"total_blocks" obs:"gauge"`
}

// Snapshot captures the counters plus the supplied allocator gauges.
func (s *HeapStats) Snapshot(bump, freeBlocks, totalBlocks uint64) HeapSnapshot {
	out := load[HeapSnapshot](s)
	out.Bump, out.FreeBlocks, out.TotalBlocks = bump, freeBlocks, totalBlocks
	return out
}

// Sub returns the delta since prev; gauges keep their current values.
func (s HeapSnapshot) Sub(prev HeapSnapshot) HeapSnapshot { return sub(s, prev) }

// ---- Failure-atomic blocks (internal/fa) ----

// FAStats counts the redo-log protocol of §4.2.
type FAStats struct {
	Begun      Counter // failure-atomic blocks opened
	Committed  Counter // outermost commits completed
	Aborted    Counter // blocks abandoned
	LogEntries Counter // redo-log entries appended
	Replays    Counter // committed logs replayed at recovery

	WordEntries Counter // kindWord entries appended: words of valid blocks stored to, and delta folds

	TxReuse      Counter // Begin that ran its slot's warm Tx: every Begin, since a slot's Tx is built once
	FlushedLines Counter // cache lines actually written back at commit
	SavedLines   Counter // lines the flush set coalesced away (dedup hits)

	Epochs       Counter // async group-commit epochs drained
	EpochTxs     Counter // commits made durable by an epoch drain
	AsyncCommits Counter // async commits enqueued (tickets issued)

	DeltaOps     Counter // delta ops accepted by the async ledger (tickets issued)
	DeltasFolded Counter // delta ops folded into an already-pending entry
	DeltaEntries Counter // ledger entries materialized (one word entry + home-line flush each)
}

// FASnapshot combines the counters with slot-occupancy gauges.
type FASnapshot struct {
	Begun      uint64 `json:"begun"`
	Committed  uint64 `json:"committed"`
	Aborted    uint64 `json:"aborted"`
	LogEntries uint64 `json:"log_entries"`
	Replays    uint64 `json:"recovery_replays"`

	WordEntries uint64 `json:"word_entries"`

	TxReuse      uint64 `json:"tx_slot_reuse"`
	FlushedLines uint64 `json:"flushed_lines"`
	SavedLines   uint64 `json:"coalesced_lines_saved"`

	Epochs       uint64 `json:"group_epochs"`
	EpochTxs     uint64 `json:"group_epoch_txs"`
	AsyncCommits uint64 `json:"async_commits"`
	// CombinedFences counts the barriers async epoch drains amortized away
	// vs the per-Tx protocol: CommitBarriers per epoch commit beyond the
	// first. Filled by the manager.
	CombinedFences uint64 `json:"combined_fences" obs:"filled"`

	DeltaOps     uint64 `json:"delta_ops"`
	DeltasFolded uint64 `json:"deltas_folded"`
	DeltaEntries uint64 `json:"delta_entries"`
	// DeltaFlushesSaved is the redo-log writes (and their line flushes)
	// that folding avoided: ops minus materialized entries minus the
	// entries still pending in the ledger. Filled by the manager.
	DeltaFlushesSaved uint64 `json:"delta_flushes_saved" obs:"filled"`

	SlotsTotal uint64 `json:"log_slots_total" obs:"gauge"`
	SlotsInUse uint64 `json:"log_slots_in_use" obs:"gauge"`
	// WatermarkLag is async commits acknowledged but not yet durable
	// (tickets issued minus the durability watermark) at snapshot time.
	WatermarkLag uint64 `json:"watermark_lag" obs:"gauge"`
}

// Snapshot captures the counters plus the supplied occupancy gauges.
func (s *FAStats) Snapshot(slotsTotal, slotsInUse uint64) FASnapshot {
	out := load[FASnapshot](s)
	out.SlotsTotal, out.SlotsInUse = slotsTotal, slotsInUse
	return out
}

// Sub returns the delta since prev; gauges keep their current values.
func (s FASnapshot) Sub(prev FASnapshot) FASnapshot { return sub(s, prev) }

// ---- Data grid (internal/store) ----

// Grid operation names, in display order.
var GridOps = []string{"insert", "read", "update", "rmw", "delete"}

// ReadStats counts the zero-copy read path (DESIGN.md §14): how often a
// read streamed NVMM views directly, how often it fell back to the locked
// deep-copy path, how many generation races the seqlock validation caught,
// and how contended the mirror shard locks are.
type ReadStats struct {
	ZeroCopyHits   Counter // reads served as views with a clean generation check
	CopyFallbacks  Counter // zero-copy attempts diverted to the locked path
	SeqlockRetries Counter // generation races detected after the consume callback
	ShardLockWaits Counter // contended mirror-shard lock acquisitions
}

// GridStats holds the per-operation latency histograms of the grid front
// door plus the read-path counters.
type GridStats struct {
	ReadPath ReadStats

	Insert Histogram
	Read   Histogram
	Update Histogram
	RMW    Histogram
	Delete Histogram
}

// Op returns the histogram for the named operation (nil if unknown).
func (s *GridStats) Op(name string) *Histogram {
	switch name {
	case "insert":
		return &s.Insert
	case "read":
		return &s.Read
	case "update":
		return &s.Update
	case "rmw":
		return &s.RMW
	case "delete":
		return &s.Delete
	}
	return nil
}

// GridSnapshot is an immutable copy of GridStats.
type GridSnapshot struct {
	ZeroCopyHits   uint64 `json:"zero_copy_hits"`
	CopyFallbacks  uint64 `json:"copy_fallbacks"`
	SeqlockRetries uint64 `json:"seqlock_retries"`
	ShardLockWaits uint64 `json:"mirror_shard_lock_waits"`

	PerOp map[string]HistogramSnapshot `json:"per_op"`
}

// Snapshot captures the counters and every per-op histogram.
func (s *GridStats) Snapshot() GridSnapshot {
	out := load[GridSnapshot](s)
	out.PerOp = make(map[string]HistogramSnapshot, len(GridOps))
	for _, op := range GridOps {
		if h := s.Op(op); h.Count() > 0 {
			out.PerOp[op] = h.Snapshot()
		}
	}
	return out
}

// Ops returns the total operations across all histograms.
func (s GridSnapshot) Ops() uint64 {
	var n uint64
	for _, h := range s.PerOp {
		n += h.Count
	}
	return n
}

// Sub returns the delta since prev; gauge-less, so everything subtracts
// (an operation with no samples in the interval drops out of PerOp).
func (s GridSnapshot) Sub(prev GridSnapshot) GridSnapshot { return sub(s, prev) }

// ---- Recovery pipeline (restart path: §4.2 replay, §4.1.3 GC, §4.3.2
// mirror rebuild) ----

// RecoveryStats times and counts the phases of the recovery pipeline.
// Counters are cumulative over the process lifetime (an in-process reopen
// adds on top).
type RecoveryStats struct {
	ReplayNs  Counter // redo-log replay wall time (§4.2)
	MarkNs    Counter // graph traversal or header scan wall time
	SweepNs   Counter // allocator-state rebuild wall time
	RebuildNs Counter // J-PDT mirror rebuild wall time (OnResurrect)

	ReplayedTx      Counter // committed log slots replayed
	MarkedBlocks    Counter // arena blocks found live
	SweptBlocks     Counter // dead blocks returned to the free queue
	ScrubbedHeaders Counter // stale headers cleared above the new bump
	LiveObjects     Counter // objects visited by the traversal/scan
	NullifiedRefs   Counter // dangling references cleared (§2.4)
	RebuildEntries  Counter // map bindings re-indexed into volatile mirrors
}

// RecoverySnapshot is an immutable copy of RecoveryStats.
type RecoverySnapshot struct {
	ReplayNs  uint64 `json:"replay_ns"`
	MarkNs    uint64 `json:"mark_ns"`
	SweepNs   uint64 `json:"sweep_ns"`
	RebuildNs uint64 `json:"rebuild_ns"`

	ReplayedTx      uint64 `json:"replayed_tx"`
	MarkedBlocks    uint64 `json:"marked_blocks"`
	SweptBlocks     uint64 `json:"swept_blocks"`
	ScrubbedHeaders uint64 `json:"scrubbed_headers"`
	LiveObjects     uint64 `json:"live_objects"`
	NullifiedRefs   uint64 `json:"nullified_refs"`
	RebuildEntries  uint64 `json:"rebuild_entries"`
}

// Snapshot captures the current counter values.
func (s *RecoveryStats) Snapshot() RecoverySnapshot { return load[RecoverySnapshot](s) }

// TotalNs returns the summed wall time of all recovery phases.
func (s RecoverySnapshot) TotalNs() uint64 {
	return s.ReplayNs + s.MarkNs + s.SweepNs + s.RebuildNs
}

// Sub returns the delta since prev.
func (s RecoverySnapshot) Sub(prev RecoverySnapshot) RecoverySnapshot { return sub(s, prev) }

// ---- The whole stack ----

// StackSnapshot assembles one coherent view across every layer, plus the
// derived Table-3-style per-operation primitive rates.
type StackSnapshot struct {
	NVM      *NVMSnapshot      `json:"nvm,omitempty"`
	Heap     *HeapSnapshot     `json:"heap,omitempty"`
	FA       *FASnapshot       `json:"fa,omitempty"`
	Grid     *GridSnapshot     `json:"grid,omitempty"`
	Recovery *RecoverySnapshot `json:"recovery,omitempty"`

	// Derived: persistence primitives per grid operation — the columns
	// the paper's Table 3 reports per data-structure operation.
	Ops         uint64  `json:"ops" obs:"derived"`
	PWBPerOp    float64 `json:"pwb_per_op" obs:"derived"`
	PFencePerOp float64 `json:"pfence_per_op" obs:"derived"`
	StoresPerOp float64 `json:"stores_per_op" obs:"derived"`
}

// Finalize recomputes the derived per-op columns from the layer
// snapshots. Call it after assembling or deltaing a StackSnapshot.
func (s *StackSnapshot) Finalize() {
	s.Ops = 0
	s.PWBPerOp, s.PFencePerOp, s.StoresPerOp = 0, 0, 0
	if s.Grid != nil {
		s.Ops = s.Grid.Ops()
	}
	if s.NVM != nil && s.Ops > 0 {
		s.PWBPerOp = float64(s.NVM.PWBs) / float64(s.Ops)
		s.PFencePerOp = float64(s.NVM.Fences()) / float64(s.Ops)
		s.StoresPerOp = float64(s.NVM.Stores) / float64(s.Ops)
	}
}

// Sub returns the interval delta since prev, with derived columns
// recomputed over the interval. A layer absent from s stays absent; one
// absent from prev deltas against zero.
func (s StackSnapshot) Sub(prev StackSnapshot) StackSnapshot { return sub(s, prev) }

// Report pretty-prints the snapshot: per-op latency distribution first
// (the figures), then the per-op primitive rates (Table 3), then raw
// layer counters.
func (s StackSnapshot) Report(w io.Writer) {
	if s.Grid != nil && len(s.Grid.PerOp) > 0 {
		fmt.Fprintf(w, "%-10s%12s%12s%12s%12s%12s%12s\n",
			"op", "count", "mean", "p50", "p95", "p99", "max")
		ops := make([]string, 0, len(s.Grid.PerOp))
		for op := range s.Grid.PerOp {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			h := s.Grid.PerOp[op]
			fmt.Fprintf(w, "%-10s%12d%12s%12s%12s%12s%12s\n", op, h.Count,
				ns(h.Mean()), ns(h.Percentile(0.50)), ns(h.Percentile(0.95)),
				ns(h.Percentile(0.99)), ns(h.Max))
		}
		if g := s.Grid; g.ZeroCopyHits+g.CopyFallbacks+g.SeqlockRetries+g.ShardLockWaits > 0 {
			fmt.Fprintf(w, "read path: %d zero-copy, %d copy fallbacks, %d seqlock retries, %d shard-lock waits\n",
				g.ZeroCopyHits, g.CopyFallbacks, g.SeqlockRetries, g.ShardLockWaits)
		}
	}
	if s.NVM != nil {
		if s.Ops > 0 {
			fmt.Fprintf(w, "persistence per op: %.2f pwb, %.2f pfence, %.1f stores (%d ops)\n",
				s.PWBPerOp, s.PFencePerOp, s.StoresPerOp, s.Ops)
		}
		fmt.Fprintf(w, "nvm: %d stores, %d pwb, %d pfence, %d psync\n",
			s.NVM.Stores, s.NVM.PWBs, s.NVM.PFences, s.NVM.PSyncs)
	}
	if s.Heap != nil {
		fmt.Fprintf(w, "heap: %d/%d obj alloc/free, %d/%d small alloc/free, %d carves; bump %d, free %d of %d blocks\n",
			s.Heap.ObjAllocs, s.Heap.ObjFrees, s.Heap.SmallAllocs, s.Heap.SmallFrees,
			s.Heap.Carves, s.Heap.Bump, s.Heap.FreeBlocks, s.Heap.TotalBlocks)
	}
	if s.FA != nil {
		fmt.Fprintf(w, "fa: %d begun, %d committed, %d aborted, %d log entries, %d replays; %d/%d slots in use\n",
			s.FA.Begun, s.FA.Committed, s.FA.Aborted, s.FA.LogEntries, s.FA.Replays,
			s.FA.SlotsInUse, s.FA.SlotsTotal)
		if s.FA.FlushedLines+s.FA.SavedLines > 0 {
			fmt.Fprintf(w, "fa commit pipeline: %d warm-tx reuse, %d lines flushed, %d coalesced away (%.0f%% saved), %d word entries\n",
				s.FA.TxReuse, s.FA.FlushedLines, s.FA.SavedLines,
				100*float64(s.FA.SavedLines)/float64(s.FA.FlushedLines+s.FA.SavedLines),
				s.FA.WordEntries)
		}
		if s.FA.EpochTxs+s.FA.AsyncCommits > 0 {
			avg := float64(0)
			if s.FA.Epochs > 0 {
				avg = float64(s.FA.EpochTxs) / float64(s.FA.Epochs)
			}
			fmt.Fprintf(w, "fa group commit: %d epochs (avg %.1f tx), %d async commits, %d combined fences, watermark lag %d\n",
				s.FA.Epochs, avg, s.FA.AsyncCommits, s.FA.CombinedFences, s.FA.WatermarkLag)
		}
		if s.FA.DeltaOps > 0 {
			ratio := float64(s.FA.DeltaOps)
			if s.FA.DeltaEntries > 0 {
				ratio = float64(s.FA.DeltaOps) / float64(s.FA.DeltaEntries)
			}
			fmt.Fprintf(w, "fa delta ledger: %d ops, %d folded, %d entries materialized (%.1fx fold), %d flushes saved\n",
				s.FA.DeltaOps, s.FA.DeltasFolded, s.FA.DeltaEntries, ratio, s.FA.DeltaFlushesSaved)
		}
	}
	if r := s.Recovery; r != nil && r.TotalNs() > 0 {
		fmt.Fprintf(w, "recovery: %s replay, %s mark, %s sweep, %s rebuild; %d tx, %d live obj, %d marked, %d swept, %d nullified, %d rebuilt\n",
			ns(r.ReplayNs), ns(r.MarkNs), ns(r.SweepNs), ns(r.RebuildNs),
			r.ReplayedTx, r.LiveObjects, r.MarkedBlocks, r.SweptBlocks, r.NullifiedRefs, r.RebuildEntries)
	}
}

func ns(v uint64) string { return time.Duration(v).Round(10 * time.Nanosecond).String() }
