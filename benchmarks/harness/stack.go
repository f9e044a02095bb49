// Package harness is the repo's benchmark: load generators, an ack-log
// oracle, the four workloads, the per-layer ladder and probes, and the
// reducers that turn a run into BENCHMARK.json's metrics.
//
// stack.go is the only file that imports the program under test. Later
// PRs may refactor the program but may not edit the benchmark, so
// everything below is what they must keep working. The pinned entry
// points:
//
//	bench.NewEnv, bench.GridConfig{Backend, Records, FieldCount, FieldLen,
//	    Commit, DataDir}, bench.BackendKind
//	bench.Env.{Grid, Snapshot, AwaitDurable, Close}
//	bench.Env.{Pool, Heap, Mgr}                      (probes, RecoveryObs)
//	store.Grid.{Insert, Read, Update, AddDelta, ApplyBatch, Count, Backend}
//	store.Backend.{Read, Update}, store.DeltaAdder.AddDelta
//	store.{Field, Record, BatchOp, BatchResult, BatchRead, BatchUpdate,
//	    BatchAddDelta}
//	core.Heap.{RecoveryObs, Mem}; RecoveryStats.Snapshot
//	wire.{DialTimeout, Client.{Send, Flush, Recv, Ping, Stats, Close},
//	    NewServer, ServerConfig{Grid, AwaitDurable}, Server.{Serve,
//	    Shutdown}, Request, Response, AppendRequest, DecodeRequest,
//	    AppendResponse, DecodeResponse, OpRead, OpUpdate, OpAddDelta,
//	    OpInsert, StatusOK}
//	probes: nvm.Pool.{PWB, PFence}, heap.Heap.{AllocRaw, FreeRaw},
//	    fa.Manager.Run, fa.Tx.Free, pdt.{NewBytesTx, NewBytes, NewMap,
//	    MirrorHash, Map.Get, Map.Put}
//	pool file name under GridConfig.DataDir: pool-0.nvm
//	gridserver flags: -addr -backend -commit -records -fields -fieldlen -data
//	JSON keys of obs.StackSnapshot, obs.RecoverySnapshot and the
//	    gridserver Stats document: see pinnedKeys
package harness

import (
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/fa"
	"repro/internal/pdt"
	"repro/internal/store"
	"repro/internal/wire"
)

// FenceNs is the NVMM model every workload runs under: the repo default,
// a 120 ns busy-wait per pfence/psync and a free pwb.
const FenceNs = bench.DefaultFenceNs

// PoolFile is the name bench.NewEnv gives pool 0 under DataDir.
const PoolFile = "pool-0.nvm"

// Aliases keep the program's types out of the other files' imports.
type (
	Field       = store.Field
	BatchOp     = store.BatchOp
	BatchResult = store.BatchResult
	Client      = wire.Client
	Request     = wire.Request
	Response    = wire.Response
)

// Wire and batch vocabulary the workloads use.
const (
	WireInsert   = wire.OpInsert
	WireRead     = wire.OpRead
	WireUpdate   = wire.OpUpdate
	WireAddDelta = wire.OpAddDelta
	WireOK       = wire.StatusOK

	BatchRead     = store.BatchRead
	BatchUpdate   = store.BatchUpdate
	BatchAddDelta = store.BatchAddDelta
)

// Stack is an in-process grid over file-backed pools.
type Stack struct {
	env   *bench.Env
	async bool
}

func gridConfig(w *Workload, dir string) bench.GridConfig {
	return bench.GridConfig{
		Backend:    bench.BackendKind(w.Backend),
		Records:    w.Records,
		FieldCount: w.Fields,
		FieldLen:   w.FieldLen,
		Commit:     w.Commit,
		DataDir:    dir,
	}
}

// OpenStack opens (formatting or recovering) the pools under dir; an
// empty dir keeps them in anonymous memory.
func OpenStack(w *Workload, dir string) (*Stack, error) {
	env, err := bench.NewEnv(gridConfig(w, dir))
	if err != nil {
		return nil, err
	}
	return &Stack{env: env, async: w.Commit == "async"}, nil
}

// ServerArgs is the gridserver command line for w. The server doubles its
// -records hint when sizing the pool, so half the record count gives the
// child the same pool size OpenStack gives the embedded workloads.
func ServerArgs(w *Workload, addr, dir string) []string {
	commit := w.Commit
	if commit == "" {
		commit = "per-tx"
	}
	return []string{
		"-addr", addr, "-backend", w.Backend, "-commit", commit,
		"-records", strconv.Itoa(w.Records / 2), "-fields", strconv.Itoa(w.Fields),
		"-fieldlen", strconv.Itoa(w.FieldLen), "-data", dir,
	}
}

// Insert, Read, Update and AddDelta are the grid's operations (Target).
func (s *Stack) Insert(key string, fields []Field) error {
	return s.env.Grid.Insert(key, &store.Record{Fields: fields})
}
func (s *Stack) Read(key string, consume func(name string, value []byte)) error {
	return s.env.Grid.Read(key, consume)
}
func (s *Stack) Update(key string, fields []Field) error { return s.env.Grid.Update(key, fields) }
func (s *Stack) AddDelta(key, field string, delta int64) error {
	return s.env.Grid.AddDelta(key, field, delta)
}

// Count touches the backend's root structure, which on a recovered heap
// forces the mirror rebuild: ready means ready to serve.
func (s *Stack) Count() int { return s.env.Grid.Count() }

// ApplyBatch runs one window through the server's entry point.
func (s *Stack) ApplyBatch(ops []BatchOp, res []BatchResult) { s.env.Grid.ApplyBatch(ops, res) }

// AwaitDurable is the per-window durability wait (no-op unless async).
func (s *Stack) AwaitDurable() {
	if s.async {
		s.env.AwaitDurable()
	}
}

// Close drains and unmaps the pools. A crash is simulated by not calling
// it: the pool files then hold whatever the run had stored.
func (s *Stack) Close() { s.env.Close() }

// backendTarget applies operations to the bare backend, below the grid's
// locks, seqlock and latency histograms (ladder rung 1).
type backendTarget struct {
	b    store.Backend
	grid *store.Grid
}

// Backend returns the grid's backend as a Target. Single-goroutine use
// only: the grid's stripe locks are what make the backends concurrent.
func (s *Stack) Backend() Target { return backendTarget{s.env.Grid.Backend(), s.env.Grid} }

func (t backendTarget) Read(key string, consume func(name string, value []byte)) error {
	return found(t.b.Read(key, consume))
}
func (t backendTarget) Update(key string, fields []Field) error {
	return found(t.b.Update(key, fields))
}
func (t backendTarget) AddDelta(key, field string, delta int64) error {
	if da, ok := t.b.(store.DeltaAdder); ok {
		return found(da.AddDelta(key, field, delta))
	}
	return t.grid.AddDelta(key, field, delta)
}

func found(ok bool, err error) error {
	if err == nil && !ok {
		return store.ErrNotFound
	}
	return err
}

// Serve exposes the stack through an in-process wire server on loopback
// (ladder rung 4) and returns its address and a stop function.
func (s *Stack) Serve() (string, func(), error) {
	cfg := wire.ServerConfig{Grid: s.env.Grid}
	if s.async {
		cfg.AwaitDurable = s.env.AwaitDurable
	}
	srv := wire.NewServer(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // returns nil on Shutdown; a listener error ends the rung's clients too
	}()
	return l.Addr().String(), func() { srv.Shutdown(5 * time.Second); <-done }, nil
}

// Dial connects a wire client.
func Dial(addr string) (*Client, error) { return wire.DialTimeout(addr, time.Second) }

// ---- counters ----

// Counters is a flattened JSON stats document: "stack.nvm.pwbs",
// "server.requests", "recovery.0.mark_ns". Both the embedded and the
// networked workloads read the program's counters through JSON, so the
// benchmark depends on key names only, not on Go struct layouts.
type Counters map[string]float64

// pinnedKeys must be present in a stats document of a J-NVM stack;
// pinnedServerKeys additionally in a gridserver Stats reply.
var (
	pinnedKeys = []string{
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
	}
	pinnedServerKeys = []string{
		"server.requests", "server.batches", "server.write_fences", "server.bytes_in", "server.bytes_out",
		"records",
	}
)

func flatten(prefix string, v any, out Counters) {
	switch x := v.(type) {
	case float64:
		out[prefix] = x
	case map[string]any:
		for k, c := range x {
			flatten(prefix+"."+k, c, out)
		}
	case []any:
		for i, c := range x {
			flatten(prefix+"."+strconv.Itoa(i), c, out)
		}
	}
}

func parseCounters(doc []byte, required ...[]string) (Counters, error) {
	var top map[string]any
	if err := json.Unmarshal(doc, &top); err != nil {
		return nil, fmt.Errorf("stats document: %w", err)
	}
	out := Counters{}
	for k, v := range top {
		flatten(k, v, out)
	}
	for _, keys := range required {
		for _, k := range keys {
			if _, ok := out[k]; !ok {
				return nil, fmt.Errorf("stats document lacks pinned key %q", k)
			}
		}
	}
	return out, nil
}

// ParseServerStats flattens a gridserver Stats reply.
func ParseServerStats(blob []byte) (Counters, error) {
	return parseCounters(blob, pinnedKeys, pinnedServerKeys)
}

// Counters snapshots the in-process stack's counters in the layout of a
// gridserver Stats reply (without the server section).
func (s *Stack) Counters() (Counters, error) {
	doc, err := json.Marshal(map[string]any{
		"stack":    s.env.Snapshot(),
		"recovery": []any{s.env.Heap.RecoveryObs().Snapshot()},
	})
	if err != nil {
		return nil, err
	}
	return parseCounters(doc, pinnedKeys)
}

// Sub returns c minus prev for every key of c (gauges included: callers
// read gauges from the later snapshot, not from a delta).
func (c Counters) Sub(prev Counters) Counters {
	out := make(Counters, len(c))
	for k, v := range c {
		out[k] = v - prev[k]
	}
	return out
}

// ---- unit-cost probes ----
//
// A probe times one layer's public calls in the shape the workloads use
// them, on a small scratch stack in anonymous memory. Probe cost times the
// untraced run's counters is that layer's busy time per operation.

var probeShape = &Workload{Backend: "J-PFA", Records: 4_000, Fields: 10, FieldLen: 100}

func openProbe(backend, commit string) (*bench.Env, error) {
	w := *probeShape
	w.Backend, w.Commit = backend, commit
	return bench.NewEnv(gridConfig(&w, ""))
}

func perCall(start time.Time, n int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// ProbeNVM times n pfences and n pwbs.
func ProbeNVM(n int) (fenceNs, pwbNs float64, err error) {
	env, err := openProbe("J-PFA", "")
	if err != nil {
		return 0, 0, err
	}
	defer env.Close()
	start := time.Now()
	for i := 0; i < n; i++ {
		env.Pool.PFence()
	}
	fenceNs = perCall(start, n)
	start = time.Now()
	for i := 0; i < n; i++ {
		env.Pool.PWB(uint64(i%1024) * 64)
	}
	return fenceNs, perCall(start, n), nil
}

// ProbeHeap times n allocate-then-free pairs of one raw block.
func ProbeHeap(n int) (float64, error) {
	env, err := openProbe("J-PFA", "")
	if err != nil {
		return 0, err
	}
	defer env.Close()
	mem := env.Heap.Mem()
	start := time.Now()
	for i := 0; i < n; i++ {
		r, err := mem.AllocRaw()
		if err != nil {
			return 0, err
		}
		mem.FreeRaw(r)
	}
	return perCall(start, n), nil
}

// ProbeCommit times n failure-atomic blocks that each allocate a
// valLen-byte value and free the previous one: an update's commit without
// the map lookup and the record's reference write. In async mode the
// mean includes the epoch drains batch pressure triggers.
func ProbeCommit(commit string, n, valLen int) (float64, error) {
	env, err := openProbe("J-PFA", commit)
	if err != nil {
		return 0, err
	}
	defer env.Close()
	val := make([]byte, valLen)
	var prev *pdt.PBytes
	start := time.Now()
	for i := 0; i < n; i++ {
		err := env.Mgr.Run(func(tx *fa.Tx) error {
			vb, err := pdt.NewBytesTx(tx, val)
			if err != nil {
				return err
			}
			if prev != nil {
				if err := tx.Free(prev); err != nil {
					return err
				}
			}
			prev = vb
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return perCall(start, n), nil
}

// ProbeMap times n lookups and n value replacements on a persistent hash
// map of `keys` entries with valLen-byte values.
func ProbeMap(n, keys, valLen int) (getNs, putNs float64, err error) {
	env, err := openProbe("J-PDT", "")
	if err != nil {
		return 0, 0, err
	}
	defer env.Close()
	m, err := pdt.NewMap(env.Heap, pdt.MirrorHash)
	if err != nil {
		return 0, 0, err
	}
	names := make([]string, keys)
	val := make([]byte, valLen)
	put := func(k string) error {
		vb, err := pdt.NewBytes(env.Heap, val)
		if err != nil {
			return err
		}
		return m.Put(k, vb)
	}
	for i := range names {
		names[i] = KeyName(i)
		if err := put(names[i]); err != nil {
			return 0, 0, err
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if po, err := m.Get(names[i%keys]); err != nil || po == nil {
			return 0, 0, fmt.Errorf("probe map get %s: %v", names[i%keys], err)
		}
	}
	getNs = perCall(start, n)
	start = time.Now()
	for i := 0; i < n; i++ {
		if err := put(names[i%keys]); err != nil {
			return 0, 0, err
		}
	}
	return getNs, perCall(start, n), nil
}

// ProbeCodec times the four codec calls one request costs (encode and
// decode of the request and of its response), averaged over reqs.
func ProbeCodec(reqs []Request, resps []Response, rounds int) (float64, error) {
	var buf []byte
	var req Request
	var resp Response
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range reqs {
			buf = wire.AppendRequest(buf[:0], &reqs[i])
			if err := wire.DecodeRequest(buf[4:], &req); err != nil {
				return 0, err
			}
			buf = wire.AppendResponse(buf[:0], &resps[i])
			if err := wire.DecodeResponse(buf[4:], &resp); err != nil {
				return 0, err
			}
		}
	}
	return perCall(start, rounds*len(reqs)), nil
}
