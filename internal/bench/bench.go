// Package bench wires the substrates together into the paper's
// experiments: one function per figure/table of §5, shared by the cmd/
// tools and by the root testing.B benchmarks. Each function returns
// structured rows so callers can print the same tables and series the
// paper reports.
package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pdt"
	"repro/internal/shard"
	"repro/internal/store"
)

// BackendKind names a persistence backend of §5.1.
type BackendKind string

// The evaluated backends.
const (
	JPDT     BackendKind = "J-PDT"
	JPDTLF   BackendKind = "J-PDT-LF"
	JPFA     BackendKind = "J-PFA"
	FS       BackendKind = "FS"
	PCJ      BackendKind = "PCJ"
	TmpFS    BackendKind = "TmpFS"
	NullFS   BackendKind = "NullFS"
	Volatile BackendKind = "Volatile"
)

// GridConfig sizes one grid instance.
type GridConfig struct {
	Backend    BackendKind
	Records    int
	FieldCount int
	FieldLen   int
	// CacheEntries bounds the grid's volatile record cache (FS family).
	// J-NVM backends ignore it unless ProxyCache is set (§5.3.1: J-PDT
	// only caches proxies).
	CacheEntries int
	// ProxyCache enables the J-PDT map proxy cache.
	ProxyCache pdt.CacheMode
	// FenceNs is the simulated NVMM fence latency (default 120 ns).
	FenceNs int
	// Dir hosts FS backend files (a temp dir when empty).
	Dir string
	// Commit selects the commit protocol of the J-NVM backends: "" or
	// "per-tx" (every commit fences alone, §4.2), "group" (concurrent
	// commits share barriers, still synchronous), or "async" (epoch
	// pipeline; Commit returns a ticket, durability trails at the
	// watermark). Non-J-NVM backends ignore it.
	Commit string
	// Pools shards the J-NVM backends across this many NVMM pools
	// (DESIGN.md §17): per-pool allocators, logs, and backends behind
	// one routing grid backend. 0 or 1 keeps the classic single-pool
	// stack; non-J-NVM backends ignore it.
	Pools int
	// DataDir, when set, backs the J-NVM pools with files
	// (DataDir/pool-<i>.nvm via nvm.OpenFile) instead of anonymous
	// memory, so the heap survives process death: a restarted process
	// pointed at the same directory recovers the records — the wire
	// server's crash-and-recover substrate. Non-J-NVM backends ignore
	// it.
	DataDir string
}

// CommitModeName folds the -group-commit/-durability flag pair of the cmd
// tools into a GridConfig.Commit value. Async implies grouping (the epoch
// pipeline is what amortizes the fences); sync without -group-commit is
// the per-Tx default.
func CommitModeName(groupCommit bool, durability string) (string, error) {
	switch durability {
	case "", "sync":
		if groupCommit {
			return "group", nil
		}
		return "", nil
	case "async":
		return "async", nil
	}
	return "", fmt.Errorf("bench: unknown durability %q (want sync or async)", durability)
}

// ParseCommitMode maps the -group-commit/-durability flag vocabulary to a
// commit mode.
func ParseCommitMode(s string) (fa.CommitMode, error) {
	switch s {
	case "", "per-tx":
		return fa.CommitPerTx, nil
	case "group", "sync":
		return fa.CommitGroup, nil
	case "async":
		return fa.CommitAsync, nil
	}
	return 0, fmt.Errorf("bench: unknown commit mode %q (want per-tx, group or async)", s)
}

// DefaultFenceNs approximates the sfence+ADR cost the paper pays on
// Optane.
const DefaultFenceNs = 120

// EstimatePoolBytes sizes an NVMM pool for a YCSB dataset with churn
// headroom.
func EstimatePoolBytes(records, fieldCount, fieldLen int) int {
	valBlocks := heap.BlocksFor(uint64(fieldLen + 4))
	perRecord := fieldCount*valBlocks*heap.BlockSize + // values
		fieldCount*48 + // pooled names
		heap.BlocksFor(uint64(8+16*fieldCount))*heap.BlockSize + // record object
		heap.BlockSize + // pair
		64 + // pooled key
		32 // map slots
	total := records*perRecord*2 + (32 << 20)
	return total
}

// Env is one ready-to-run grid with its lifecycle.
type Env struct {
	Grid    *store.Grid
	Heap    *core.Heap  // nil for non-J-NVM backends and sharded envs
	Pool    *nvm.Pool   // nil for non-J-NVM backends and sharded envs
	Mgr     *fa.Manager // nil for non-J-NVM backends and sharded envs
	Set     *shard.Set  // non-nil when GridConfig.Pools > 1
	cleanup func()
}

// DrainDurable forces every queued async commit out to NVMM — all pools
// of a sharded env, the single manager otherwise.
func (e *Env) DrainDurable() {
	if e.Set != nil {
		e.Set.DrainDurable()
	}
	if e.Mgr != nil {
		e.Mgr.DrainDurable()
	}
}

// AwaitDurable blocks until everything committed so far is durable,
// without forcing an early epoch drain the way DrainDurable does: each
// manager waits for its watermark to cover the tickets already issued,
// so concurrent callers' windows combine into shared epochs. No-op in
// the synchronous commit modes. This is the wire server's per-window
// durability wait (DESIGN.md §18).
func (e *Env) AwaitDurable() {
	if e.Set != nil {
		for i := 0; i < e.Set.Pools(); i++ {
			m := e.Set.Manager(i)
			m.AwaitDurable(m.IssuedTickets())
		}
	}
	if e.Mgr != nil {
		e.Mgr.AwaitDurable(e.Mgr.IssuedTickets())
	}
}

// Close releases resources. Queued async commits are drained first so no
// acknowledged ticket is abandoned short of durability.
func (e *Env) Close() {
	e.DrainDurable()
	if e.cleanup != nil {
		e.cleanup()
	}
}

// Snapshot assembles one coherent metrics view across every layer the
// environment owns (grid always; nvm/heap/fa for the J-NVM backends).
// Experiments diff two snapshots to report interval metrics.
func (e *Env) Snapshot() *obs.StackSnapshot {
	s := &obs.StackSnapshot{}
	if e.Grid != nil {
		g := e.Grid.ObsSnapshot()
		s.Grid = &g
	}
	if e.Pool != nil {
		n := e.Pool.Obs().Snapshot()
		s.NVM = &n
	}
	if e.Heap != nil {
		hs := e.Heap.Mem().ObsSnapshot()
		s.Heap = &hs
	}
	if e.Mgr != nil {
		f := e.Mgr.ObsSnapshot()
		s.FA = &f
	}
	if e.Set != nil {
		sh := e.Set.Snapshot()
		s.Shard = &sh
		// The global layer gauges are the element-wise sums of the
		// per-pool breakdown, so existing tooling (check_bench.sh, the
		// report printer) reads a sharded stack unchanged.
		var total obs.PoolSnapshot
		for _, p := range sh.PerPool {
			total = total.Add(p)
		}
		s.NVM, s.Heap, s.FA = &total.NVM, &total.Heap, &total.FA
	}
	s.Finalize()
	return s
}

// publish exposes the environment on the default metrics registry (the
// -metrics-addr listener); replace semantics keep the live env visible as
// experiments cycle through environments.
func (e *Env) publish() *Env {
	obs.Default.Publish("bench_env", func() any { return e.Snapshot() })
	return e
}

// NewEnv builds a grid over the requested backend, with a freshly
// formatted heap for the J-NVM backends.
func NewEnv(cfg GridConfig) (*Env, error) {
	if cfg.FenceNs == 0 {
		cfg.FenceNs = DefaultFenceNs
	}
	if cfg.Pools > 1 {
		switch cfg.Backend {
		case JPDT, JPDTLF, JPFA, PCJ:
		default:
			return nil, fmt.Errorf("bench: backend %q cannot be sharded across %d pools", cfg.Backend, cfg.Pools)
		}
	}
	switch cfg.Backend {
	case Volatile:
		return (&Env{Grid: store.NewGrid(store.NewVolatileBackend(), store.Options{CacheEntries: cfg.CacheEntries})}).publish(), nil
	case TmpFS:
		return (&Env{Grid: store.NewGrid(store.NewTmpFSBackend(), store.Options{CacheEntries: cfg.CacheEntries})}).publish(), nil
	case NullFS:
		return (&Env{Grid: store.NewGrid(store.NewNullFSBackend(), store.Options{CacheEntries: cfg.CacheEntries})}).publish(), nil
	case FS:
		dir := cfg.Dir
		var cleanup func()
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "jnvm-fs-*")
			if err != nil {
				return nil, err
			}
			cleanup = func() { os.RemoveAll(dir) }
		}
		b, err := store.NewFSBackend(dir, false)
		if err != nil {
			return nil, err
		}
		return (&Env{Grid: store.NewGrid(b, store.Options{CacheEntries: cfg.CacheEntries}), cleanup: cleanup}).publish(), nil
	case JPDT, JPDTLF, JPFA, PCJ:
		if cfg.Pools > 1 {
			return newShardEnv(cfg)
		}
		pool, err := newPool(cfg, 0, EstimatePoolBytes(cfg.Records, cfg.FieldCount, cfg.FieldLen))
		if err != nil {
			return nil, err
		}
		mgr := fa.NewManager()
		classes := append(pdt.Classes(), store.Classes()...)
		h, err := core.Open(pool, core.Config{
			HeapOptions: heap.Options{LogSlots: 64, LogSlotSize: 1 << 15},
			Classes:     classes,
			LogHandler:  mgr,
		})
		if err != nil {
			return nil, err
		}
		var backend store.Backend
		switch cfg.Backend {
		case JPDT:
			b, err := store.NewJPDTBackend(h, "kv")
			if err != nil {
				return nil, err
			}
			if cfg.ProxyCache != pdt.CacheNone {
				if err := b.SetProxyCache(cfg.ProxyCache); err != nil {
					return nil, err
				}
			}
			backend = b
		case JPDTLF:
			b, err := store.NewJPDTLFBackend(h, "kv")
			if err != nil {
				return nil, err
			}
			backend = b
		case JPFA:
			b, err := store.NewJPFABackend(h, mgr, "kv")
			if err != nil {
				return nil, err
			}
			backend = b
		case PCJ:
			b, err := store.NewPCJBackend(h, "kv")
			if err != nil {
				return nil, err
			}
			backend = b
		}
		if cfg.Commit != "" {
			mode, err := ParseCommitMode(cfg.Commit)
			if err != nil {
				return nil, err
			}
			if err := mgr.SetGroupCommit(fa.GroupOptions{Mode: mode}); err != nil {
				return nil, err
			}
		}
		// The paper disables record caching for the J-NVM backends
		// (§5.3.1: "caching brings almost no performance benefits").
		env := &Env{Grid: store.NewGrid(backend, store.Options{}), Heap: h, Pool: pool, Mgr: mgr}
		if cfg.DataDir != "" {
			env.cleanup = func() { pool.Close() }
		}
		return env.publish(), nil
	}
	return nil, fmt.Errorf("bench: unknown backend %q", cfg.Backend)
}

// newPool builds pool i of an environment: anonymous memory by default,
// a file-backed (DAX-style) pool under cfg.DataDir when set.
func newPool(cfg GridConfig, i, size int) (*nvm.Pool, error) {
	opts := nvm.Options{FenceLatency: cfg.FenceNs}
	if cfg.DataDir == "" {
		return nvm.New(size, opts), nil
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	return nvm.OpenFile(filepath.Join(cfg.DataDir, fmt.Sprintf("pool-%d.nvm", i)), size, opts)
}

// shardBackendCtor maps a backend kind to the per-pool constructor the
// shard set invokes once per pool.
func shardBackendCtor(cfg GridConfig) (func(h *core.Heap, mgr *fa.Manager) (store.Backend, error), error) {
	switch cfg.Backend {
	case JPDT:
		return func(h *core.Heap, mgr *fa.Manager) (store.Backend, error) {
			b, err := store.NewJPDTBackend(h, "kv")
			if err != nil {
				return nil, err
			}
			if cfg.ProxyCache != pdt.CacheNone {
				if err := b.SetProxyCache(cfg.ProxyCache); err != nil {
					return nil, err
				}
			}
			return b, nil
		}, nil
	case JPDTLF:
		return func(h *core.Heap, mgr *fa.Manager) (store.Backend, error) {
			return store.NewJPDTLFBackend(h, "kv")
		}, nil
	case JPFA:
		return func(h *core.Heap, mgr *fa.Manager) (store.Backend, error) {
			return store.NewJPFABackend(h, mgr, "kv")
		}, nil
	case PCJ:
		return func(h *core.Heap, mgr *fa.Manager) (store.Backend, error) {
			return store.NewPCJBackend(h, "kv")
		}, nil
	}
	return nil, fmt.Errorf("bench: backend %q cannot be sharded", cfg.Backend)
}

// newShardEnv builds a multi-pool J-NVM environment: the dataset's pool
// budget split evenly with 50% per-pool headroom (jump hashing balances
// within a few percent, and the headroom keeps skew off the fallback
// path), one backend per pool, and the set's routing backend under the
// grid.
func newShardEnv(cfg GridConfig) (*Env, error) {
	ctor, err := shardBackendCtor(cfg)
	if err != nil {
		return nil, err
	}
	total := EstimatePoolBytes(cfg.Records, cfg.FieldCount, cfg.FieldLen)
	per := total/cfg.Pools + total/(2*cfg.Pools)
	if per < 8<<20 {
		per = 8 << 20
	}
	pools := make([]*nvm.Pool, cfg.Pools)
	for i := range pools {
		p, err := newPool(cfg, i, per)
		if err != nil {
			return nil, err
		}
		pools[i] = p
	}
	s, err := shard.Open(pools, shard.Config{
		HeapOptions: heap.Options{LogSlots: 64, LogSlotSize: 1 << 15},
		Classes:     func() []*core.Class { return append(pdt.Classes(), store.Classes()...) },
		NewBackend:  ctor,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Commit != "" {
		mode, err := ParseCommitMode(cfg.Commit)
		if err != nil {
			return nil, err
		}
		for i := 0; i < s.Pools(); i++ {
			if err := s.Manager(i).SetGroupCommit(fa.GroupOptions{Mode: mode}); err != nil {
				return nil, err
			}
		}
	}
	env := &Env{Grid: store.NewGrid(s.Backend(), store.Options{}), Set: s}
	if cfg.DataDir != "" {
		env.cleanup = func() {
			for _, p := range pools {
				p.Close()
			}
		}
	}
	return env.publish(), nil
}
