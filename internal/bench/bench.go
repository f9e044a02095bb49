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

	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pdt"
	"repro/internal/stack"
	"repro/internal/store"
)

// BackendKind names a persistence backend of §5.1.
type BackendKind string

// The evaluated backends.
const (
	JPDT     BackendKind = stack.JPDT
	JPFA     BackendKind = stack.JPFA
	FS       BackendKind = "FS"
	PCJ      BackendKind = stack.PCJ
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
	// CacheEntries bounds the volatile record cache (store.Cached) in
	// front of an FS-family backend. J-NVM backends ignore it (§5.3.1:
	// J-PDT only caches proxies; see ProxyCache).
	CacheEntries int
	// ProxyCache enables the J-PDT map proxy cache.
	ProxyCache pdt.CacheMode
	// FenceNs is the simulated NVMM fence latency (default 120 ns).
	FenceNs int
	// Dir hosts FS backend files (a temp dir when empty).
	Dir string
	// Commit selects the commit protocol of the J-NVM backends: "" or
	// "per-tx" (every commit fences alone, §4.2) or "async" (epoch
	// pipeline; Commit returns a ticket, durability trails at the
	// watermark). Non-J-NVM backends ignore it.
	Commit string
	// DataDir, when set, backs the J-NVM pool with a file
	// (DataDir/pool-0.nvm via nvm.OpenFile) instead of anonymous memory,
	// so the heap survives process death: a restarted process pointed at
	// the same directory recovers the records — the wire server's
	// crash-and-recover substrate. Non-J-NVM backends ignore it.
	DataDir string
}

// DefaultFenceNs approximates the sfence+ADR cost the paper pays on
// Optane.
const DefaultFenceNs = 120

// EstimatePoolBytes sizes an NVMM pool for a YCSB dataset with churn
// headroom. Per record it budgets what the J-NVM backends allocate per
// record (DESIGN.md §3.1): the table, the map's key and binding words,
// and a block per value that does not fit a table word — field names are
// stored once per backend and values of at most 8 bytes in the table, so
// neither costs anything per record. TestSpacePerRecord holds the
// estimate above the measured footprint.
func EstimatePoolBytes(records, fieldCount, fieldLen int) int {
	valBlocks := 0
	if fieldLen > 8 {
		valBlocks = heap.BlocksFor(uint64(fieldLen + 4))
	}
	perRecord := fieldCount*valBlocks*heap.BlockSize + // values
		heap.BlocksFor(uint64(8+16*fieldCount))*heap.BlockSize + // record table
		64 + // pooled key
		64 // the map's binding: two words of an array that doubles, and the array it grew out of
	total := records*perRecord*2 + (32 << 20)
	return total
}

// Env is one ready-to-run grid with its lifecycle. The embedded stack
// supplies Pool, Heap, Mgr, DrainDurable, AwaitDurable and Recovery; it
// is the empty stack (nil layers, no-op methods) for the non-J-NVM
// backends.
type Env struct {
	*stack.Stack
	Grid    *store.Grid
	cleanup func()
}

// Snapshot assembles one coherent metrics view across every layer the
// environment owns (grid always; nvm/heap/fa for the J-NVM backends).
// Experiments diff two snapshots to report interval metrics.
func (e *Env) Snapshot() *obs.StackSnapshot {
	s := e.Stack.Snapshot()
	g := e.Grid.ObsSnapshot()
	s.Grid = &g
	s.Finalize()
	return s
}

// Close drains queued async commits, releases the pool and removes what
// the environment created on disk. It reports a pool that failed to
// close.
func (e *Env) Close() error {
	err := e.Stack.Close()
	if e.cleanup != nil {
		e.cleanup()
	}
	return err
}

// publish exposes the environment on the default metrics registry (the
// -metrics-addr listener); replace semantics keep the live env visible as
// experiments cycle through environments.
func (e *Env) publish() *Env {
	obs.Default.Publish("bench_env", func() any { return e.Snapshot() })
	return e
}

// NewEnv builds a grid over the requested backend, with freshly
// formatted (or, under DataDir, recovered) heaps for the J-NVM backends.
func NewEnv(cfg GridConfig) (*Env, error) {
	var b store.Backend
	var cleanup func()
	switch cfg.Backend {
	case JPDT, JPFA, PCJ:
		return newNVMEnv(cfg)
	case Volatile:
		b = store.NewVolatileBackend()
	case TmpFS:
		b = store.NewTmpFSBackend()
	case NullFS:
		b = store.NewNullFSBackend()
	case FS:
		dir := cfg.Dir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "jnvm-fs-*")
			if err != nil {
				return nil, err
			}
			cleanup = func() { os.RemoveAll(dir) }
		}
		fsb, err := store.NewFSBackend(dir, false)
		if err != nil {
			return nil, err
		}
		b = fsb
	default:
		return nil, fmt.Errorf("bench: unknown backend %q", cfg.Backend)
	}
	// These backends own no NVMM pool: the stack under the grid is empty.
	g := store.NewGrid(store.Cached(b, cfg.CacheEntries))
	return (&Env{Stack: &stack.Stack{}, Grid: g, cleanup: cleanup}).publish(), nil
}

// newNVMEnv opens the J-NVM stack of cfg over one pool sized for the
// dataset. Each opener closes what it opened when a later step fails:
// stack.Open closes the pool, and a failed proxy-cache switch closes the
// stack.
func newNVMEnv(cfg GridConfig) (*Env, error) {
	if cfg.FenceNs == 0 {
		cfg.FenceNs = DefaultFenceNs
	}
	pool, err := newPool(cfg, EstimatePoolBytes(cfg.Records, cfg.FieldCount, cfg.FieldLen))
	if err != nil {
		return nil, err
	}
	st, err := stack.Open(pool, stack.Config{
		Backend: string(cfg.Backend), Commit: cfg.Commit,
		LogSlots: 64, LogSlotSize: 1 << 15,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Backend == JPDT && cfg.ProxyCache != pdt.CacheNone {
		if err := st.Backend.(*store.JPDTBackend).SetProxyCache(cfg.ProxyCache); err != nil {
			st.Close()
			return nil, err
		}
	}
	// The paper disables record caching for the J-NVM backends (§5.3.1:
	// "caching brings almost no performance benefits").
	return (&Env{Stack: st, Grid: store.NewGrid(st.Backend)}).publish(), nil
}

// newPool builds the environment's pool: anonymous memory by default, a
// file-backed (DAX-style) pool under cfg.DataDir when set.
func newPool(cfg GridConfig, size int) (*nvm.Pool, error) {
	opts := nvm.Options{FenceLatency: cfg.FenceNs}
	if cfg.DataDir == "" {
		return nvm.New(size, opts), nil
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	return nvm.OpenFile(filepath.Join(cfg.DataDir, "pool-0.nvm"), size, opts)
}
