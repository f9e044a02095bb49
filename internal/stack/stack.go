// Package stack is the one place that assembles a served J-NVM stack —
// the analogue of the paper's JNVM.open (pool, recovery, class table) plus
// the persistence-backend plug of §5.1. Everything that needs a heap goes
// through Open: the jnvm facade, the benchmark environments, the wire
// server, the TPC-B bank and the crash explorer. Over one pool it builds
// a redo-log manager, opens (formatting or recovering) the object heap
// with that manager as its log handler, constructs the configured
// backend and puts the one grid over it (stripe locks, plus the view path
// when the backend offers one). OpenGrid is the served stack of a
// dataset: Open over a pool sized for it, or an FS-family backend, which
// owns no pool, behind its record cache. The package publishes nothing on
// a metrics registry; its callers choose what to serve.
package stack

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
	"repro/internal/store"
)

// The backends of §5.1. Open builds the three J-NVM ones over a pool;
// OpenGrid also builds the FS family, which owns no pool.
const (
	JPFA     = "J-PFA"
	JPDT     = "J-PDT"
	PCJ      = "PCJ"
	Volatile = "Volatile"
	TmpFS    = "TmpFS"
	NullFS   = "NullFS"
	FS       = "FS"
)

// Kinds lists every backend OpenGrid builds, the J-NVM ones first.
var Kinds = []string{JPFA, JPDT, PCJ, Volatile, TmpFS, NullFS, FS}

// backends is the J-NVM kind → backend table: how each kind is built over
// the pool's heap and manager. Every backend keeps its map under the root
// name "kv".
var backends = map[string]func(h *core.Heap, mgr *fa.Manager) (store.Backend, error){
	JPDT: func(h *core.Heap, _ *fa.Manager) (store.Backend, error) {
		return store.NewJPDTBackend(h, "kv")
	},
	JPFA: func(h *core.Heap, mgr *fa.Manager) (store.Backend, error) {
		return store.NewJPFABackend(h, mgr, "kv")
	},
	PCJ: func(h *core.Heap, _ *fa.Manager) (store.Backend, error) {
		return store.NewPCJBackend(h, "kv")
	},
}

// Config describes the stack Open builds over the pool.
type Config struct {
	// Backend selects the J-NVM backend the grid serves. Empty opens a
	// bare heap — no backend, no grid — for callers that keep their own
	// persistent structures (the facade, the bank, the J-PDT experiments).
	Backend string
	// Commit selects the manager's commit protocol: "" or "per-tx" (every
	// commit fences alone, §4.2) or "async" (epoch pipeline; Commit
	// returns a ticket, durability trails at the watermark).
	Commit string
	// Classes are the application's persistent classes. The J-PDT and
	// store record classes are always registered first.
	Classes []*core.Class
	// LogSlots / LogSlotSize size the redo-log area of a pool that needs
	// formatting (0 = the heap defaults).
	LogSlots    int
	LogSlotSize int
	// SkipGraphGC selects header-scan recovery (J-PFA-nogc, Figure 11).
	SkipGraphGC bool
}

// ParseCommit maps the commit vocabulary of Config.Commit to a mode.
func ParseCommit(s string) (fa.CommitMode, error) {
	switch s {
	case "", "per-tx":
		return fa.CommitPerTx, nil
	case "async":
		return fa.CommitAsync, nil
	}
	return 0, fmt.Errorf("stack: unknown commit mode %q (want per-tx or async)", s)
}

// Stack is an open stack: the pool, its recovered object heap, its
// redo-log manager and the grid over the backend built on them. The zero
// Stack is the empty stack and an FS-family stack is a grid with no pool:
// the methods skip the layers a stack lacks.
type Stack struct {
	Pool *nvm.Pool
	Heap *core.Heap
	Mgr  *fa.Manager
	// Grid serves the backend (Grid.Backend()); nil for a bare stack.
	Grid *store.Grid
	// cleanup removes what OpenGrid created on disk (an FS temp dir).
	cleanup func()
}

// Open builds the stack over pool, formatting it if it holds no heap and
// recovering it otherwise. The stack owns the pool: Close closes it, and
// so does an Open that fails.
func Open(pool *nvm.Pool, cfg Config) (st *Stack, err error) {
	defer func() {
		if err != nil {
			pool.Close()
		}
	}()
	mode, err := ParseCommit(cfg.Commit)
	if err != nil {
		return nil, err
	}
	build, ok := backends[cfg.Backend]
	if !ok && cfg.Backend != "" {
		return nil, fmt.Errorf("stack: %q is not a J-NVM backend", cfg.Backend)
	}
	mgr := fa.NewManager()
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: cfg.LogSlots, LogSlotSize: cfg.LogSlotSize},
		Classes:     append(append(pdt.Classes(), store.Classes()...), cfg.Classes...),
		LogHandler:  mgr,
		SkipGraphGC: cfg.SkipGraphGC,
	})
	if err != nil {
		return nil, err
	}
	st = &Stack{Pool: pool, Heap: h, Mgr: mgr}
	if build != nil {
		b, err := build(h, mgr)
		if err != nil {
			return nil, err
		}
		// The backend's one grid: its seqlock generations guard view
		// reads only if every writer goes through it. NewGrid turns on
		// the view path (the heap's EBR).
		st.Grid = store.NewGrid(b)
	}
	// After recovery, so the restart path is mode-independent.
	if mode != fa.CommitPerTx {
		if err := mgr.SetGroupCommit(fa.GroupOptions{}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// GridConfig sizes the served stack OpenGrid builds for a dataset.
type GridConfig struct {
	Backend    string
	Records    int
	FieldCount int
	FieldLen   int
	// CacheEntries bounds the volatile record cache (store.Cached) in
	// front of an FS-family backend. J-NVM backends ignore it: they
	// resolve records by reference and keep no volatile copy (§5.3.1).
	CacheEntries int
	// FenceNs is the simulated NVMM fence latency (default 120 ns).
	FenceNs int
	// Dir hosts FS backend files (a temp dir when empty).
	Dir string
	// Commit selects the commit protocol of the J-NVM backends
	// (Config.Commit). Non-J-NVM backends ignore it.
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
// neither costs anything per record. bench's TestSpacePerRecord holds the
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
	return records*perRecord*2 + (32 << 20)
}

// OpenGrid builds the served stack of cfg. A J-NVM kind is Open over one
// pool sized for the dataset, freshly formatted or, under DataDir,
// recovered. The paper disables record caching for the J-NVM backends
// (§5.3.1: "caching brings almost no performance benefits"); the FS
// family keeps its record cache and owns no pool.
func OpenGrid(cfg GridConfig) (*Stack, error) {
	if _, ok := backends[cfg.Backend]; ok {
		if cfg.FenceNs == 0 {
			cfg.FenceNs = DefaultFenceNs
		}
		pool, err := newPool(cfg, EstimatePoolBytes(cfg.Records, cfg.FieldCount, cfg.FieldLen))
		if err != nil {
			return nil, err
		}
		return Open(pool, Config{Backend: cfg.Backend, Commit: cfg.Commit, LogSlots: 64, LogSlotSize: 1 << 15})
	}
	st := &Stack{}
	var b store.Backend
	switch cfg.Backend {
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
			if dir, err = os.MkdirTemp("", "jnvm-fs-*"); err != nil {
				return nil, err
			}
			st.cleanup = func() { os.RemoveAll(dir) }
		}
		fsb, err := store.NewFSBackend(dir)
		if err != nil {
			st.Close()
			return nil, err
		}
		b = fsb
	default:
		return nil, fmt.Errorf("stack: unknown backend %q", cfg.Backend)
	}
	st.Grid = store.NewGrid(store.Cached(b, cfg.CacheEntries))
	return st, nil
}

// newPool builds OpenGrid's pool: anonymous memory by default, a
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

// DrainDurable forces every queued async commit out to NVMM.
func (st *Stack) DrainDurable() {
	if st.Mgr != nil {
		st.Mgr.DrainDurable()
	}
}

// AwaitDurable blocks until everything committed so far is durable,
// without forcing an early epoch drain the way DrainDurable does: the
// manager waits for its watermark to cover the tickets already issued, so
// concurrent callers' windows combine into shared epochs. No-op in per-Tx
// mode. This is the wire server's per-window durability wait (DESIGN.md
// §16).
func (st *Stack) AwaitDurable() {
	if st.Mgr != nil {
		st.Mgr.AwaitDurable(st.Mgr.IssuedTickets())
	}
}

// Close drains queued async commits — no acknowledged ticket is
// abandoned short of durability — retires every commit still parked
// behind the retired watermark, so a clean shutdown leaves no log to
// replay, releases the pool (durable data stays in the backing file, if
// any) and removes what OpenGrid created on disk. It reports a pool that
// failed to close.
func (st *Stack) Close() error {
	if st.cleanup != nil {
		defer st.cleanup()
	}
	if st.Pool == nil {
		return nil
	}
	st.DrainDurable()
	st.Mgr.Retire()
	return st.Pool.Close()
}

// Snapshot assembles one coherent metrics view across every layer the
// stack owns — nvm, heap and fa over a pool, the grid when there is one —
// with the per-op columns derived (Finalize). Experiments and the wire
// server's Stats diff two snapshots to report interval metrics.
func (st *Stack) Snapshot() *obs.StackSnapshot {
	s := &obs.StackSnapshot{}
	if st.Pool != nil {
		nv, hp, f := st.Pool.Obs().Snapshot(), st.Heap.Mem().ObsSnapshot(), st.Mgr.ObsSnapshot()
		s.NVM, s.Heap, s.FA = &nv, &hp, &f
	}
	if st.Grid != nil {
		g := st.Grid.ObsSnapshot()
		s.Grid = &g
	}
	s.Finalize()
	return s
}

// Recovery reports what recovery did, as a one-element list (none for
// the empty stack): the JSON stats documents key it as recovery.0.
func (st *Stack) Recovery() []obs.RecoverySnapshot {
	if st.Heap == nil {
		return nil
	}
	return []obs.RecoverySnapshot{st.Heap.RecoveryObs().Snapshot()}
}
