// Package stack is the one place that assembles a J-NVM stack — the
// analogue of the paper's JNVM.open (pool, recovery, class table) plus
// the persistence-backend plug of §5.1. Everything that needs a heap goes
// through Open: the jnvm facade, the benchmark environments, the wire
// server, the TPC-B bank and the crash explorer. Over one pool it builds
// a redo-log manager, opens (formatting or recovering) the object heap
// with that manager as its log handler, and constructs the configured
// grid backend. The grid itself (stripe locks, plus the view path when the
// backend offers one) is the caller's to put on top: store.NewGrid(st.Backend).
package stack

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pdt"
	"repro/internal/store"
)

// The J-NVM grid backends of §5.1 that Open can build; bench.BackendKind
// names them (and the FS family, which has no stack) for the experiments.
const (
	JPDT = "J-PDT"
	JPFA = "J-PFA"
	PCJ  = "PCJ"
)

// backends is the kind → backend table: how each kind is built over the
// pool's heap and manager. Every backend keeps its map under the root
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
	// Backend selects the grid backend. Empty opens a bare heap — no
	// backend — for callers that keep their own persistent structures
	// (the facade, the bank, the J-PDT experiments).
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
// redo-log manager and the grid backend built over them. The zero Stack
// is the empty stack of a backend that owns no pool (the FS family);
// every method is a no-op on it.
type Stack struct {
	Pool *nvm.Pool
	Heap *core.Heap
	Mgr  *fa.Manager
	// Backend is what a grid drives; nil for a bare stack.
	Backend store.Backend
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
		return nil, fmt.Errorf("stack: unknown backend %q", cfg.Backend)
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
		if st.Backend, err = build(h, mgr); err != nil {
			return nil, err
		}
	}
	// After recovery, so the restart path is mode-independent.
	if mode != fa.CommitPerTx {
		if err := mgr.SetGroupCommit(fa.GroupOptions{}); err != nil {
			return nil, err
		}
	}
	return st, nil
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
// replay, and releases the pool (durable data stays in the backing file,
// if any).
func (st *Stack) Close() error {
	if st.Pool == nil {
		return nil
	}
	st.DrainDurable()
	st.Mgr.Retire()
	return st.Pool.Close()
}

// Snapshot assembles one coherent metrics view across the layers the
// stack owns: nvm, heap and fa. The grid section is its owner's to add
// (bench.Env.Snapshot).
func (st *Stack) Snapshot() *obs.StackSnapshot {
	s := &obs.StackSnapshot{}
	if st.Pool != nil {
		nv, hp, f := st.Pool.Obs().Snapshot(), st.Heap.Mem().ObsSnapshot(), st.Mgr.ObsSnapshot()
		s.NVM, s.Heap, s.FA = &nv, &hp, &f
	}
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
