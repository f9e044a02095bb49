// Package stack is the one place that assembles a J-NVM stack — the
// analogue of the paper's JNVM.open (pool, recovery, class table) plus
// the persistence-backend plug of §5.1. Everything that needs a heap goes
// through Open: the jnvm facade, the benchmark environments, the wire
// server, the TPC-B bank and the crash explorer. Per pool it builds a
// redo-log manager, opens (formatting or recovering) the object heap with
// that manager as its log handler, and constructs the configured grid
// backend; over several pools it adds the shard set's routing backend.
// The grid itself (stripe locks, optional record cache) is the caller's
// to put on top: store.NewGrid(st.Backend, opts).
package stack

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pdt"
	"repro/internal/shard"
	"repro/internal/store"
)

// The J-NVM grid backends of §5.1 that Open can build; bench.BackendKind
// names them (and the FS family, which has no stack) for the experiments.
const (
	JPDT   = "J-PDT"
	JPDTLF = "J-PDT-LF"
	JPFA   = "J-PFA"
	PCJ    = "PCJ"
)

// backends is the kind → backend table: how each kind is built over one
// pool's heap and manager. Every backend keeps its map under the root
// name "kv".
var backends = map[string]func(h *core.Heap, mgr *fa.Manager) (store.Backend, error){
	JPDT: func(h *core.Heap, _ *fa.Manager) (store.Backend, error) {
		return store.NewJPDTBackend(h, "kv")
	},
	JPDTLF: func(h *core.Heap, _ *fa.Manager) (store.Backend, error) {
		return store.NewJPDTLFBackend(h, "kv")
	},
	JPFA: func(h *core.Heap, mgr *fa.Manager) (store.Backend, error) {
		return store.NewJPFABackend(h, mgr, "kv")
	},
	PCJ: func(h *core.Heap, _ *fa.Manager) (store.Backend, error) {
		return store.NewPCJBackend(h, "kv")
	},
}

// Config describes the stack Open builds over each pool.
type Config struct {
	// Backend selects the grid backend. Empty opens a bare heap — no
	// backend — for callers that keep their own persistent structures
	// (the facade, the bank, the J-PDT experiments).
	Backend string
	// Commit selects the managers' commit protocol: "" or "per-tx" (every
	// commit fences alone, §4.2), "group" (concurrent commits share
	// barriers, still synchronous) or "async" (epoch pipeline; Commit
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
	// Parallelism is the total recovery worker budget, split evenly
	// across pools (each gets at least 1; 0 means GOMAXPROCS). 1 over a
	// single pool is the serial §4.1.3 oracle.
	Parallelism int
}

// ParseCommit maps the commit vocabulary of Config.Commit to a mode.
func ParseCommit(s string) (fa.CommitMode, error) {
	switch s {
	case "", "per-tx":
		return fa.CommitPerTx, nil
	case "group":
		return fa.CommitGroup, nil
	case "async":
		return fa.CommitAsync, nil
	}
	return 0, fmt.Errorf("stack: unknown commit mode %q (want per-tx, group or async)", s)
}

// Stack is an open stack.
type Stack struct {
	// Pools lists every pool's layers in pool order; never empty for a
	// stack Open built. AddPool grows it, so it must not run concurrently
	// with readers of the list.
	Pools []shard.Member
	// Set is the routing layer over several pools; nil for a single pool
	// (sharding stays off the single-pool op path).
	Set *shard.Set
	// Backend is what a grid drives: pool 0's backend directly, or the
	// set's routing backend. Nil for a bare stack.
	Backend store.Backend

	cfg  Config
	mode fa.CommitMode
}

// Open builds the stack over pools, formatting the ones that hold no
// heap and recovering the others — concurrently when there are several,
// each with an even share of the worker budget. A single pool keeps the
// classic layout (no set position in its superblock, no epoch table), so
// its image is what a pre-sharding build wrote and reads; several pools
// open as a shard set, which replays an interrupted migration before
// Open returns.
func Open(pools []*nvm.Pool, cfg Config) (*Stack, error) {
	n := len(pools)
	if n == 0 {
		return nil, fmt.Errorf("stack: no pools")
	}
	mode, err := ParseCommit(cfg.Commit)
	if err != nil {
		return nil, err
	}
	if _, ok := backends[cfg.Backend]; !ok && cfg.Backend != "" {
		return nil, fmt.Errorf("stack: unknown backend %q", cfg.Backend)
	}
	if cfg.Backend == "" && n > 1 {
		return nil, fmt.Errorf("stack: %d pools need a backend to route between", n)
	}
	st := &Stack{Pools: make([]shard.Member, n), cfg: cfg, mode: mode}

	workers := max(core.RecoverOptions{Parallelism: cfg.Parallelism}.Workers()/n, 1)
	open := func(i, count int) error {
		m, err := st.openHeap(pools[i], i, count, workers)
		if err == nil {
			err = st.newBackend(&m)
		}
		st.Pools[i] = m
		return err
	}
	if n == 1 {
		// Position 0/0: standalone, not member 0 of 1. Opened on the
		// caller's goroutine, so a caller that recovers from a panic over a
		// hostile image (the crash explorer) still can.
		if err := open(0, 0); err != nil {
			return nil, err
		}
	} else {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range pools {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = open(i, n)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("stack: pool %d: %w", i, err)
			}
		}
	}

	st.Backend = st.Pools[0].Backend
	if n > 1 {
		if st.Set, err = shard.Open(st.Pools); err != nil {
			return nil, err
		}
		// The set routes by its epoch table, which may name fewer pools
		// than were handed in (a pool formatted but never added).
		st.Pools, st.Backend = st.Set.Members(), st.Set.Backend()
	}
	return st, st.setCommit(st.Pools)
}

// openHeap builds one pool's manager and heap as position index of a
// count-pool set (0/0 = standalone).
func (st *Stack) openHeap(pool *nvm.Pool, index, count, workers int) (shard.Member, error) {
	mgr := fa.NewManager()
	classes := append(pdt.Classes(), store.Classes()...)
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{
			LogSlots: st.cfg.LogSlots, LogSlotSize: st.cfg.LogSlotSize,
			PoolIndex: index, PoolCount: count,
		},
		Classes:     append(classes, st.cfg.Classes...),
		LogHandler:  mgr,
		SkipGraphGC: st.cfg.SkipGraphGC,
		Recover:     core.RecoverOptions{Parallelism: workers},
	})
	return shard.Member{Pool: pool, Heap: h, Mgr: mgr}, err
}

// newBackend builds the configured backend over an opened member.
func (st *Stack) newBackend(m *shard.Member) (err error) {
	if st.cfg.Backend != "" {
		m.Backend, err = backends[st.cfg.Backend](m.Heap, m.Mgr)
	}
	return err
}

// setCommit switches the members' managers to the configured protocol.
// It runs after recovery (and after a resumed migration), so the restart
// path is mode-independent.
func (st *Stack) setCommit(members []shard.Member) error {
	if st.mode == fa.CommitPerTx {
		return nil
	}
	for _, m := range members {
		if err := m.Mgr.SetGroupCommit(fa.GroupOptions{Mode: st.mode}); err != nil {
			return err
		}
	}
	return nil
}

// AddPool grows a sharded stack by one pool online: it formats and
// recovers pool as the next set position, makes the formatting durable
// before the epoch table can name it, builds its backend, and hands it to
// the set, which migrates records to it (shard.Set.AddPool).
func (st *Stack) AddPool(pool *nvm.Pool, opts shard.AddOptions) (*shard.Migration, error) {
	if st.Set == nil {
		return nil, fmt.Errorf("stack: a single-pool stack cannot grow")
	}
	n := len(st.Pools)
	m, err := st.openHeap(pool, n, n+1, 1)
	if err != nil {
		return nil, fmt.Errorf("stack: add pool %d: %w", n, err)
	}
	pool.PSync()
	if err := st.newBackend(&m); err != nil {
		return nil, fmt.Errorf("stack: add pool %d backend: %w", n, err)
	}
	if err := st.setCommit([]shard.Member{m}); err != nil {
		return nil, err
	}
	mig, err := st.Set.AddPool(m, opts)
	if err == nil {
		st.Pools = st.Set.Members()
	}
	return mig, err
}

// DrainDurable forces every queued async commit of every pool out to
// NVMM.
func (st *Stack) DrainDurable() {
	for _, m := range st.Pools {
		m.Mgr.DrainDurable()
	}
}

// AwaitDurable blocks until everything committed so far is durable,
// without forcing an early epoch drain the way DrainDurable does: each
// manager waits for its watermark to cover the tickets already issued,
// so concurrent callers' windows combine into shared epochs. No-op in
// the synchronous commit modes. This is the wire server's per-window
// durability wait (DESIGN.md §18).
func (st *Stack) AwaitDurable() {
	for _, m := range st.Pools {
		m.Mgr.AwaitDurable(m.Mgr.IssuedTickets())
	}
}

// Close drains queued async commits — no acknowledged ticket is
// abandoned short of durability — retires every commit still parked
// behind its pool's retired watermark, so a clean shutdown leaves no log
// to replay, and releases the pools (durable data stays in the backing
// files, if any).
func (st *Stack) Close() error {
	st.DrainDurable()
	var first error
	for _, m := range st.Pools {
		m.Mgr.Retire()
		if err := m.Pool.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Snapshot assembles one coherent metrics view across the layers the
// stack owns: nvm/heap/fa summed over the pools, and the shard section
// with the per-pool breakdown when there is a set. The grid section is
// its owner's to add (bench.Env.Snapshot).
func (st *Stack) Snapshot() *obs.StackSnapshot {
	s := &obs.StackSnapshot{}
	var per []obs.PoolSnapshot
	if st.Set != nil {
		sh := st.Set.Snapshot()
		s.Shard, per = &sh, sh.PerPool
	} else {
		for i, m := range st.Pools {
			per = append(per, m.Snapshot(i))
		}
	}
	if len(per) > 0 {
		// The global layer gauges are the element-wise sums of the
		// per-pool breakdown, so tooling reads a sharded stack unchanged.
		total := per[0]
		for _, p := range per[1:] {
			total = total.Add(p)
		}
		s.NVM, s.Heap, s.FA = &total.NVM, &total.Heap, &total.FA
	}
	return s
}

// Recovery reports what recovery did in each pool, in pool order.
func (st *Stack) Recovery() []obs.RecoverySnapshot {
	out := make([]obs.RecoverySnapshot, len(st.Pools))
	for i, m := range st.Pools {
		out[i] = m.Heap.RecoveryObs().Snapshot()
	}
	return out
}
