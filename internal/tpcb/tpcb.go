// Package tpcb implements the TPC-B-like bank of §5.3.3: a server holding
// fixed-size accounts (140 B each in the paper) with a single transfer
// operation executed in a failure-atomic block, plus the crash/restart
// harness that regenerates the recovery timeline of Figure 11.
//
// The paper runs the bank in a container behind REST and kills it with
// SIGKILL; here the "container" is the volatile half of the process state
// (proxies, caches, the core.Heap itself), which a crash discards before
// the pool is reopened and recovered. This preserves the measured
// phenomenon — recovery-GC time over the account graph — without the
// Docker/HTTP noise.
package tpcb

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/nvm"
	"repro/internal/pdt"
	"repro/internal/stack"
	"repro/internal/store"
)

// AccountSize matches the paper's 140 B accounts: an 8-byte balance plus
// opaque padding (owner name, branch, teller in TPC-B).
const AccountSize = 140

// Bank is the single-operation TPC-B server interface.
type Bank interface {
	// Transfer moves amount between two accounts, atomically for the
	// persistent implementations.
	Transfer(from, to int, amount int64) error
	// Balance reads one account.
	Balance(i int) (int64, error)
	// Accounts returns the account count.
	Accounts() int
}

// ---- J-NVM bank (J-PFA / J-PFA-nogc) ----

// classAccount is the persistent account class.
const classAccount = "tpcb.account"

// Classes returns the bank's persistent class descriptors.
func Classes() []*core.Class {
	return []*core.Class{{
		Name:    classAccount,
		Factory: func(o *core.Object) core.PObject { return o },
	}}
}

// JNVMBank stores accounts as persistent objects referenced from a J-PDT
// array; transfers run inside failure-atomic blocks.
type JNVMBank struct {
	h   *core.Heap
	mgr *fa.Manager
	arr *pdt.PRefArray
	n   int
	// stripes play the role of Infinispan's per-key locks (§5.3.2):
	// concurrent transfers serialize only when their accounts collide.
	stripes [64]sync.Mutex
}

// StackConfig is the stack the bank runs over: bare heaps (the bank keeps
// its own persistent array), the account class, 64 log slots of 16 KiB.
// skipGraphGC selects the J-PFA-nogc recovery mode of Figure 11. This is
// correct for this application: every account is allocated and published
// in the same failure-atomic block, so no invalid-but-reachable object
// can exist after a crash.
func StackConfig(skipGraphGC bool) stack.Config {
	return stack.Config{Classes: Classes(), LogSlots: 64, LogSlotSize: 1 << 14, SkipGraphGC: skipGraphGC}
}

// OpenJNVMBank creates (first run) or reopens (after a crash) the bank on
// the pool, with the default commit protocol and recovery parallelism.
func OpenJNVMBank(pool *nvm.Pool, accounts int, skipGraphGC bool) (*JNVMBank, error) {
	st, err := stack.Open([]*nvm.Pool{pool}, StackConfig(skipGraphGC))
	if err != nil {
		return nil, err
	}
	return NewJNVMBank(st, accounts)
}

// NewJNVMBank creates or reattaches the bank over a stack opened with
// StackConfig — the entry point for callers that set the commit protocol
// (Figure 11) or pin the recovery parallelism (the crash
// explorer) on the stack themselves.
func NewJNVMBank(st *stack.Stack, accounts int) (*JNVMBank, error) {
	h, mgr := st.Pools[0].Heap, st.Pools[0].Mgr
	b := &JNVMBank{h: h, mgr: mgr, n: accounts}
	if h.Root().Exists("bank.accounts") {
		po, err := h.Root().Get("bank.accounts")
		if err != nil {
			return nil, err
		}
		b.arr = po.(*pdt.PRefArray)
		if b.arr.Cap() < accounts {
			return nil, fmt.Errorf("tpcb: pool holds %d accounts, want %d", b.arr.Cap(), accounts)
		}
		return b, nil
	}
	arr, err := pdt.NewRefArray(h, accounts)
	if err != nil {
		return nil, err
	}
	// Bulk-create the accounts with the low-level batching discipline:
	// everything flushed and validated, then a single fence before the
	// array publication (§3.2.3).
	for i := 0; i < accounts; i++ {
		po, err := h.Alloc(h.MustClass(classAccount), AccountSize)
		if err != nil {
			return nil, err
		}
		o := po.Core()
		o.WriteInt64(0, 0)
		o.PWB()
		o.Validate()
		arr.WriteRef(uint64(i)*8, o.Ref())
	}
	arr.PWB()
	if err := h.Root().Put("bank.accounts", arr); err != nil {
		return nil, err
	}
	b.arr = arr
	return b, nil
}

// Heap exposes the underlying heap (recovery statistics).
func (b *JNVMBank) Heap() *core.Heap { return b.h }

// Accounts implements Bank.
func (b *JNVMBank) Accounts() int { return b.n }

func (b *JNVMBank) account(i int) (*core.Object, error) {
	if i < 0 || i >= b.n {
		return nil, fmt.Errorf("tpcb: account %d out of range", i)
	}
	return b.h.Inspect(b.arr.GetRef(i)), nil
}

// Balance implements Bank.
func (b *JNVMBank) Balance(i int) (int64, error) {
	o, err := b.account(i)
	if err != nil {
		return 0, err
	}
	return o.ReadInt64(0), nil
}

// Transfer implements Bank: both balance updates commit atomically in one
// failure-atomic block. A self-transfer is a no-op (reading both balances
// through the redo view and writing them back would otherwise double-apply
// to the same slot).
func (b *JNVMBank) Transfer(from, to int, amount int64) error {
	if from == to {
		if from < 0 || from >= b.n {
			return fmt.Errorf("tpcb: account %d out of range", from)
		}
		return nil
	}
	fo, err := b.account(from)
	if err != nil {
		return err
	}
	to2, err := b.account(to)
	if err != nil {
		return err
	}
	s1, s2 := from%len(b.stripes), to%len(b.stripes)
	if s1 > s2 {
		s1, s2 = s2, s1
	}
	b.stripes[s1].Lock()
	defer b.stripes[s1].Unlock()
	if s2 != s1 {
		b.stripes[s2].Lock()
		defer b.stripes[s2].Unlock()
	}
	return b.mgr.Run(func(tx *fa.Tx) error {
		fb, err := tx.ReadInt64(fo, 0)
		if err != nil {
			return err
		}
		tb, err := tx.ReadInt64(to2, 0)
		if err != nil {
			return err
		}
		if err := tx.WriteInt64(fo, 0, fb-amount); err != nil {
			return err
		}
		return tx.WriteInt64(to2, 0, tb+amount)
	})
}

// ---- Volatile bank ----

// VolatileBank keeps balances in DRAM only; after a crash it restarts
// blank and recreates accounts on demand with zero balances, as in the
// paper's Volatile configuration.
type VolatileBank struct {
	mu       sync.Mutex
	balances map[int]int64
	n        int
}

// NewVolatileBank creates an empty volatile bank.
func NewVolatileBank(accounts int) *VolatileBank {
	return &VolatileBank{balances: make(map[int]int64), n: accounts}
}

// Accounts implements Bank.
func (b *VolatileBank) Accounts() int { return b.n }

// Balance implements Bank.
func (b *VolatileBank) Balance(i int) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.balances[i], nil
}

// Transfer implements Bank.
func (b *VolatileBank) Transfer(from, to int, amount int64) error {
	b.mu.Lock()
	b.balances[from] -= amount
	b.balances[to] += amount
	b.mu.Unlock()
	return nil
}

// ---- FS bank ----

// FSBank stores each account as a marshalled record file behind the grid
// with a 10% cache, the paper's FS configuration. Restart reloads 10% of
// the accounts eagerly, which is what makes FS the slowest line of
// Figure 11.
type FSBank struct {
	g *store.Grid
	n int
}

// OpenFSBank creates or reopens the bank under dir. cacheRatio is the
// fraction of accounts kept in the volatile cache.
func OpenFSBank(dir string, accounts int, cacheRatio float64) (*FSBank, error) {
	backend, err := store.NewFSBackend(dir, false)
	if err != nil {
		return nil, err
	}
	g := store.NewGrid(backend, store.Options{CacheEntries: int(cacheRatio * float64(accounts))})
	b := &FSBank{g: g, n: accounts}
	if backend.Count() == 0 {
		pad := make([]byte, AccountSize-8)
		for i := 0; i < accounts; i++ {
			rec := &store.Record{Fields: []store.Field{
				{Name: "balance", Value: make([]byte, 8)},
				{Name: "pad", Value: pad},
			}}
			if err := g.Insert(accountKey(i), rec); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// WarmCache eagerly reloads up to n accounts into the volatile cache, the
// post-restart reload the paper measures ("Infinispan reloads 10% of the
// accounts from NVMM").
func (b *FSBank) WarmCache(n int) error {
	for i := 0; i < n && i < b.n; i++ {
		if err := b.g.Read(accountKey(i), func(string, []byte) {}); err != nil {
			return err
		}
	}
	return nil
}

func accountKey(i int) string { return fmt.Sprintf("acct%09d", i) }

// Accounts implements Bank.
func (b *FSBank) Accounts() int { return b.n }

// Balance implements Bank.
func (b *FSBank) Balance(i int) (int64, error) {
	var bal int64
	err := b.g.Read(accountKey(i), func(name string, val []byte) {
		if name == "balance" {
			bal = decodeBalance(val)
		}
	})
	return bal, err
}

func decodeBalance(v []byte) int64 {
	var x uint64
	for i := 0; i < 8 && i < len(v); i++ {
		x |= uint64(v[i]) << (8 * i)
	}
	return int64(x)
}

func encodeBalance(b int64) []byte {
	v := make([]byte, 8)
	for i := 0; i < 8; i++ {
		v[i] = byte(uint64(b) >> (8 * i))
	}
	return v
}

// Transfer implements Bank (two read-modify-writes; the FS backend has no
// cross-record atomicity, matching the Infinispan file store).
func (b *FSBank) Transfer(from, to int, amount int64) error {
	if err := b.g.ReadModifyWrite(accountKey(from), func(rec *store.Record) []store.Field {
		v, _ := rec.Get("balance")
		return []store.Field{{Name: "balance", Value: encodeBalance(decodeBalance(v) - amount)}}
	}); err != nil {
		return err
	}
	return b.g.ReadModifyWrite(accountKey(to), func(rec *store.Record) []store.Field {
		v, _ := rec.Get("balance")
		return []store.Field{{Name: "balance", Value: encodeBalance(decodeBalance(v) + amount)}}
	})
}
