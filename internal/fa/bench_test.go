package fa

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
)

// BenchmarkCommitSingleField is the canonical commit: one dirty cache
// line, steady-state warm transaction. The interesting companion numbers
// are the obs counters (5 pwb per commit); the wall-clock here tracks the
// volatile overhead of the pipeline.
func BenchmarkCommitSingleField(b *testing.B) {
	h, mgr, _, cls := openFA(b, false)
	acc := newAccount(b, h, cls, 0, 0, "acc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgr.Run(func(tx *Tx) error {
			return tx.WriteUint64(acc.Core(), accA, uint64(i))
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitParallel prices the three commit protocols against each
// other under concurrent committers: per-Tx, CommitGroup (the fence
// combiner) and CommitAsync with AwaitDurable(ticket) straight after each
// commit — the pairing ROADMAP's "one commit pipeline" item supposes
// equivalent to CommitGroup. Every committer moves money between its own
// two accounts (two dirty blocks per transfer, disjoint write sets), on a
// pool with the repo's default 120 ns fence. ns/op is wall time per
// transfer across all committers; pfence/op is the column to compare
// (EXPERIMENTS.md, "Commit protocols under concurrent committers").
func BenchmarkCommitParallel(b *testing.B) {
	protocols := []struct {
		name string
		opts GroupOptions
	}{
		{"per-tx", GroupOptions{Mode: CommitPerTx}},
		{"group", GroupOptions{Mode: CommitGroup}},
		{"async-await", GroupOptions{Mode: CommitAsync}},
	}
	for _, proto := range protocols {
		for _, committers := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/committers=%d", proto.name, committers), func(b *testing.B) {
				benchCommitProtocol(b, proto.opts, committers)
			})
		}
	}
}

func benchCommitProtocol(b *testing.B, opts GroupOptions, committers int) {
	pool := nvm.New(1<<24, nvm.Options{FenceLatency: 120})
	cls := accountClass()
	mgr := NewManager()
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 256, LogSlotSize: 1 << 14},
		Classes:     []*core.Class{cls},
		LogHandler:  mgr,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := mgr.SetGroupCommit(opts); err != nil {
		b.Fatal(err)
	}
	accounts := make([]*account, 2*committers)
	for i := range accounts {
		accounts[i] = newAccount(b, h, cls, 1<<40, 0, fmt.Sprintf("acc%d", i))
	}
	before := pool.Obs().Snapshot()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(from, to *account) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				tx, err := mgr.Begin()
				if err != nil {
					b.Error(err)
					return
				}
				if err := transfer(tx, from, to, 1); err != nil {
					tx.Abort()
					b.Error(err)
					return
				}
				ticket, err := tx.CommitTicket()
				if err != nil {
					b.Error(err)
					return
				}
				mgr.AwaitDurable(ticket) // zero ticket, immediate return, outside async mode
			}
		}(accounts[2*c], accounts[2*c+1])
	}
	wg.Wait()
	b.StopTimer()
	fences := pool.Obs().Snapshot().Sub(before).Fences()
	b.ReportMetric(float64(fences)/float64(b.N), "pfence/op")
}
