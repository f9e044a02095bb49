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

// BenchmarkCommitParallel prices the two commit protocols against each
// other under concurrent committers: per-Tx and CommitAsync with
// AwaitDurable(ticket) straight after each commit, the synchronous use of
// the epoch pipeline. Every committer moves money between its own two
// accounts (two dirty blocks per transfer, disjoint write sets), on a
// pool with the repo's default 120 ns fence. ns/op is wall time per
// transfer across all committers; pfence/op is the column to compare
// (EXPERIMENTS.md, "Commit protocols under concurrent committers").
func BenchmarkCommitParallel(b *testing.B) {
	protocols := []struct {
		name  string
		async bool
	}{
		{"per-tx", false},
		{"async-await", true},
	}
	for _, proto := range protocols {
		for _, committers := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/committers=%d", proto.name, committers), func(b *testing.B) {
				benchCommitProtocol(b, proto.async, committers)
			})
		}
	}
}

func benchCommitProtocol(b *testing.B, async bool, committers int) {
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
	if async {
		if err := mgr.SetGroupCommit(GroupOptions{}); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkDeltaEpoch prices delta materialization: each iteration folds
// into 16 words on 16 distinct lines and drains them as one epoch.
// pwb/fold is the persistence cost per materialized fold — its home line,
// its share of the log's lines, the mark and W — and blocks/fold the
// blocks the epoch took from the allocators, which a word entry does not
// need.
func BenchmarkDeltaEpoch(b *testing.B) {
	const folds = 16
	h, mgr, pool, cls := openFA(b, false)
	if err := mgr.SetGroupCommit(GroupOptions{ManualDrain: true}); err != nil {
		b.Fatal(err)
	}
	words := deltaWords(b, h, cls, folds)
	before, heapBefore := pool.Obs().Snapshot(), h.Mem().ObsSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range words {
			if _, err := mgr.AddDelta(w.orig, w.off, 1); err != nil {
				b.Fatal(err)
			}
		}
		mgr.DrainDurable()
	}
	b.StopTimer()
	n := float64(b.N * folds)
	b.ReportMetric(float64(pool.Obs().Snapshot().Sub(before).PWBs)/n, "pwb/fold")
	b.ReportMetric(float64(blocksTaken(h.Mem().ObsSnapshot())-blocksTaken(heapBefore))/n, "blocks/fold")
}
