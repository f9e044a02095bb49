package tpcb

import (
	"sync"
	"testing"
	"time"

	"repro/internal/nvm"
)

func sumBalances(t *testing.T, b Bank) int64 {
	t.Helper()
	var sum int64
	for i := 0; i < b.Accounts(); i++ {
		v, err := b.Balance(i)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	return sum
}

func TestJNVMBankTransfers(t *testing.T) {
	pool := nvm.New(1<<24, nvm.Options{})
	b, err := OpenJNVMBank(pool, 100, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Transfer(3, 7, 50); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Balance(3); v != -50 {
		t.Fatalf("balance(3) = %d", v)
	}
	if v, _ := b.Balance(7); v != 50 {
		t.Fatalf("balance(7) = %d", v)
	}
	if err := b.Transfer(0, 200, 1); err == nil {
		t.Fatal("out-of-range account accepted")
	}
	if sumBalances(t, b) != 0 {
		t.Fatal("money created or destroyed")
	}
}

func TestJNVMBankSurvivesRestart(t *testing.T) {
	pool := nvm.New(1<<24, nvm.Options{})
	b, err := OpenJNVMBank(pool, 50, false, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := b.Transfer(i, i+1, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]int64, 50)
	for i := range want {
		want[i], _ = b.Balance(i)
	}

	// Crash: drop all volatile state, reopen the pool.
	b2, err := OpenJNVMBank(pool, 50, false, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got, _ := b2.Balance(i); got != want[i] {
			t.Fatalf("balance(%d) = %d, want %d", i, got, want[i])
		}
	}
	if sumBalances(t, b2) != 0 {
		t.Fatal("conservation violated after restart")
	}
	if !b2.Heap().RecoveryStats.GraphTraversed {
		t.Fatal("full recovery should traverse the graph")
	}
}

func TestJNVMBankNoGCRestart(t *testing.T) {
	pool := nvm.New(1<<24, nvm.Options{})
	b, err := OpenJNVMBank(pool, 50, true, "")
	if err != nil {
		t.Fatal(err)
	}
	b.Transfer(1, 2, 10)
	b2, err := OpenJNVMBank(pool, 50, true, "")
	if err != nil {
		t.Fatal(err)
	}
	if b2.Heap().RecoveryStats.GraphTraversed {
		t.Fatal("nogc mode traversed the graph")
	}
	if v, _ := b2.Balance(2); v != 10 {
		t.Fatalf("balance(2) = %d", v)
	}
}

func TestJNVMBankCrashAtomicity(t *testing.T) {
	// Tracked pool + strict crash right after Transfer returns: the
	// committed failure-atomic block survives; conservation holds.
	pool := nvm.New(1<<24, nvm.Options{Tracked: true})
	b, err := OpenJNVMBank(pool, 20, false, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := b.Transfer(i, 19-i, 5); err != nil {
			t.Fatal(err)
		}
	}
	img := pool.CrashImage(nvm.CrashStrict, nil)
	_ = img // CrashStrict ignores rng only for strict; pass through
	b2, err := OpenJNVMBank(img, 20, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if sumBalances(t, b2) != 0 {
		t.Fatal("conservation violated across strict crash")
	}
	// Committed transfers are durable.
	if v, _ := b2.Balance(0); v != -5 {
		t.Fatalf("balance(0) = %d", v)
	}
}

func TestJNVMBankConcurrentTransfers(t *testing.T) {
	pool := nvm.New(1<<25, nvm.Options{})
	b, err := OpenJNVMBank(pool, 64, false, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Disjoint account pairs per worker: the paper relies on
				// Infinispan's locks; here workers avoid write conflicts.
				base := w * 8
				if err := b.Transfer(base+(i%4), base+4+(i%4), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if sumBalances(t, b) != 0 {
		t.Fatal("conservation violated under concurrency")
	}
}

func TestVolatileBank(t *testing.T) {
	b := NewVolatileBank(10)
	b.Transfer(1, 2, 30)
	if v, _ := b.Balance(2); v != 30 {
		t.Fatalf("balance = %d", v)
	}
	if sumBalances(t, b) != 0 {
		t.Fatal("conservation")
	}
}

func TestFSBankPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFSBank(dir, 20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Transfer(2, 3, 11); err != nil {
		t.Fatal(err)
	}
	b2, err := OpenFSBank(dir, 20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.WarmCache(2); err != nil {
		t.Fatal(err)
	}
	if v, _ := b2.Balance(3); v != 11 {
		t.Fatalf("balance(3) = %d", v)
	}
	if v, _ := b2.Balance(2); v != -11 {
		t.Fatalf("balance(2) = %d", v)
	}
}

func TestHarnessTimeline(t *testing.T) {
	pool := nvm.New(1<<25, nvm.Options{})
	sys := System{
		Name:  "J-PFA",
		Start: func() (Bank, error) { return OpenJNVMBank(pool, 500, false, "") },
		Restart: func() (Bank, error) {
			return OpenJNVMBank(pool, 500, false, "")
		},
	}
	tl, err := Run(sys, RunOptions{
		Accounts:   500,
		Clients:    2,
		RunFor:     400 * time.Millisecond,
		CrashAfter: 200 * time.Millisecond,
		Bucket:     25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Points) == 0 {
		t.Fatal("empty timeline")
	}
	if tl.RestartDelay <= 0 {
		t.Fatal("no restart delay measured")
	}
	if tl.NominalBefore() <= 0 {
		t.Fatalf("no pre-crash throughput: %v", tl.NominalBefore())
	}
	if tl.NominalAfter() <= 0 {
		t.Fatalf("no post-recovery throughput")
	}
}
