package pdt

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestMapConcurrentReadersWriters is the mirror-lock regression test
// (DESIGN.md §14): concurrent Gets share the read lock and must never
// race writers. Readers hammer a stable key set (whose values are never
// replaced, so dereferencing is safe without EBR pins) and probe churning
// keys by ref only, while one writer delete/re-inserts churn keys and
// another forces repeated array growth — the array swap under the write
// lock — under live readers. Run under -race this covers every mirror
// lock transition.
func TestMapConcurrentReadersWriters(t *testing.T) {
	kinds := []struct {
		name string
		kind MirrorKind
	}{{"hash", MirrorHash}, {"tree", MirrorTree}, {"skip", MirrorSkip}}
	for _, k := range kinds {
		kind := k.kind
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			h, _, _ := openPDT(t, 1<<24, false)
			m, err := NewMap(h, kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Root().Put("conc.map", m); err != nil {
				t.Fatal(err)
			}
			const stable = 32
			want := make(map[string]string, stable)
			for i := 0; i < stable; i++ {
				key := fmt.Sprintf("stable%02d", i)
				val := fmt.Sprintf("sv-%02d", i)
				ps, err := NewString(h, val)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Put(key, ps); err != nil {
					t.Fatal(err)
				}
				want[key] = val
			}

			var stop atomic.Bool
			var wg sync.WaitGroup

			// Churner: delete/re-insert a small churn set so readers see
			// bindings appear and vanish (GetRef 0 or valid, never torn).
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer stop.Store(true)
				for round := 0; round < 150; round++ {
					for i := 0; i < 4; i++ {
						key := fmt.Sprintf("churn%d", i)
						ps, err := NewString(h, fmt.Sprintf("cv-%d-%d", round, i))
						if err != nil {
							t.Errorf("churn alloc: %v", err)
							return
						}
						if err := m.Put(key, ps); err != nil {
							t.Errorf("churn put: %v", err)
							return
						}
					}
					for i := 0; i < 4; i++ {
						m.Delete(fmt.Sprintf("churn%d", i))
					}
				}
			}()

			// Grower: inserts a fresh key per iteration, forcing the
			// backing array through several growth cycles (the array swap
			// under the write lock) while readers are live.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					ps, err := NewString(h, "g")
					if err != nil {
						t.Errorf("grow alloc: %v", err)
						return
					}
					if err := m.Put(fmt.Sprintf("grow%05d", i), ps); err != nil {
						t.Errorf("grow put: %v", err)
						return
					}
				}
			}()

			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for it := 0; it < 3000 || !stop.Load(); it++ {
						key := fmt.Sprintf("stable%02d", rng.Intn(stable))
						po, err := m.Get(key)
						if err != nil {
							t.Errorf("get %s: %v", key, err)
							return
						}
						ps, ok := po.(*PString)
						if !ok {
							t.Errorf("get %s: %T", key, po)
							return
						}
						if got := ps.Value(); got != want[key] {
							t.Errorf("get %s: %q, want %q", key, got, want[key])
							return
						}
						// Churn keys are only probed by ref: binding either
						// absent or present, never an error.
						m.GetRef(fmt.Sprintf("churn%d", rng.Intn(4)))
						if it%64 == 0 {
							if n := m.Len(); n < stable {
								t.Errorf("len %d < %d stable keys", n, stable)
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()

			for key, val := range want {
				po, err := m.Get(key)
				if err != nil {
					t.Fatalf("final get %s: %v", key, err)
				}
				if got := po.(*PString).Value(); got != val {
					t.Fatalf("final get %s: %q, want %q", key, got, val)
				}
			}
		})
	}
}

// TestSetConcurrentAddContains drives the Set wrapper through the same
// mirror machinery: concurrent Contains against Add/Delete churn and
// growth must stay consistent for members that are never removed.
func TestSetConcurrentAddContains(t *testing.T) {
	h, _, _ := openPDT(t, 1<<23, false)
	s, err := NewSet(h, MirrorTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Root().Put("conc.set", s.Map()); err != nil {
		t.Fatal(err)
	}
	const stable = 24
	for i := 0; i < stable; i++ {
		if err := s.Add(fmt.Sprintf("member%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for round := 0; round < 200; round++ {
			key := fmt.Sprintf("flick%d", round%3)
			if err := s.Add(key); err != nil {
				t.Errorf("add: %v", err)
				return
			}
			s.Delete(key)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for it := 0; it < 2000 || !stop.Load(); it++ {
				key := fmt.Sprintf("member%02d", rng.Intn(stable))
				if !s.Contains(key) {
					t.Errorf("lost member %s", key)
					return
				}
				s.Contains(fmt.Sprintf("flick%d", rng.Intn(3)))
			}
		}(r)
	}
	wg.Wait()
	if n := s.Len(); n < stable {
		t.Fatalf("set len %d < %d", n, stable)
	}
}

// TestMirrorLockWaitCounted pins the counter behind the benchmark's
// mirror-lock-wait key: a GetRef that finds the mirror write-locked
// blocks, counts exactly one wait, and after the release returns the
// bound value.
func TestMirrorLockWaitCounted(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kindName(kind), func(t *testing.T) {
			h, _, _ := openPDT(t, 1<<22, false)
			m := newTestMap(t, h, kind, "m")
			var rs obs.ReadStats
			m.SetReadObs(&rs)
			putStr(t, h, m, "k", "v")
			want := m.GetRef("k")
			if want == 0 || rs.ShardLockWaits.Load() != 0 {
				t.Fatalf("uncontended GetRef: ref %#x, waits %d", want, rs.ShardLockWaits.Load())
			}

			m.mu.Lock()
			got := make(chan core.Ref)
			go func() { got <- m.GetRef("k") }()
			deadline := time.Now().Add(10 * time.Second)
			for rs.ShardLockWaits.Load() == 0 {
				if time.Now().After(deadline) {
					m.mu.Unlock()
					t.Fatal("GetRef under the write lock counted no wait")
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case ref := <-got:
				m.mu.Unlock()
				t.Fatalf("GetRef returned %#x while the write lock was held", ref)
			case <-time.After(20 * time.Millisecond):
			}
			m.mu.Unlock()
			if ref := <-got; ref != want {
				t.Fatalf("GetRef after the release = %#x, want %#x", ref, want)
			}
			if n := rs.ShardLockWaits.Load(); n != 1 {
				t.Fatalf("ShardLockWaits = %d, want 1", n)
			}
		})
	}
}
