package pdt

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
)

func reopenPDTWith(t testing.TB, pool *nvm.Pool, parallelism int) *core.Heap {
	t.Helper()
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 4, LogSlotSize: 1 << 14},
		Classes:     Classes(),
		LogHandler:  fa.NewManager(),
		Recover:     core.RecoverOptions{Parallelism: parallelism},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestParallelMirrorRebuildEquivalence checks the concurrent OnResurrect
// against the serial scan on a map big enough (binding capacity past
// rebuildParallelMin) to take the parallel path: the rebuilt mirror and
// the free-slot list — including its order — must be identical for every
// mirror kind.
func TestParallelMirrorRebuildEquivalence(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kindName(kind), func(t *testing.T) {
			h, _, pool := openPDT(t, 1<<24, false)
			m := newTestMap(t, h, kind, "m")
			const n = 6000
			for i := 0; i < n; i++ {
				putStr(t, h, m, fmt.Sprintf("k%05d", i), fmt.Sprintf("v%d", i))
			}
			// Punch holes so the free-slot list is non-trivial.
			for i := 0; i < n; i += 7 {
				if !m.Delete(fmt.Sprintf("k%05d", i)) {
					t.Fatalf("delete k%05d failed", i)
				}
			}
			h.PSync()
			snapshot := pool.ReadBytes(0, pool.Size())

			resurrect := func(parallelism int) *Map {
				p := nvm.New(len(snapshot), nvm.Options{})
				p.WriteBytes(0, snapshot)
				h2 := reopenPDTWith(t, p, parallelism)
				po, err := h2.Root().Get("m")
				if err != nil {
					t.Fatal(err)
				}
				return po.(*Map)
			}
			serial := resurrect(1)
			parallel := resurrect(8)
			if bindingCap(serial.arrp.Load()) < rebuildParallelMin {
				t.Fatalf("binding capacity %d below parallel threshold %d: test exercises nothing",
					bindingCap(serial.arrp.Load()), rebuildParallelMin)
			}
			if sl, pl := serial.Len(), parallel.Len(); sl != pl {
				t.Fatalf("Len: serial %d, parallel %d", sl, pl)
			}
			sm := map[string]int{}
			serial.mir.forEach(func(k string, idx int) bool { sm[k] = idx; return true })
			parallel.mir.forEach(func(k string, idx int) bool {
				if want, ok := sm[k]; !ok || want != idx {
					t.Fatalf("mirror binding %q: serial idx %d (present %v), parallel idx %d", k, want, ok, idx)
				}
				delete(sm, k)
				return true
			})
			if len(sm) != 0 {
				t.Fatalf("parallel mirror missing %d bindings", len(sm))
			}
			if len(serial.slots) != len(parallel.slots) {
				t.Fatalf("free slots: serial %d, parallel %d", len(serial.slots), len(parallel.slots))
			}
			for i := range serial.slots {
				if serial.slots[i] != parallel.slots[i] {
					t.Fatalf("free-slot order differs at %d: serial %d, parallel %d",
						i, serial.slots[i], parallel.slots[i])
				}
			}
		})
	}
}
