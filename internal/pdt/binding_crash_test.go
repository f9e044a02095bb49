package pdt

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
)

// pullPlug is the fault plane of TestMapCrashAtEveryOrderingPoint: it
// counts ordering points and, at the trigger, captures the pool's crash
// state and unwinds the operation.
type pullPlug struct {
	pool    *nvm.Pool
	trigger int // 1-based; 0 counts only
	count   int
	state   *nvm.CrashState
}

type plugPulled struct{}

func (p *pullPlug) OrderingPoint(nvm.FaultEvent) {
	if p.state != nil {
		return // writes of the unwinding (fa's abort-on-panic)
	}
	p.count++
	if p.count == p.trigger {
		p.state = p.pool.CaptureCrashState()
		panic(plugPulled{})
	}
}

// run executes op under the plane and returns the crash state: at the
// trigger point, or after the op when it has fewer points.
func (p *pullPlug) run(t *testing.T, op func() error) *nvm.CrashState {
	t.Helper()
	p.pool.SetFaultPlane(p)
	defer p.pool.SetFaultPlane(nil)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(plugPulled); !ok {
					panic(r)
				}
			}
		}()
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}()
	if p.state == nil {
		p.state = p.pool.CaptureCrashState()
	}
	return p.state
}

func clonePool(p *nvm.Pool) *nvm.Pool {
	c := nvm.New(int(p.Size()), nvm.Options{})
	c.WriteBytes(0, p.ReadBytes(0, p.Size()))
	return c
}

// liveObjects reopens a copy of pool and returns how many objects its
// recovery found live: reachable ones, or with skipGraph every valid one.
func liveObjects(t *testing.T, pool *nvm.Pool, skipGraph bool) uint64 {
	t.Helper()
	h, err := core.Open(clonePool(pool), core.Config{
		HeapOptions: heap.Options{LogSlots: 4, LogSlotSize: 1 << 14},
		Classes:     Classes(),
		LogHandler:  fa.NewManager(),
		SkipGraphGC: skipGraph,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h.RecoveryStats.LiveObjects
}

// rebuilt recovers a copy of img and rebuilds the map bound under "m"
// with the serial or the parallel scan, whatever the array's size. half
// is the number of half bindings recovery handed the rebuild.
func rebuilt(t *testing.T, img *nvm.Pool, parallel bool) (h *core.Heap, pool *nvm.Pool, m *Map, half int) {
	t.Helper()
	h, _, pool = reopenPDT(t, clonePool(img))
	_, half, _ = ScanBindings(h, h.Root().GetRef("m"))
	m = &Map{Object: h.Inspect(h.Root().GetRef("m"))}
	arr := &PRefArray{Object: h.Inspect(m.ReadRef(mapArrRef))}
	m.arrp.Store(arr)
	m.kind = MirrorKind(m.ReadUint64(mapKind))
	m.mir = newMirror(m.kind)
	cleaned := false
	if parallel {
		cleaned = m.rebuildParallel(h, arr, bindingCap(arr), 4)
	} else {
		cleaned = m.rebuildSerial(h, arr, bindingCap(arr))
	}
	if cleaned {
		h.PFence()
	}
	return h, pool, m, half
}

// TestMapCrashAtEveryOrderingPoint pulls the plug before every store,
// write-back and fence of each map operation — inserts, a value
// replacement, deletes, their failure-atomic forms, a set insert and an
// array growth — and recovers strict, all-pending and torn images of
// each point. Whatever the image: the operation's key is fully bound (to
// the old or the new value) or absent, never half; the untouched keys
// are intact; the array holds no half binding after the rebuild; nothing
// valid is left unreachable (a half binding's surviving object is freed,
// not leaked); and the serial and the parallel rebuild leave the pool bit
// for bit the same, with the same mirror and free-slot order.
func TestMapCrashAtEveryOrderingPoint(t *testing.T) {
	const stablePrefix = "s"
	type world struct {
		h   *core.Heap
		mgr *fa.Manager
		m   *Map
	}
	put := func(w world, key, val string) error {
		v, err := NewBytes(w.h, []byte(val))
		if err != nil {
			return err
		}
		return w.m.Put(key, v)
	}
	putTx := func(w world, key, val string) error {
		return w.mgr.Run(func(tx *fa.Tx) error {
			v, err := NewBytesTx(tx, []byte(val))
			if err != nil {
				return err
			}
			return w.m.PutTx(tx, key, v)
		})
	}
	ops := []struct {
		name   string
		stable int // bindings loaded (and fenced) before the operation
		key    string
		legal  []string // states key may recover to; "" is absent
		op     func(w world) error
	}{
		{"Put", 5, "x", []string{"", "new"}, func(w world) error { return put(w, "x", "new") }},
		{"PutReplace", 5, "s2", []string{"v-s2", "new"}, func(w world) error { return put(w, "s2", "new") }},
		{"Delete", 5, "s2", []string{"v-s2", ""}, func(w world) error { w.m.Delete("s2"); return nil }},
		{"PutTx", 5, "x", []string{"", "new"}, func(w world) error { return putTx(w, "x", "new") }},
		{"PutTxReplace", 5, "s2", []string{"v-s2", "new"}, func(w world) error { return putTx(w, "s2", "new") }},
		{"DeleteTx", 5, "s2", []string{"v-s2", ""}, func(w world) error {
			return w.mgr.Run(func(tx *fa.Tx) error {
				_, err := w.m.DeleteTx(tx, "s2")
				return err
			})
		}},
		{"SetAdd", 5, "x", []string{"", "x"}, func(w world) error { return AsSet(w.m).Add("x") }},
		// The initial array is full: the insert grows it first.
		{"Growth", bindingsPerBlock * mapInitialBlocks, "x", []string{"", "new"}, func(w world) error { return put(w, "x", "new") }},
		{"GrowthTx", bindingsPerBlock * mapInitialBlocks, "x", []string{"", "new"}, func(w world) error { return putTx(w, "x", "new") }},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			setup := func() (world, *nvm.Pool) {
				h, mgr, pool := openPDT(t, 1<<18, true)
				w := world{h, mgr, newTestMap(t, h, MirrorTree, "m")}
				for i := 0; i < tc.stable; i++ {
					k := fmt.Sprintf("%s%d", stablePrefix, i)
					putStr(t, h, w.m, k, "v-"+k)
				}
				h.PSync()
				return w, pool
			}
			w, pool := setup()
			counter := &pullPlug{pool: pool}
			counter.run(t, func() error { return tc.op(w) })
			total := counter.count
			if tc.name == "Growth" && bindingCap(w.m.arrp.Load()) == bindingsPerBlock*mapInitialBlocks {
				t.Fatal("the array did not grow: the case exercises nothing")
			}
			halves := 0
			for point := 1; point <= total+1; point++ {
				w, pool := setup()
				state := (&pullPlug{pool: pool, trigger: point}).run(t, func() error { return tc.op(w) })
				var all []nvm.CrashLine
				for _, pl := range state.Pending() {
					all = append(all, nvm.CrashLine{Line: pl.Line, Source: nvm.CrashFromCurrent})
				}
				specs := [][]nvm.CrashLine{nil, all}
				for s := 0; s < 3; s++ {
					rng := rand.New(rand.NewSource(int64(point)<<8 | int64(s)))
					specs = append(specs, state.SampleSpec(rng, s%2 == 1))
				}
				for si, spec := range specs {
					img := state.Image(spec)
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("point %d/%d image %d: %s", point, total, si, fmt.Sprintf(format, args...))
					}
					hs, ps, ms, half := rebuilt(t, img, false)
					_, pp, mp, _ := rebuilt(t, img, true)
					halves += half
					if !bytes.Equal(ps.ReadBytes(0, ps.Size()), pp.ReadBytes(0, pp.Size())) {
						fail("serial and parallel rebuild leave different pools")
					}
					if !reflect.DeepEqual(ms.slots, mp.slots) {
						fail("free slots: serial %v, parallel %v", ms.slots, mp.slots)
					}
					if sk, pk := ms.Keys(), mp.Keys(); !reflect.DeepEqual(sk, pk) {
						fail("keys: serial %v, parallel %v", sk, pk)
					}

					want := map[string]string{}
					for i := 0; i < tc.stable; i++ {
						k := fmt.Sprintf("%s%d", stablePrefix, i)
						want[k] = "v-" + k
					}
					delete(want, tc.key)
					for k, v := range want {
						if got, ok := getStr(t, ms, k); !ok || got != v {
							fail("untouched key %s = %q (bound %v), want %q", k, got, ok, v)
						}
					}
					got := ""
					if po, err := ms.Get(tc.key); err != nil {
						fail("get %s: %v", tc.key, err)
					} else if pb, ok := po.(*PBytes); ok {
						got = string(pb.Value())
					} else if ps, ok := po.(*PString); ok {
						got = ps.Value() // a set member is bound to its key string
					}
					legal := false
					for _, s := range tc.legal {
						legal = legal || s == got
					}
					if !legal {
						fail("key %s recovered to %q, legal states %q", tc.key, got, tc.legal)
					}
					bound := len(want)
					if got != "" {
						bound++
					}
					if ms.Len() != bound {
						fail("%d keys bound, want %d: %v", ms.Len(), bound, ms.Keys())
					}
					if full, half, _ := ScanBindings(hs, ms.Ref()); full != bound || half != 0 {
						fail("array holds %d full and %d half bindings after the rebuild, want %d and 0", full, half, bound)
					}
					hs.PSync()
					if reach, valid := liveObjects(t, ps, false), liveObjects(t, ps, true); reach != valid {
						fail("%d objects valid, %d reachable: the rebuild leaked", valid, reach)
					}
				}
			}
			t.Logf("%d ordering points, %d half bindings retired over all images", total, halves)
		})
	}
}
