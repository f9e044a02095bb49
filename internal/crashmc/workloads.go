package crashmc

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/pdt"
	"repro/internal/stack"
	"repro/internal/store"
	"repro/internal/tpcb"
)

// Workloads returns the registry of crash-exploration scenarios, one per
// persistence discipline in the system: failure-atomic blocks (bank); the
// store's J-PFA backend under per-Tx commits (grid), under the async
// epoch pipeline (gridgroup) and with delta folding (griddelta); record
// tables, the name dictionary and inline values (gridinline); the J-PDT
// backend with the zero-copy read path and EBR deferral active
// (gridread); transactional allocation/free (pool); the
// non-transactional single-fence publication of the J-PDT types (pdt);
// and the retirement of redo logs behind the durable watermark, where a
// committed block's slot and freed objects wait on its successors' fences
// (retire). Every one checks recovery against the one oracle type
// (oracle.go).
func Workloads() []*Workload {
	var ws []*Workload
	for _, e := range []entry{
		bankEntry(), gridEntry(), gridGroupEntry(), gridDeltaEntry(), gridInlineEntry(), gridReadEntry(),
		poolEntry(), pdtEntry(), retireEntry(),
	} {
		ws = append(ws, e.workload())
	}
	return ws
}

// ByName resolves a workload; "all" is handled by callers.
func ByName(name string) (*Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// entry is one row of the workload table: the stack every open of the
// workload's pool goes through, what the harness does around each
// reopen, and the workload's own scenario. The harness turns it into a
// Workload: Setup opens the stack and hands it to the scenario; every
// Check recovers the crash image once, fscks it, and only then consults
// the scenario's oracle.
type entry struct {
	name      string
	poolBytes int
	cfg       stack.Config
	// auditSlots runs fa.AuditCommittedSlots over every raw image before
	// recovery and holds recovery to replaying exactly the live slots. The
	// audit holds on torn images too: a slot's mark and count are separate
	// aligned words, nothing ever clears a count under a live mark, and
	// retirement writes only the one-word watermark.
	auditSlots bool
	new        func(seed int64) *scenario
}

// scenario is the workload-specific part of an entry: volatile closures
// sharing an oracle that exec advances and check consults (the contracts
// are Run's).
type scenario struct {
	// setup creates the persistent structures over the fresh stack.
	setup func(st *stack.Stack) error
	// exec is the explored mutation sequence.
	exec func() error
	// check verifies the oracle over a recovered, fsck-clean stack and
	// probes that it still accepts operations.
	check func(st *stack.Stack) error
}

// stackCfg is the explorer's stack shape: 16 log slots of 16 KiB (the
// geometry the workloads' ordering-point counts were recorded with), the
// given backend kind ("" = bare heap).
func stackCfg(kind string) stack.Config {
	return stack.Config{Backend: kind, LogSlots: 16, LogSlotSize: 1 << 14}
}

func (e entry) workload() *Workload {
	return &Workload{Name: e.name, PoolBytes: e.poolBytes, New: func(seed int64) *Run {
		sc := e.new(seed)
		return &Run{
			Setup: func(pool *nvm.Pool) error {
				st, err := stack.Open(pool, e.cfg)
				if err != nil {
					return err
				}
				return sc.setup(st)
			},
			Exec:  func(*nvm.Pool) error { return sc.exec() },
			Check: func(img *nvm.Pool) error { return e.check(sc, img) },
		}
	}}
}

// check is every scenario's Check: what an operator restart does, then
// the oracle. With auditSlots the raw image's log area is audited first —
// heap.Open attaches without replaying — and recovery must then replay
// exactly the live slots it counted and leave none live.
func (e entry) check(sc *scenario, img *nvm.Pool) error {
	var live []fa.LiveSlot
	if e.auditSlots {
		mem, err := heap.Open(img)
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		if err := fa.AuditCommittedSlots(mem); err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		_, live = fa.LiveSlots(mem)
	}
	st, err := stack.Open(img, e.cfg)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if e.auditSlots {
		if n := st.Recovery()[0].ReplayedTx; n != uint64(len(live)) {
			return fmt.Errorf("audit: image holds %d live log slots, recovery replayed %d", len(live), n)
		}
		if _, left := fa.LiveSlots(st.Heap.Mem()); len(left) != 0 {
			return fmt.Errorf("audit: %d log slots still live after recovery", len(left))
		}
	}
	if err := fsckClean(st.Heap); err != nil {
		return err
	}
	if err := sc.check(st); err != nil {
		return err
	}
	return mapsWhole(st.Heap)
}

// mapsWhole holds every persistent map among h's roots to the binding
// rule once it has been opened: its array carries exactly the mirror's
// keys as full bindings and no half binding — resurrection retired what
// the crash tore, and nothing the oracle's probes wrote left one behind.
func mapsWhole(h *core.Heap) error {
	for _, name := range h.Root().Names() {
		po, err := h.Root().Get(name)
		if err != nil {
			return fmt.Errorf("root %q: %w", name, err)
		}
		m, ok := po.(*pdt.Map)
		if !ok {
			continue
		}
		if full, half, _ := pdt.ScanBindings(h, m.Ref()); half != 0 || full != m.Len() {
			return fmt.Errorf("map %q: %d full and %d half bindings in the array, %d keys in the mirror", name, full, half, m.Len())
		}
	}
	return nil
}

func fsckClean(h *core.Heap) error {
	var msgs []string
	report := func(m string) {
		if len(msgs) < 4 {
			msgs = append(msgs, m)
		}
	}
	// The graph, then the store's record tables against their name
	// dictionaries: every stored id resolves at every explored point.
	n := h.Fsck(report) + store.FsckRecords(h, report)
	if n != 0 {
		return fmt.Errorf("fsck: %d errors: %s", n, strings.Join(msgs, "; "))
	}
	return nil
}

// drain ends epoch e of an async workload, alternating the two drain
// APIs: both promise every ticket issued so far durable when they return,
// so every key is acked at its latest state.
func (o oracle) drain(mgr *fa.Manager, e int) {
	if e%2 == 0 {
		mgr.AwaitDurable(mgr.IssuedTickets())
	} else {
		mgr.DrainDurable()
	}
	o.ack()
}

// readRecord copies key's record out of NVMM, field name to value; nil
// when the key is absent.
func readRecord(g *store.Grid, key string) (map[string]string, error) {
	rec := map[string]string{}
	err := g.Read(key, func(name string, value []byte) {
		rec[strings.Clone(name)] = string(value)
	})
	if err == store.ErrNotFound {
		return nil, nil
	}
	return rec, err
}

// checkRecords holds each key's recovered record to the oracle.
func (o oracle) checkRecords(g *store.Grid, keys []string) error {
	for _, key := range keys {
		rec, err := readRecord(g, key)
		if err != nil {
			return fmt.Errorf("read %s: %w", key, err)
		}
		if err := o.check(key, render(rec)); err != nil {
			return err
		}
	}
	return nil
}

// valueState renders a map value as a one-field record named after its
// type, so a string and a byte blob with equal contents differ.
func valueState(po core.PObject) (string, error) {
	switch v := po.(type) {
	case nil:
		return absent, nil
	case *pdt.PString:
		return render(map[string]string{"string": v.Value()}), nil
	case *pdt.PBytes:
		return render(map[string]string{"bytes": string(v.Value())}), nil
	}
	return "", fmt.Errorf("unexpected value type %T", po)
}

// checkMap holds each key's recovered binding in m to the oracle, which
// knows it as ns+key, and refuses a bound key outside keys.
func (o oracle) checkMap(m *pdt.Map, ns string, keys []string) error {
	for _, key := range keys {
		po, err := m.Get(key)
		if err != nil {
			return fmt.Errorf("get %s: %w", key, err)
		}
		s, err := valueState(po)
		if err != nil {
			return fmt.Errorf("value of %s: %w", key, err)
		}
		if err := o.check(ns+key, s); err != nil {
			return err
		}
	}
	for _, k := range m.Keys() {
		if !slices.Contains(keys, k) {
			return fmt.Errorf("phantom key %q in recovered map", k)
		}
	}
	return nil
}

// rootAs resurrects the root object bound to name as a T; a root that
// recovered as anything else is a finding, not a panic.
func rootAs[T core.PObject](h *core.Heap, name string) (T, error) {
	po, err := h.Root().Get(name)
	if err != nil {
		var none T
		return none, fmt.Errorf("root %s: %w", name, err)
	}
	v, ok := po.(T)
	if !ok {
		return v, fmt.Errorf("root %s is %T, not %T", name, po, v)
	}
	return v, nil
}

// keyNames renders the working key set of a scenario.
func keyNames(format string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf(format, i)
	}
	return keys
}

// letters is an n-byte value recognizable per op i, so a torn or
// misattributed record shows up as a mismatch, not as equal filler.
func letters(i, n int) []byte {
	v := make([]byte, n)
	for j := range v {
		v[j] = byte('a' + (i+j)%26)
	}
	return v
}

// counter and counterValue are the stored form of an 8-byte little-endian
// counter field (store.Grid.AddDelta's operand).
func counter(v int64) string { return string(binary.LittleEndian.AppendUint64(nil, uint64(v))) }

func counterValue(s string) int64 { return int64(binary.LittleEndian.Uint64([]byte(s))) }

// vFields and vState are a one-field record {v: value}, as the store
// writes it and as the oracle knows it.
func vFields(v string) []store.Field { return []store.Field{{Name: "v", Value: []byte(v)}} }

func vState(v string) string { return render(map[string]string{"v": v}) }

// probeInsert is the grid workloads' writability probe: the recovered
// grid must accept a new record and read it back.
func probeInsert(g *store.Grid) error {
	if err := g.Insert("probe", &store.Record{Fields: vFields("ok")}); err != nil {
		return fmt.Errorf("post-recovery insert: %w", err)
	}
	if rec, err := readRecord(g, "probe"); err != nil || render(rec) != vState("ok") {
		return fmt.Errorf("post-recovery readback: %s, %v", render(rec), err)
	}
	return nil
}

// ---- bank: J-PFA failure-atomic transfers (§5.3.3) ----

// bankEntry checks strict all-or-nothing atomicity: the bank is one key
// holding its balance vector, each transfer is issued before it runs and
// acked when it returns, and the recovered bank must accept new
// transfers.
func bankEntry() entry {
	const accounts = 8
	const transfers = 12
	return entry{name: "bank", poolBytes: 1 << 22, cfg: tpcb.StackConfig(false), auditSlots: true, new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		o := oracle{}
		bal := make([]int64, accounts) // the model's balances
		var bank *tpcb.JNVMBank
		return &scenario{
			setup: func(st *stack.Stack) (err error) {
				o.issue("balances", fmt.Sprint(bal))
				o.ack()
				bank, err = tpcb.NewJNVMBank(st, accounts)
				return err
			},
			exec: func() error {
				for i := 0; i < transfers; i++ {
					from := rng.Intn(accounts)
					to := (from + 1 + rng.Intn(accounts-1)) % accounts
					amt := int64(1 + rng.Intn(100))
					bal[from] -= amt
					bal[to] += amt
					o.issue("balances", fmt.Sprint(bal))
					if err := bank.Transfer(from, to, amt); err != nil {
						return err
					}
					o.ack()
				}
				return nil
			},
			check: func(st *stack.Stack) error {
				b, err := tpcb.NewJNVMBank(st, accounts)
				if err != nil {
					return fmt.Errorf("reattach: %w", err)
				}
				balances := func() ([]int64, error) {
					got := make([]int64, accounts)
					for i := range got {
						v, err := b.Balance(i)
						if err != nil {
							return nil, fmt.Errorf("balance %d: %w", i, err)
						}
						got[i] = v
					}
					return got, nil
				}
				got, err := balances()
				if err != nil {
					return err
				}
				if err := o.check("balances", fmt.Sprint(got)); err != nil {
					return err
				}
				// Writability probe: the recovered bank must keep working.
				if err := b.Transfer(0, 1, 7); err != nil {
					return fmt.Errorf("post-recovery transfer: %w", err)
				}
				got[0], got[1] = got[0]-7, got[1]+7
				if after, err := balances(); err != nil || fmt.Sprint(after) != fmt.Sprint(got) {
					return fmt.Errorf("post-recovery transfer: balances %v, want %v, %v", after, got, err)
				}
				return nil
			},
		}
	}}
}

// ---- grid: store-level put/update/delete/RMW over the J-PFA backend ----

func gridEntry() entry {
	const nkeys = 10
	const ops = 30
	keys := keyNames("k%02d", nkeys)
	return entry{name: "grid", poolBytes: 1 << 21, cfg: stackCfg(stack.JPFA), auditSlots: true, new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		o := oracle{}
		var g *store.Grid
		mkval := func(i int) string {
			return string(letters(i, 8+rng.Intn(72))) // up to two cache lines of payload
		}
		return &scenario{
			setup: func(st *stack.Stack) error {
				g = st.Grid
				return nil
			},
			exec: func() error {
				for i := 0; i < ops; i++ {
					key := keys[rng.Intn(nkeys)]
					var err error
					switch {
					case o.latest(key) == absent:
						v := mkval(i)
						o.issue(key, vState(v))
						err = g.Insert(key, &store.Record{Fields: vFields(v)})
					case rng.Intn(3) == 0:
						o.issue(key, absent)
						err = g.Delete(key)
					case rng.Intn(2) == 0:
						v := mkval(i)
						o.issue(key, vState(v))
						err = g.Update(key, vFields(v))
					default:
						v := mkval(i)
						o.issue(key, vState(v))
						err = g.ReadModifyWrite(key, func(*store.Record) []store.Field { return vFields(v) })
					}
					if err != nil {
						return fmt.Errorf("op %d on %s: %w", i, key, err)
					}
					o.ack(key)
					// Read the key back through the view path the benchmark
					// reads with. The read draws no RNG value and, in per-Tx
					// mode, stores nothing, so it adds no ordering point.
					rec, err := readRecord(g, key)
					if err != nil {
						return fmt.Errorf("op %d: read back %s: %w", i, key, err)
					}
					if got := render(rec); got != o.latest(key) {
						return fmt.Errorf("op %d: read back %s = %s, want %s", i, key, got, o.latest(key))
					}
				}
				if rp := g.ObsSnapshot(); rp.ZeroCopyHits != ops || rp.CopyFallbacks != 0 {
					return fmt.Errorf("%d of %d read-backs zero-copy, %d fell back to the lock", rp.ZeroCopyHits, ops, rp.CopyFallbacks)
				}
				return nil
			},
			check: func(st *stack.Stack) error {
				g := st.Grid
				if err := o.checkRecords(g, keys); err != nil {
					return err
				}
				return probeInsert(g)
			},
		}
	}}
}

// ---- gridgroup: async group commit over the J-PFA backend ----

// gridGroupEntry crashes the epoch pipeline of DESIGN.md §15: updates
// run in CommitAsync mode with manual drains, so each epoch batches
// several commits behind one fence set. The oracle proves the prefix
// property — a crash recovers every fully-drained epoch (the caller was
// told so by AwaitDurable/DrainDurable returning) and, for the in-flight
// epoch, an all-or-nothing subset per key: each key reads either its last
// durable value or its queued update, never a torn mix and never a value
// from a later epoch while an earlier one is missing (epochs touch every
// key round-robin, so a skipped epoch would surface as a stale durable
// read after an ack). An epoch of commits that hold different words of
// one block follows: updates of two fields of one record, and two inserts
// whose bindings share a block of the map's array, then a third update
// of the first field, whose held word drains that epoch before it
// queues. Two single-update epochs on one hot key close the run: the
// first is parked — applied, live, W not over it yet — while the
// second's marks are written, so both logs write the key's record block
// and a crash in between must replay them oldest first.
func gridGroupEntry() entry {
	const nkeys = 8
	const epochs = 5
	const hotEpochs = 2
	const opsPerEpoch = 3 // < nkeys: round-robin keeps keys distinct per epoch
	const wordAt = 3      // the epoch the word epoch precedes
	keys := keyNames("g%02d", nkeys)
	const two = "w00" // a record of two fields, v and w
	fresh := keyNames("n%02d", 2)
	all := append(append(append([]string(nil), keys...), two), fresh...)
	return entry{name: "gridgroup", poolBytes: 1 << 21, cfg: stackCfg(stack.JPFA), auditSlots: true, new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		o := oracle{}
		var g *store.Grid
		var mgr *fa.Manager
		mkval := func(i int) string {
			return string(letters(i, 8+rng.Intn(16)))
		}
		// rec is the state and the fields of the two-field record.
		rec := map[string]string{}
		update := func(key string, fields []store.Field) error {
			if err := g.Update(key, fields); err != nil {
				return fmt.Errorf("update %s: %w", key, err)
			}
			return nil
		}
		// wordEpoch's v updates flip the field's representation, a
		// reference to an inline value and back, so the third update
		// rewrites the name word the first one holds: based on the stale
		// word, it would leave an inline name over a reference.
		wordEpoch := func(e int) error {
			// The epoch replays any subset of its commits, so the w
			// update may land without the v update before it.
			v0, v1, w1 := rec["v"], string(letters(200, 5)), mkval(201)
			rec["v"] = v1
			o.issue(two, render(rec))
			rec["v"], rec["w"] = v0, w1
			o.issue(two, render(rec))
			rec["v"] = v1
			o.issue(two, render(rec))
			if err := update(two, []store.Field{{Name: "v", Value: []byte(v1)}}); err != nil {
				return err
			}
			if err := update(two, []store.Field{{Name: "w", Value: []byte(w1)}}); err != nil {
				return err
			}
			for i, key := range fresh {
				v := mkval(210 + i)
				o.issue(key, vState(v))
				if err := g.Insert(key, &store.Record{Fields: vFields(v)}); err != nil {
					return fmt.Errorf("insert %s: %w", key, err)
				}
			}
			rec["v"] = string(letters(220, 16))
			o.issue(two, render(rec))
			if err := update(two, []store.Field{{Name: "v", Value: []byte(rec["v"])}}); err != nil {
				return err
			}
			o.drain(mgr, e)
			return nil
		}
		return &scenario{
			setup: func(st *stack.Stack) error {
				mgr = st.Mgr
				g = st.Grid
				// Seed every key in the default per-Tx mode, then switch to
				// the async pipeline for the explored phase.
				for i, key := range keys {
					v := mkval(i)
					o.issue(key, vState(v))
					if err := g.Insert(key, &store.Record{Fields: vFields(v)}); err != nil {
						return err
					}
				}
				rec["v"], rec["w"] = string(letters(nkeys, 16)), mkval(nkeys+1)
				o.issue(two, render(rec))
				if err := g.Insert(two, &store.Record{Fields: []store.Field{
					{Name: "v", Value: []byte(rec["v"])}, {Name: "w", Value: []byte(rec["w"])},
				}}); err != nil {
					return err
				}
				o.ack()
				return mgr.SetGroupCommit(fa.GroupOptions{ManualDrain: true})
			},
			exec: func() error {
				for e := 0; e < epochs+hotEpochs; e++ {
					switch e {
					case wordAt:
						if err := wordEpoch(e); err != nil {
							return err
						}
					case wordAt + 1:
						// Back to an inline value, in the next epoch.
						rec["v"] = string(letters(230, 6))
						o.issue(two, render(rec))
						if err := update(two, []store.Field{{Name: "v", Value: []byte(rec["v"])}}); err != nil {
							return err
						}
					}
					for j := 0; j < opsPerEpoch; j++ {
						key := keys[(e*opsPerEpoch+j)%nkeys]
						if e >= epochs {
							if j > 0 {
								break
							}
							key = keys[0]
						}
						v := mkval(e*opsPerEpoch + j + 100)
						o.issue(key, vState(v))
						if err := update(key, vFields(v)); err != nil {
							return fmt.Errorf("epoch %d: %w", e, err)
						}
					}
					o.drain(mgr, e)
				}
				return nil
			},
			check: func(st *stack.Stack) error {
				g2 := st.Grid
				if err := o.checkRecords(g2, all); err != nil {
					return err
				}
				// Writability probe: the recovered heap commits per-Tx again.
				return probeInsert(g2)
			},
		}
	}}
}

// ---- griddelta: delta-ledger folding under the async pipeline ----

// gridDeltaEntry crashes the delta coalescing of DESIGN.md §17: counter
// increments ride the manager's fold ledger (volatile until a drain
// materializes one redo-log entry per hot key) while updates on the same
// keys queue as ordinary async commits, forcing the drain-on-overlap
// interactions. An increment is an oracle fold (a fold materializes
// whole, so a partial sum must never surface); a drain the pipeline runs
// internally keeps every in-flight state legal; each returned drain acks
// every key, so a lost or double-applied folded delta fails there. Two
// epochs of nothing but folds on one hot key close the run: each is a
// pure delta epoch (a materialization and no queued commit), and the
// first is parked while the second's fold is based on the block it
// applied to.
func gridDeltaEntry() entry {
	const nkeys = 6
	const epochs = 4
	const opsPerEpoch = 6
	keys := keyNames("c%02d", nkeys)
	e := entry{name: "griddelta", poolBytes: 1 << 21, cfg: stackCfg(stack.JPFA)}
	// A live log slot with a zero entry count means a commit mark outran
	// its stage-1 persist — the signature of a delta materialization whose
	// fold would silently drop at replay (the regression fa's
	// materializeLocked rules out by running the fold's stage 1 itself).
	e.auditSlots = true
	e.new = func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		o := oracle{}
		val := make([]int64, nkeys)    // each counter in the model
		ledger := make([]int64, nkeys) // delta folded since the last drain
		queued := make([]bool, nkeys)  // a queued (non-ledger) tx touched the key
		state := func(x int64) string { return render(map[string]string{"n": counter(x)}) }
		// boundary models a drain the pipeline runs inside the next
		// operation (an overlap forces it): everything in flight may land.
		// Misfires are safe — a boundary only keeps states legal — but a
		// fired one records the states a crash mid-exec may surface.
		boundary := func() {
			for j, key := range keys {
				o.issue(key, state(val[j]))
				ledger[j], queued[j] = 0, false
			}
		}
		var g *store.Grid
		var mgr *fa.Manager
		drain := func(e int) {
			o.drain(mgr, e)
			clear(ledger)
			clear(queued)
		}
		return &scenario{
			setup: func(st *stack.Stack) error {
				mgr = st.Mgr
				g = st.Grid
				// Seed per-Tx: insert each counter and bump it once through
				// the transactional path; the counter is the value word of
				// its field, so the async phase folds in the ledger from
				// its first op.
				for i, key := range keys {
					v := int64(100 * (i + 1))
					if err := g.Insert(key, &store.Record{Fields: []store.Field{{Name: "n", Value: []byte(counter(v))}}}); err != nil {
						return err
					}
					if err := g.AddDelta(key, "n", 1); err != nil {
						return err
					}
					val[i] = v + 1
					o.issue(key, state(val[i]))
				}
				o.ack()
				return mgr.SetGroupCommit(fa.GroupOptions{ManualDrain: true})
			},
			exec: func() error {
				for e := 0; e < epochs; e++ {
					for i := 0; i < opsPerEpoch; i++ {
						k := rng.Intn(nkeys)
						if rng.Intn(10) < 7 {
							d := int64(1 + rng.Intn(9))
							if rng.Intn(4) == 0 {
								d = -d
							}
							// A queued tx on this key's blocks forces the
							// pipeline to drain before the fold can ride.
							if queued[k] {
								boundary()
							}
							if err := g.AddDelta(keys[k], "n", d); err != nil {
								return fmt.Errorf("epoch %d delta %s: %w", e, keys[k], err)
							}
							val[k] += d
							ledger[k] += d
							o.fold(keys[k], state(val[k]))
						} else {
							// Plain update: overwrites the counter's word through
							// the redo log; a pending fold or queued tx on the
							// key drains first (the backend settles the record).
							if ledger[k] != 0 || queued[k] {
								boundary()
							}
							x := int64(1000*(e+1) + i)
							if err := g.Update(keys[k], []store.Field{{Name: "n", Value: []byte(counter(x))}}); err != nil {
								return fmt.Errorf("epoch %d update %s: %w", e, keys[k], err)
							}
							val[k], ledger[k], queued[k] = x, 0, true
							o.issue(keys[k], state(x))
						}
					}
					drain(e)
				}
				for e := 0; e < 2; e++ {
					for i := 0; i < 3; i++ {
						d := int64(1 + rng.Intn(9))
						if err := g.AddDelta(keys[0], "n", d); err != nil {
							return fmt.Errorf("hot epoch %d delta: %w", e, err)
						}
						val[0] += d
						o.fold(keys[0], state(val[0]))
					}
					drain(e)
				}
				return nil
			},
			check: func(st *stack.Stack) error {
				g2 := st.Grid
				if err := o.checkRecords(g2, keys); err != nil {
					return err
				}
				// Writability probe: the recovered grid folds per-Tx again.
				// The check above found an 8-byte counter under keys[0].
				before, err := readRecord(g2, keys[0])
				if err != nil {
					return err
				}
				for _, d := range []int64{5, -2} {
					if err := g2.AddDelta(keys[0], "n", d); err != nil {
						return fmt.Errorf("post-recovery delta %d: %w", d, err)
					}
				}
				after, err := readRecord(g2, keys[0])
				if want := state(counterValue(before["n"]) + 3); err != nil || render(after) != want {
					return fmt.Errorf("post-recovery fold lost: %s -> %s, %v", render(before), render(after), err)
				}
				return nil
			},
		}
	}
	return e
}

// ---- gridinline: record tables, name dictionary, inline values ----

// gridInlineEntry crashes what a record's table can do beyond a reference
// swing (DESIGN.md §3.1): the first use of a field name (the dictionary
// append under its own fences, then a record that stores the id), updates
// that take a field from an inline value to a referenced one and back,
// ADDDELTA on an inline counter next to an UPDATE of a sibling field of
// the same record (one block, a ledger entry and a queued commit), and
// DELETE. A per-Tx phase makes each of them the only operation in
// flight and acks it on return; an async phase with manual drains queues
// them behind one another. The recovered record must be one of its key's
// legal states field for field — each operation all-or-nothing, nothing
// acknowledged by a returned drain lost — and the harness's fsck holds
// every stored id against the dictionary at every point. An ADDDELTA is
// issued, not folded: an overlap on the sibling key's block drains the
// whole ledger mid-epoch, which only griddelta models, so an intermediate
// sum may land.
func gridInlineEntry() entry {
	const nkeys = 4
	const txOps = 14
	const epochs = 3
	const opsPerEpoch = 4
	keys := keyNames("r%02d", nkeys)
	e := entry{name: "gridinline", poolBytes: 1 << 21, cfg: stackCfg(stack.JPFA), auditSlots: true}
	e.new = func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		o := oracle{}
		cur := make([]map[string]string, nkeys) // each record in the model; nil = absent
		names := 0                              // field names minted so far
		var g *store.Grid
		var mgr *fa.Manager
		// value flips the representation of the field it replaces: a long
		// value becomes an inline one and the other way round.
		value := func(i int, prev string) string {
			if len(prev) > 8 {
				return string(letters(i, 1+rng.Intn(8)))
			}
			return string(letters(i, 9+rng.Intn(40)))
		}
		// step runs one random operation on key k, issuing the state it
		// leads to first.
		step := func(i, k int) error {
			key, pre := keys[k], cur[k]
			post := maps.Clone(pre)
			var err error
			switch r := rng.Intn(10); {
			case pre == nil:
				// A new record under a field name nobody used before.
				names++
				fresh := fmt.Sprintf("f%02d", names)
				post = map[string]string{"n": counter(int64(100 * (k + 1))), "v": value(i, ""), fresh: "x"}
				o.issue(key, render(post))
				err = g.Insert(key, &store.Record{Fields: []store.Field{
					{Name: "n", Value: []byte(post["n"])},
					{Name: "v", Value: []byte(post["v"])},
					{Name: fresh, Value: []byte("x")},
				}})
			case r == 0:
				post = nil
				o.issue(key, absent)
				err = g.Delete(key)
			case r < 5:
				d := int64(1 + rng.Intn(9))
				post["n"] = counter(counterValue(pre["n"]) + d)
				o.issue(key, render(post))
				err = g.AddDelta(key, "n", d)
			default:
				post["v"] = value(i, pre["v"])
				o.issue(key, render(post))
				err = g.Update(key, []store.Field{{Name: "v", Value: []byte(post["v"])}})
			}
			cur[k] = post
			if err != nil {
				return fmt.Errorf("op %d on %s: %w", i, key, err)
			}
			return nil
		}
		return &scenario{
			setup: func(st *stack.Stack) error {
				mgr = st.Mgr
				g = st.Grid
				return nil
			},
			exec: func() error {
				for i := 0; i < txOps; i++ {
					if err := step(i, rng.Intn(nkeys)); err != nil {
						return err
					}
					o.ack() // per-Tx: durable on return
				}
				if err := mgr.SetGroupCommit(fa.GroupOptions{ManualDrain: true}); err != nil {
					return err
				}
				for e := 0; e < epochs; e++ {
					// Two keys per epoch, so counters and their siblings
					// meet in one epoch.
					a := rng.Intn(nkeys)
					for i := 0; i < opsPerEpoch; i++ {
						if err := step(txOps+e*opsPerEpoch+i, (a+i%2)%nkeys); err != nil {
							return err
						}
					}
					o.drain(mgr, e)
				}
				return nil
			},
			check: func(st *stack.Stack) error {
				g2 := st.Grid
				if err := o.checkRecords(g2, keys); err != nil {
					return err
				}
				// Writability probe: a name the dictionary has never seen,
				// an inline counter next to it, and a fold on the counter.
				if err := g2.Insert("probe", &store.Record{Fields: []store.Field{
					{Name: "probe-name", Value: []byte("ok")}, {Name: "n", Value: []byte(counter(7))},
				}}); err != nil {
					return fmt.Errorf("post-recovery insert: %w", err)
				}
				if err := g2.AddDelta("probe", "n", 5); err != nil {
					return fmt.Errorf("post-recovery delta: %w", err)
				}
				want := render(map[string]string{"probe-name": "ok", "n": counter(12)})
				if rec, err := readRecord(g2, "probe"); err != nil || render(rec) != want {
					return fmt.Errorf("post-recovery readback: %s, %v", render(rec), err)
				}
				return nil
			},
		}
	}
	return e
}

// ---- gridread: J-PDT backend, zero-copy reads, EBR deferral ----

// gridReadEntry crashes the store's fastest path: the J-PDT backend
// behind the grid, which adopts the seqlock zero-copy reader and
// enables epoch-based reclamation on the heap. Writes follow the
// non-transactional §4.1.6 discipline (validate+fence before the swing,
// fence before the free), so a write is issued before it runs and acked
// only by a fence that covers it. Reads interleave with the writes so
// crash points land while retired-but-unreclaimed blocks exist, and
// every Check recovers the image and re-reads through a fresh zero-copy
// grid.
func gridReadEntry() entry {
	const nkeys = 8
	const ops = 36
	keys := keyNames("r%02d", nkeys)
	return entry{name: "gridread", poolBytes: 1 << 21, cfg: stackCfg(stack.JPDT), new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		o := oracle{}
		var g *store.Grid
		mkval := func(i int) string {
			n := 8 + rng.Intn(72)
			switch rng.Intn(4) {
			case 0:
				n = 280 + rng.Intn(120) // chained blob: defeats the view reader
			case 1:
				// A value the record's table holds itself: updated by one
				// 8-byte store, and every change to or from it replaces
				// the table with one swing of the binding's value word.
				n = 1 + rng.Intn(8)
			}
			return string(letters(i, n))
		}
		return &scenario{
			setup: func(st *stack.Stack) error {
				// Open's grid adopted the zero-copy read path and turned on EBR.
				g = st.Grid
				return nil
			},
			exec: func() error {
				for i := 0; i < ops; i++ {
					key := keys[rng.Intn(nkeys)]
					switch rng.Intn(6) {
					case 0, 1, 2: // write: insert when absent, update otherwise
						v := mkval(i)
						insert := o.latest(key) == absent
						o.issue(key, vState(v))
						if insert {
							// Map.Put fences mid-op, *before* publication:
							// the binding rides unfenced, so nothing is
							// acked here.
							if err := g.Insert(key, &store.Record{Fields: vFields(v)}); err != nil {
								return fmt.Errorf("op %d insert %s: %w", i, key, err)
							}
						} else {
							if err := g.Update(key, vFields(v)); err != nil {
								return fmt.Errorf("op %d update %s: %w", i, key, err)
							}
							// AtomicReplaceRef fenced the swing before
							// freeing the old value: everything issued is
							// now durable.
							o.ack()
						}
					case 3: // delete when present (Remove fences the unlink)
						if o.latest(key) == absent {
							continue
						}
						o.issue(key, absent)
						if err := g.Delete(key); err != nil {
							return fmt.Errorf("op %d delete %s: %w", i, key, err)
						}
						o.ack()
					default: // read through the zero-copy path, checked live
						rec, err := readRecord(g, key)
						if err != nil {
							return fmt.Errorf("op %d read %s: %w", i, key, err)
						}
						if got := render(rec); got != o.latest(key) {
							return fmt.Errorf("op %d read %s: got %s, model %s", i, key, got, o.latest(key))
						}
					}
				}
				return nil
			},
			check: func(st *stack.Stack) error {
				// The recovered stack's grid adopted zero-copy again, so
				// every crash image is re-read through the view path.
				g2 := st.Grid
				if err := o.checkRecords(g2, keys); err != nil {
					return err
				}
				// Writability probe: the recovered heap must accept the
				// full op mix through the same path.
				if err := g2.Insert("probe", &store.Record{Fields: vFields("ok")}); err != nil {
					return fmt.Errorf("post-recovery insert: %w", err)
				}
				if err := g2.Update("probe", vFields("ok2")); err != nil {
					return fmt.Errorf("post-recovery update: %w", err)
				}
				if rec, err := readRecord(g2, "probe"); err != nil || render(rec) != vState("ok2") {
					return fmt.Errorf("post-recovery readback: %s, %v", render(rec), err)
				}
				return nil
			},
		}
	}}
}

// ---- pool: transactional allocation and free through pdt.Map ----

// poolEntry drives the heap allocator inside failure-atomic blocks:
// PutTx allocates key strings and values (pooled small strings
// and multi-block byte blobs), DeleteTx frees them, and a crash at any
// point must leave the map exactly at the acked model with at most
// the in-flight op applied — with no leaked or dangling blocks (fsck).
func poolEntry() entry {
	const nkeys = 10
	const ops = 24
	keys := keyNames("p%02d", nkeys)
	return entry{name: "pool", poolBytes: 1 << 21, cfg: stackCfg(""), auditSlots: true, new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		o := oracle{}
		var h *core.Heap
		var mgr *fa.Manager
		var m *pdt.Map
		// mkval is a value of kind "string" (a pooled small string) or
		// "bytes" (a blob spanning 2-3 heap blocks), the names valueState
		// renders them under.
		mkval := func(i int) (kind string, data []byte) {
			if rng.Intn(2) == 0 {
				b := make([]byte, 4+rng.Intn(32))
				for j := range b {
					b[j] = byte('A' + (i+j)%26)
				}
				return "string", b
			}
			b := make([]byte, 260+rng.Intn(400))
			for j := range b {
				b[j] = byte(i + j)
			}
			return "bytes", b
		}
		return &scenario{
			setup: func(st *stack.Stack) (err error) {
				h, mgr = st.Heap, st.Mgr
				m, err = pdt.NewMap(h, pdt.MirrorHash)
				if err != nil {
					return err
				}
				return h.Root().Put("pool.map", m)
			},
			exec: func() error {
				for i := 0; i < ops; i++ {
					key := keys[rng.Intn(nkeys)]
					if o.latest(key) == absent || rng.Intn(3) != 0 {
						kind, data := mkval(i)
						o.issue(key, render(map[string]string{kind: string(data)}))
						if err := mgr.Run(func(tx *fa.Tx) error {
							var po core.PObject
							var err error
							if kind == "string" {
								po, err = pdt.NewStringTx(tx, string(data))
							} else {
								po, err = pdt.NewBytesTx(tx, data)
							}
							if err != nil {
								return err
							}
							return m.PutTx(tx, key, po)
						}); err != nil {
							return fmt.Errorf("put %s: %w", key, err)
						}
					} else {
						o.issue(key, absent)
						if err := mgr.Run(func(tx *fa.Tx) error {
							_, err := m.DeleteTx(tx, key)
							return err
						}); err != nil {
							return fmt.Errorf("delete %s: %w", key, err)
						}
					}
					o.ack(key)
				}
				return nil
			},
			check: func(st *stack.Stack) error {
				h2 := st.Heap
				m2, err := rootAs[*pdt.Map](h2, "pool.map")
				if err != nil {
					return err
				}
				if err := o.checkMap(m2, "", keys); err != nil {
					return err
				}
				// Writability probe: non-tx publication on the recovered heap.
				ps, err := pdt.NewString(h2, "probe")
				if err != nil {
					return fmt.Errorf("post-recovery alloc: %w", err)
				}
				if err := m2.Put("zz-probe", ps); err != nil {
					return fmt.Errorf("post-recovery put: %w", err)
				}
				back, err := m2.Get("zz-probe")
				if err != nil {
					return fmt.Errorf("post-recovery get: %w", err)
				}
				if s, ok := back.(*pdt.PString); !ok || s.Value() != "probe" {
					return fmt.Errorf("post-recovery readback mismatch")
				}
				return nil
			},
		}
	}}
}

// ---- pdt: non-transactional map/set/array publication discipline ----

// pdtEntry checks the single-fence publication rules (§3.2.3) without
// failure-atomic blocks. Individual ops are not atomic across a crash:
// each is issued before it runs and acked only by a fence that covers
// it, so a key or cell may recover to any value written since the last
// such fence, never anything torn, half-initialized, or from another
// key. The oracle knows the map's keys as "map k", the set's as "set k"
// and the array's cells as "arr[i]"; a set member is an empty record.
func pdtEntry() entry {
	const nkeys = 8
	const cells = 8
	const ops = 36
	keys := keyNames("d%02d", nkeys)
	cell := func(i int) string { return fmt.Sprintf("arr[%d]", i) }
	member := render(map[string]string{})
	return entry{name: "pdt", poolBytes: 1 << 21, cfg: stackCfg(""), new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		o := oracle{}
		var h *core.Heap
		var m *pdt.Map
		var s *pdt.Set
		var arr *pdt.PLongArray
		return &scenario{
			setup: func(st *stack.Stack) (err error) {
				h = st.Heap
				if m, err = pdt.NewMap(h, pdt.MirrorHash); err != nil {
					return err
				}
				if err = h.Root().Put("pdt.map", m); err != nil {
					return err
				}
				if s, err = pdt.NewSet(h, pdt.MirrorTree); err != nil {
					return err
				}
				if err = h.Root().Put("pdt.set", s.Map()); err != nil {
					return err
				}
				if arr, err = pdt.NewLongArray(h, cells); err != nil {
					return err
				}
				for i := 0; i < cells; i++ {
					o.issue(cell(i), "0")
				}
				o.ack()
				return h.Root().Put("pdt.arr", arr)
			},
			exec: func() error {
				for i := 0; i < ops; i++ {
					switch rng.Intn(7) {
					case 0, 1: // map put
						k := keys[rng.Intn(nkeys)]
						v := fmt.Sprintf("m%03d", i)
						o.issue("map "+k, render(map[string]string{"string": v}))
						ps, err := pdt.NewString(h, v)
						if err != nil {
							return err
						}
						if err := m.Put(k, ps); err != nil {
							return fmt.Errorf("map put %s: %w", k, err)
						}
					case 2: // map delete
						k := keys[rng.Intn(nkeys)]
						o.issue("map "+k, absent)
						m.Delete(k)
					case 3: // set add
						k := keys[rng.Intn(nkeys)]
						o.issue("set "+k, member)
						if err := s.Add(k); err != nil {
							return fmt.Errorf("set add %s: %w", k, err)
						}
					case 4: // set delete
						k := keys[rng.Intn(nkeys)]
						o.issue("set "+k, absent)
						s.Delete(k)
					case 5: // array store + per-element flush + fence
						i2 := rng.Intn(cells)
						v := int64(rng.Intn(1 << 30))
						o.issue(cell(i2), fmt.Sprint(v))
						arr.Set(i2, v)
						arr.FlushElem(i2)
						h.PFence()
						// The fence made exactly this cell durable.
						o.ack(cell(i2))
					case 6: // checkpoint: everything becomes durable
						h.PSync()
						o.ack()
					}
				}
				return nil
			},
			check: func(st *stack.Stack) error {
				h2 := st.Heap
				m2, err := rootAs[*pdt.Map](h2, "pdt.map")
				if err != nil {
					return err
				}
				sm2, err := rootAs[*pdt.Map](h2, "pdt.set")
				if err != nil {
					return err
				}
				s2 := pdt.AsSet(sm2)
				arr2, err := rootAs[*pdt.PLongArray](h2, "pdt.arr")
				if err != nil {
					return err
				}
				if err := o.checkMap(m2, "map ", keys); err != nil {
					return err
				}
				for _, k := range keys {
					got := absent
					if s2.Contains(k) {
						got = member
					}
					if err := o.check("set "+k, got); err != nil {
						return err
					}
				}
				for i := 0; i < cells; i++ {
					if err := o.check(cell(i), fmt.Sprint(arr2.Get(i))); err != nil {
						return err
					}
				}
				// Writability probe.
				ps, err := pdt.NewString(h2, "probe")
				if err != nil {
					return fmt.Errorf("post-recovery alloc: %w", err)
				}
				if err := m2.Put("d-probe", ps); err != nil {
					return fmt.Errorf("post-recovery put: %w", err)
				}
				arr2.Set(0, 42)
				arr2.FlushElem(0)
				h2.PFence()
				if arr2.Get(0) != 42 {
					return fmt.Errorf("post-recovery array write lost")
				}
				return nil
			},
		}
	}}
}

// ---- retire: redo logs retired behind the durable watermark ----

// retireEntry crashes the two orderings a per-Tx commit no longer fences
// itself (DESIGN.md §11): its apply is ordered before the watermark W by
// the next commit's first fence, and W before the reuse of its slot and
// the objects it freed by the next commit's second.
// Every pair of consecutive commits below shares state the wrong order
// would corrupt: updates of one record whose field sets differ (two live
// logs on one block must replay oldest first, or the record is a mix of
// both), updates of neighbouring records (values side by side in one pool
// chunk), an update that frees the value the commit before it allocated,
// an insert right after a delete (which must not be handed the blocks the
// parked delete freed), the first use of a field name right after an
// update that freed a slot of the name's size (the dictionary allocates
// and publishes outside the block, under its own fences: handed the
// parked commit's slot, it would be invalidated by that commit's replay),
// and a forced Retire in the middle. The oracle holds one key, the whole
// grid, so it checks the prefix property: the recovered records equal
// the model after every operation that returned, or that plus the one in
// flight — never a mix, never an older state. Then a burst of inserts
// takes blocks off the recovered free queue and every record is read
// again: a block both free and reachable would change under it. The
// harness's audit holds each raw image to "replayed = live slots".
func retireEntry() entry {
	keys := keyNames("t%02d", 8)
	fields := []string{"f0", "f1", "f2", "f3"}
	e := entry{name: "retire", poolBytes: 1 << 21, cfg: stackCfg(stack.JPFA), auditSlots: true}
	e.new = func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		o := oracle{}
		cur := map[string]map[string]string{} // the model: key -> field -> value
		// grid renders every present record of a grid as one state.
		grid := func(recs map[string]map[string]string) string {
			out := map[string]string{}
			for k, rec := range recs {
				out[k] = render(rec)
			}
			return render(out)
		}
		var g *store.Grid
		var mgr *fa.Manager
		// Values straddle the pooled-slot limit: short ones share a pool
		// chunk with their neighbours, long ones own a block. f1 is always
		// the size of a field name's slot. The sizes come from r: exec's
		// rng, or the probes' own in check.
		value := func(r *rand.Rand, i int, f string) string {
			if f == "f1" {
				return string(letters(i, 9+r.Intn(8)))
			}
			return string(letters(i, 12+r.Intn(150)))
		}
		record := func(r *rand.Rand, i int, extra ...string) (*store.Record, map[string]string) {
			rec, m := &store.Record{}, map[string]string{}
			for j, f := range append(fields, extra...) {
				v := value(r, i+j, f)
				rec.Fields = append(rec.Fields, store.Field{Name: f, Value: []byte(v)})
				m[f] = v
			}
			return rec, m
		}
		insert := func(i int, key string, extra ...string) error {
			rec, m := record(rng, i, extra...)
			cur[key] = m
			o.issue("grid", grid(cur))
			return g.Insert(key, rec)
		}
		update := func(i int, key string, names ...string) error {
			var fs []store.Field
			for j, f := range names {
				v := value(rng, i+j, f)
				fs = append(fs, store.Field{Name: f, Value: []byte(v)})
				cur[key][f] = v
			}
			o.issue("grid", grid(cur))
			return g.Update(key, fs)
		}
		del := func(key string) error {
			delete(cur, key)
			o.issue("grid", grid(cur))
			return g.Delete(key)
		}
		ops := []func(i int) error{
			// One record, different field sets: the first update is parked
			// while the second marks, both logs write the record's block.
			func(i int) error { return update(i, keys[0], "f0") },
			func(i int) error { return update(i, keys[0], "f0", "f2") },
			func(i int) error { return update(i, keys[0], "f3") },
			// Neighbours, alternating.
			func(i int) error { return update(i, keys[1], "f1") },
			func(i int) error { return update(i, keys[2], "f1") },
			func(i int) error { return update(i, keys[1], "f1", "f2") },
			// A delete, then inserts that must not get its blocks early.
			func(i int) error { return del(keys[3]) },
			func(i int) error { return insert(i, keys[5]) },
			func(i int) error { return insert(i, keys[6]) },
			// Frees what the parked insert allocated.
			func(i int) error { return update(i, keys[6], "f0", "f1", "f2", "f3") },
			// Forced retirement between two commits on one record.
			func(i int) error { return update(i, keys[2], "f0") },
			func(i int) error { mgr.Retire(); return nil },
			func(i int) error { return update(i, keys[2], "f0", "f3") },
			// Same key out and back in.
			func(i int) error { return del(keys[1]) },
			func(i int) error { return insert(i, keys[1]) },
			func(i int) error { return update(i, keys[1], "f2") },
			// Frees a name-sized slot, then a name is interned.
			func(i int) error { return update(i, keys[0], "f1") },
			func(i int) error { return insert(i, keys[7], "fresh") },
		}
		return &scenario{
			setup: func(st *stack.Stack) error {
				mgr = st.Mgr
				g = st.Grid
				for i := 0; i < 5; i++ {
					if err := insert(100+10*i, keys[i]); err != nil {
						return err
					}
				}
				o.ack()
				return nil
			},
			exec: func() error {
				for i, op := range ops {
					if err := op(10 * i); err != nil {
						return fmt.Errorf("op %d: %w", i, err)
					}
					o.ack()
				}
				return nil
			},
			check: func(st *stack.Stack) error {
				g2 := st.Grid
				read := func() (string, error) {
					recs := map[string]map[string]string{}
					for _, key := range keys {
						rec, err := readRecord(g2, key)
						if err != nil {
							return "", fmt.Errorf("read %s: %w", key, err)
						}
						if rec != nil {
							recs[key] = rec
						}
					}
					return grid(recs), nil
				}
				got, err := read()
				if err != nil {
					return err
				}
				if err := o.check("grid", got); err != nil {
					return err
				}
				// No block both free and reachable: allocations off the
				// recovered free queue leave every record as it was. Check
				// runs in the middle of exec, so the probes draw their
				// sizes from an rng of their own: a draw from exec's would
				// change the run being checked.
				probes := rand.New(rand.NewSource(seed))
				for i := 0; i < 6; i++ {
					rec, _ := record(probes, 1000+10*i)
					if err := g2.Insert(fmt.Sprintf("probe%d", i), rec); err != nil {
						return fmt.Errorf("post-recovery insert %d: %w", i, err)
					}
				}
				if again, err := read(); err != nil || again != got {
					return fmt.Errorf("records changed under post-recovery inserts (a free block was reachable): %s, %v", again, err)
				}
				return nil
			},
		}
	}
	return e
}
