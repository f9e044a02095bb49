package crashmc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/pdt"
	"repro/internal/shard"
	"repro/internal/stack"
	"repro/internal/store"
	"repro/internal/tpcb"
)

// Workloads returns the registry of crash-exploration scenarios, one per
// persistence discipline in the system: failure-atomic blocks (bank),
// the store's J-PFA backend (grid), the J-PDT backend with the zero-copy
// read path and EBR deferral active (gridread), transactional
// allocation/free (pool), the non-transactional single-fence publication
// of the J-PDT types (pdt), the lock-free persist-at-destination map/set
// (pdtlockfree), and the retirement of redo logs behind the durable
// watermark, where a committed block's slot, in-flight copies and freed
// objects wait on its successors' fences (retire).
func Workloads() []*Workload {
	var ws []*Workload
	for _, e := range []entry{
		bankEntry(), gridEntry(), gridGroupEntry(), gridDeltaEntry(), gridInlineEntry(), gridReadEntry(),
		poolEntry(), pdtEntry(), pdtLockFreeEntry(), poolMigrateEntry(), retireEntry(),
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
// workload's pools goes through, what the harness does around each
// reopen, and the workload's own scenario. The harness turns it into a
// Workload: Setup opens the stack and hands it to the scenario; every
// Check reopens the crash images at the requested recovery parallelism,
// fscks each pool, and only then consults the scenario's oracle.
type entry struct {
	name      string
	poolBytes int
	pools     int // pools handed to the run (0 or 1 = single pool)
	// setupPools is how many of them Setup's stack opens (0 = all); the
	// rest are spares the scenario adds online.
	setupPools int
	// cfg is the stack configuration; the harness fills in Parallelism.
	cfg stack.Config
	// compare makes every parallel check prove the §4.1.3 equivalence on
	// top of the oracle: each pool image recovered serially and
	// concurrently must match bit for bit, and a full serial check of the
	// same images must report the same observable state.
	compare bool
	// auditSlots runs fa.AuditCommittedSlots over every image (Run.Audit)
	// and holds recovery to replaying exactly the live slots.
	auditSlots bool
	new        func(seed int64) *scenario
}

// scenario is the workload-specific part of an entry: volatile closures
// sharing an application-level oracle that exec maintains and check
// consults (the contracts are Run's).
type scenario struct {
	// setup creates the persistent structures over the fresh stack.
	setup func(st *stack.Stack) error
	// exec is the explored mutation sequence.
	exec func(pools []*nvm.Pool) error
	// check verifies the oracle over a recovered, fsck-clean stack and
	// probes that it still accepts operations. What it writes to obs is
	// the observable state compared between recoveries (entry.compare).
	check func(st *stack.Stack, obs *strings.Builder) error
}

// stackCfg is the explorer's stack shape: 16 log slots of 16 KiB (the
// geometry the workloads' ordering-point counts were recorded with), the
// given backend kind ("" = bare heap).
func stackCfg(kind string) stack.Config {
	return stack.Config{Backend: kind, LogSlots: 16, LogSlotSize: 1 << 14}
}

func (e entry) workload() *Workload {
	return &Workload{Name: e.name, PoolBytes: e.poolBytes, Pools: e.pools, New: func(seed int64) *Run {
		sc := e.new(seed)
		run := &Run{
			SetupN: func(pools []*nvm.Pool) error {
				if e.setupPools > 0 {
					pools = pools[:e.setupPools]
				}
				st, err := e.open(pools, 1, false)
				if err != nil {
					return err
				}
				return sc.setup(st)
			},
			ExecN:  sc.exec,
			CheckN: func(imgs []*nvm.Pool, parallelism int) error { return e.check(sc, imgs, parallelism) },
		}
		if e.auditSlots {
			run.Audit = func(imgs []*nvm.Pool) error {
				mem, err := heap.Open(imgs[0])
				if err != nil {
					return err
				}
				if err := fa.AuditCommittedSlots(mem); err != nil {
					return err
				}
				// Recovery replays exactly the live slots, and retires them.
				_, live := fa.LiveSlots(mem)
				st, err := e.open(imgs[:1], 1, true)
				if err != nil {
					return err
				}
				if n := st.Recovery()[0].ReplayedTx; n != uint64(len(live)) {
					return fmt.Errorf("image holds %d live log slots, recovery replayed %d", len(live), n)
				}
				if _, left := fa.LiveSlots(st.Pools[0].Heap.Mem()); len(left) != 0 {
					return fmt.Errorf("%d log slots still live after recovery", len(left))
				}
				return nil
			}
		}
		return run
	}}
}

// open opens pools through the entry's stack; bare leaves the backend
// off, so nothing above the heap touches the image.
func (e entry) open(pools []*nvm.Pool, parallelism int, bare bool) (*stack.Stack, error) {
	cfg := e.cfg
	cfg.Parallelism = parallelism
	if bare {
		cfg.Backend = ""
	}
	return stack.Open(pools, cfg)
}

// check is every scenario's Check: what an operator restart does, then
// the oracle. A multi-pool run first reads the epoch table off the pool-0
// image to learn which pools are durable members.
func (e entry) check(sc *scenario, imgs []*nvm.Pool, parallelism int) error {
	if len(imgs) > 1 {
		n, err := e.durableMembers(imgs)
		if err != nil {
			return err
		}
		imgs = imgs[:n]
	}
	if !e.compare || parallelism == 1 {
		_, err := e.checkOne(sc, imgs, parallelism)
		return err
	}
	// §4.1.3 equivalence, per pool and bit for bit: recover each image
	// serially and concurrently, bare, and compare the raw pool bytes —
	// before anything above the heap (a mirror rebuild, a set's migration
	// resume) can write.
	clones := make([]*nvm.Pool, len(imgs))
	for i, img := range imgs {
		clones[i] = clonePool(img)
		a, c := clonePool(img), clonePool(img)
		if _, err := e.open([]*nvm.Pool{a}, 1, true); err != nil {
			return fmt.Errorf("pool %d serial recovery: %w", i, err)
		}
		if _, err := e.open([]*nvm.Pool{c}, parallelism, true); err != nil {
			return fmt.Errorf("pool %d parallel recovery: %w", i, err)
		}
		if !bytes.Equal(a.ReadBytes(0, a.Size()), c.ReadBytes(0, c.Size())) {
			return fmt.Errorf("pool %d: serial and parallel recovery images differ", i)
		}
	}
	obs, err := e.checkOne(sc, imgs, parallelism)
	if err != nil {
		return err
	}
	sobs, err := e.checkOne(sc, clones, 1)
	if err != nil {
		return fmt.Errorf("serial replay of parallel image: %w", err)
	}
	if obs != sobs {
		return fmt.Errorf("serial/parallel divergence:\n  par:    %s\n  serial: %s", obs, sobs)
	}
	return nil
}

// checkOne reopens the images (replaying any interrupted migration
// synchronously), fscks every pool and runs the scenario's oracle.
func (e entry) checkOne(sc *scenario, imgs []*nvm.Pool, parallelism int) (string, error) {
	st, err := e.open(imgs, parallelism, false)
	if err != nil {
		return "", fmt.Errorf("reopen (%d pools): %w", len(imgs), err)
	}
	if st.Set != nil && st.Set.Migrating() {
		return "", fmt.Errorf("still migrating after open")
	}
	for i, m := range st.Pools {
		if err := fsckClean(m.Heap); err != nil {
			return "", fmt.Errorf("pool %d: %w", i, err)
		}
	}
	var obs strings.Builder
	if err := sc.check(st, &obs); err != nil {
		return "", err
	}
	for i, m := range st.Pools {
		if err := mapsWhole(m.Heap); err != nil {
			return "", fmt.Errorf("pool %d: %w", i, err)
		}
	}
	return obs.String(), nil
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

// durableMembers reads the durable pool roster off the pool-0 image (on
// a scratch clone, so the real open starts from a pristine image).
func (e entry) durableMembers(imgs []*nvm.Pool) (int, error) {
	probe, err := e.open([]*nvm.Pool{clonePool(imgs[0])}, 1, true)
	if err != nil {
		return 0, fmt.Errorf("pool 0 reopen: %w", err)
	}
	_, _, targetN, _, _, err := shard.ReadTopology(probe.Pools[0].Heap)
	if err != nil {
		return 0, err
	}
	if targetN < 2 || targetN > len(imgs) {
		return 0, fmt.Errorf("epoch table names %d pools", targetN)
	}
	return targetN, nil
}

func clonePool(p *nvm.Pool) *nvm.Pool {
	c := nvm.New(int(p.Size()), nvm.Options{})
	c.WriteBytes(0, p.ReadBytes(0, p.Size()))
	return c
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

// recordReader is the read half of a grid or a backend.
type recordReader func(key string, consume func(name string, value []byte)) (bool, error)

// gridReader adapts a grid, whose Read reports absence as ErrNotFound.
func gridReader(g *store.Grid) recordReader {
	return func(key string, consume func(name string, value []byte)) (bool, error) {
		err := g.Read(key, consume)
		if err == store.ErrNotFound {
			return false, nil
		}
		return err == nil, err
	}
}

// field reads one field of the record under key, copied out of NVMM.
// found is false when the key is absent; a present record without the
// field is an error.
func (read recordReader) field(key, name string) (val []byte, found bool, err error) {
	has := false
	found, err = read(key, func(n string, v []byte) {
		if n == name {
			val = append([]byte(nil), v...)
			has = true
		}
	})
	if err != nil {
		return nil, false, err
	}
	if found && !has {
		return nil, false, fmt.Errorf("record %s has no field %s", key, name)
	}
	return val, found, nil
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

// counterBytes and counterValue are the stored form of an 8-byte
// little-endian counter field (store.Grid.AddDelta's operand).
func counterBytes(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }

func counterValue(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// probeInsert is the grid workloads' writability probe: the recovered
// grid must accept a new record and read it back.
func probeInsert(g *store.Grid) error {
	if err := g.Insert("probe", &store.Record{Fields: []store.Field{{Name: "v", Value: []byte("ok")}}}); err != nil {
		return fmt.Errorf("post-recovery insert: %w", err)
	}
	if v, _, err := gridReader(g).field("probe", "v"); err != nil || string(v) != "ok" {
		return fmt.Errorf("post-recovery readback: %q, %v", v, err)
	}
	return nil
}

// ---- bank: J-PFA failure-atomic transfers (§5.3.3) ----

// bankWorkload checks strict all-or-nothing atomicity: after a crash at
// any point, every balance vector must equal the committed oracle with
// the in-flight transfer either fully applied or fully absent, the total
// must be conserved, and the recovered bank must accept new transfers.
func bankEntry() entry {
	const accounts = 8
	const transfers = 12
	type xfer struct {
		from, to int
		amount   int64
	}
	return entry{name: "bank", poolBytes: 1 << 22, cfg: tpcb.StackConfig(false), auditSlots: true, new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		committed := make([]int64, accounts)
		var inflight *xfer
		var bank *tpcb.JNVMBank
		return &scenario{
			setup: func(st *stack.Stack) (err error) {
				bank, err = tpcb.NewJNVMBank(st, accounts)
				return err
			},
			exec: func([]*nvm.Pool) error {
				for i := 0; i < transfers; i++ {
					from := rng.Intn(accounts)
					to := (from + 1 + rng.Intn(accounts-1)) % accounts
					amt := int64(1 + rng.Intn(100))
					inflight = &xfer{from: from, to: to, amount: amt}
					if err := bank.Transfer(from, to, amt); err != nil {
						return err
					}
					committed[from] -= amt
					committed[to] += amt
					inflight = nil
				}
				return nil
			},
			check: func(st *stack.Stack, _ *strings.Builder) error {
				b, err := tpcb.NewJNVMBank(st, accounts)
				if err != nil {
					return fmt.Errorf("reattach: %w", err)
				}
				readAll := func() ([]int64, int64, error) {
					got := make([]int64, accounts)
					var sum int64
					for i := range got {
						v, err := b.Balance(i)
						if err != nil {
							return nil, 0, fmt.Errorf("balance %d: %w", i, err)
						}
						got[i] = v
						sum += v
					}
					return got, sum, nil
				}
				got, sum, err := readAll()
				if err != nil {
					return err
				}
				if sum != 0 {
					return fmt.Errorf("money not conserved: balance sum %d (balances %v)", sum, got)
				}
				equal := func(want []int64) bool {
					for i := range want {
						if got[i] != want[i] {
							return false
						}
					}
					return true
				}
				ok := equal(committed)
				if !ok && inflight != nil {
					post := append([]int64(nil), committed...)
					post[inflight.from] -= inflight.amount
					post[inflight.to] += inflight.amount
					ok = equal(post)
				}
				if !ok {
					return fmt.Errorf("torn transfer: balances %v match neither committed %v nor committed+inflight %+v",
						got, committed, inflight)
				}
				// Writability probe: the recovered bank must keep working.
				if err := b.Transfer(0, 1, 7); err != nil {
					return fmt.Errorf("post-recovery transfer: %w", err)
				}
				if _, sum, err = readAll(); err != nil {
					return err
				} else if sum != 0 {
					return fmt.Errorf("money not conserved after post-recovery transfer: sum %d", sum)
				}
				return nil
			},
		}
	}}
}

// ---- grid: store-level put/update/delete/RMW over the J-PFA backend ----

// gridOp is the in-flight descriptor: the touched key may be observed in
// its pre- or post-op state, every other key must match the model.
type gridOp struct {
	key       string
	pre, post []byte // nil = absent
}

func gridEntry() entry {
	const nkeys = 10
	const ops = 30
	keys := keyNames("k%02d", nkeys)
	return entry{name: "grid", poolBytes: 1 << 21, cfg: stackCfg(stack.JPFA), auditSlots: true, new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		model := make(map[string][]byte) // committed value per key; nil/missing = absent
		var inflight *gridOp
		var g *store.Grid
		mkval := func(i int) []byte {
			return letters(i, 8+rng.Intn(72)) // up to two cache lines of payload
		}
		return &scenario{
			setup: func(st *stack.Stack) error {
				g = store.NewGrid(st.Backend, store.Options{CacheEntries: 4})
				return nil
			},
			exec: func([]*nvm.Pool) error {
				for i := 0; i < ops; i++ {
					key := keys[rng.Intn(nkeys)]
					pre := model[key]
					var post []byte
					var err error
					switch {
					case pre == nil:
						post = mkval(i)
						inflight = &gridOp{key: key, pre: pre, post: post}
						err = g.Insert(key, &store.Record{Fields: []store.Field{{Name: "v", Value: post}}})
					case rng.Intn(3) == 0:
						inflight = &gridOp{key: key, pre: pre, post: nil}
						err = g.Delete(key)
					case rng.Intn(2) == 0:
						post = mkval(i)
						inflight = &gridOp{key: key, pre: pre, post: post}
						err = g.Update(key, []store.Field{{Name: "v", Value: post}})
					default:
						post = mkval(i)
						inflight = &gridOp{key: key, pre: pre, post: post}
						err = g.ReadModifyWrite(key, func(rec *store.Record) []store.Field {
							return []store.Field{{Name: "v", Value: post}}
						})
					}
					if err != nil {
						return fmt.Errorf("op %d on %s: %w", i, key, err)
					}
					if post == nil {
						delete(model, key)
					} else {
						model[key] = post
					}
					inflight = nil
				}
				return nil
			},
			check: func(st *stack.Stack, _ *strings.Builder) error {
				g := store.NewGrid(st.Backend, store.Options{})
				for _, key := range keys {
					got, _, err := gridReader(g).field(key, "v")
					if err != nil {
						return fmt.Errorf("read %s: %w", key, err)
					}
					want := model[key]
					if bytes.Equal(got, want) && (got == nil) == (want == nil) {
						continue
					}
					if inflight != nil && inflight.key == key {
						if bytes.Equal(got, inflight.pre) && (got == nil) == (inflight.pre == nil) {
							continue
						}
						if bytes.Equal(got, inflight.post) && (got == nil) == (inflight.post == nil) {
							continue
						}
						return fmt.Errorf("torn op on %s: got %q, want pre %q or post %q",
							key, got, inflight.pre, inflight.post)
					}
					return fmt.Errorf("key %s: got %q, want %q", key, got, want)
				}
				return probeInsert(g)
			},
		}
	}}
}

// ---- gridgroup: async group commit over the J-PFA backend ----

// gridGroupWorkload crashes the epoch pipeline of DESIGN.md §15: updates
// run in CommitAsync mode with manual drains, so each epoch batches
// several commits behind one fence set. The oracle proves the prefix
// property — a crash recovers every fully-drained epoch (the caller was
// told so by AwaitDurable/DrainDurable returning) and, for the in-flight
// epoch, an all-or-nothing subset per key: each key reads either its last
// durable value or its queued update, never a torn mix and never a value
// from a later epoch while an earlier one is missing (epochs touch every
// key round-robin, so a skipped epoch would surface as a stale durable
// read after a collapse). Two single-update epochs on one hot key close
// the run: the first is parked — applied, live, W not over it yet — while
// the second's marks are written, so both logs write the key's record
// block and a crash in between must replay them oldest first.
func gridGroupEntry() entry {
	const nkeys = 8
	const epochs = 5
	const hotEpochs = 2
	const opsPerEpoch = 3 // < nkeys: round-robin keeps keys distinct per epoch
	keys := keyNames("g%02d", nkeys)
	return entry{name: "gridgroup", poolBytes: 1 << 21, cfg: stackCfg(stack.JPFA), auditSlots: true, new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		durable := make(map[string][]byte) // value proven durable by a returned drain
		pending := make(map[string][]byte) // queued in the in-flight epoch, nil = none
		var g *store.Grid
		var mgr *fa.Manager
		mkval := func(i int) []byte {
			return letters(i, 8+rng.Intn(16))
		}
		return &scenario{
			setup: func(st *stack.Stack) error {
				mgr = st.Pools[0].Mgr
				g = store.NewGrid(st.Backend, store.Options{CacheEntries: 4})
				// Seed every key in the default per-Tx mode, then switch to
				// the async pipeline for the explored phase.
				for i, key := range keys {
					v := mkval(i)
					if err := g.Insert(key, &store.Record{Fields: []store.Field{{Name: "v", Value: v}}}); err != nil {
						return err
					}
					durable[key] = v
				}
				return mgr.SetGroupCommit(fa.GroupOptions{Mode: fa.CommitAsync, ManualDrain: true})
			},
			exec: func([]*nvm.Pool) error {
				for e := 0; e < epochs+hotEpochs; e++ {
					batch := make([]string, 0, opsPerEpoch)
					for j := 0; j < opsPerEpoch; j++ {
						key := keys[(e*opsPerEpoch+j)%nkeys]
						if e >= epochs {
							if j > 0 {
								break
							}
							key = keys[0]
						}
						v := mkval(e*opsPerEpoch + j + 100)
						pending[key] = v
						if err := g.Update(key, []store.Field{{Name: "v", Value: v}}); err != nil {
							return fmt.Errorf("epoch %d update %s: %w", e, key, err)
						}
						batch = append(batch, key)
					}
					// Alternate the two drain APIs; both promise durability
					// of every ticket issued so far when they return.
					if e%2 == 0 {
						mgr.AwaitDurable(mgr.IssuedTickets())
					} else {
						mgr.DrainDurable()
					}
					for _, key := range batch {
						durable[key] = pending[key]
						delete(pending, key)
					}
				}
				return nil
			},
			check: func(st *stack.Stack, _ *strings.Builder) error {
				g2 := store.NewGrid(st.Backend, store.Options{})
				for _, key := range keys {
					val, found, err := gridReader(g2).field(key, "v")
					if err == nil && !found {
						err = store.ErrNotFound
					}
					if err != nil {
						return fmt.Errorf("read %s: %w", key, err)
					}
					if bytes.Equal(val, durable[key]) {
						continue
					}
					if p, ok := pending[key]; ok && bytes.Equal(val, p) {
						continue
					}
					return fmt.Errorf("key %s: recovered %q is neither the durable %q nor the queued %q",
						key, val, durable[key], pending[key])
				}
				// Writability probe: the recovered heap commits per-Tx again.
				return probeInsert(g2)
			},
		}
	}}
}

// ---- griddelta: delta-ledger folding under the async pipeline ----

// gridDeltaWorkload crashes the delta coalescing of DESIGN.md §19:
// counter increments ride the manager's fold ledger (volatile until a
// drain materializes one redo-log entry per hot key) while updates on the
// same keys queue as ordinary async commits, forcing the drain-on-overlap
// interactions. The oracle tracks, per key, the in-flight folded value
// (base+sum: a fold materializes atomically, so a partial sum must never
// surface) plus the set of values any internal drain may have made
// durable; each returned drain collapses the set to exactly the current
// value — a lost or double-applied folded delta fails there. Two epochs
// of nothing but folds on one hot key close the run: each is a pure delta
// epoch (a materialization and no queued commit), and the first is parked
// while the second's fold is based on the block it applied to. The entry
// compares recoveries: a folded entry is one ordinary redo-log write, so
// the serial and the parallel path must land on the same image.
func gridDeltaEntry() entry {
	const nkeys = 6
	const epochs = 4
	const opsPerEpoch = 6
	keys := keyNames("c%02d", nkeys)
	e := entry{name: "griddelta", poolBytes: 1 << 21, cfg: stackCfg(stack.JPFA)}
	// A live log slot with a zero entry count means a commit mark outran
	// its stage-1 persist — the signature of a delta materialization whose
	// fold would silently drop at replay (fa.epochStage1's regression).
	e.compare, e.auditSlots = true, true
	e.new = func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		base := make([]int64, nkeys) // value with every drained write applied
		sum := make([]int64, nkeys)  // in-flight folded delta on top of base
		durable := make([]map[int64]bool, nkeys)
		recPending := make([]bool, nkeys) // a queued (non-ledger) tx touched the key
		for i := range durable {
			durable[i] = map[int64]bool{}
		}
		// boundary models a drain the pipeline ran internally (an overlap
		// forced it): everything in flight may now be durable.
		// Misfires are safe — the check always accepts base+sum — but a
		// fired boundary records the states a crash mid-exec may surface.
		boundary := func() {
			for j := range keys {
				base[j] += sum[j]
				sum[j] = 0
				durable[j][base[j]] = true
				recPending[j] = false
			}
		}
		var g *store.Grid
		var mgr *fa.Manager
		// drain ends an epoch, alternating the two APIs; both promise
		// every issued ticket (folds included) durable on return.
		drain := func(e int) {
			if e%2 == 0 {
				mgr.AwaitDurable(mgr.IssuedTickets())
			} else {
				mgr.DrainDurable()
			}
			for j := range keys {
				base[j] += sum[j]
				sum[j] = 0
				recPending[j] = false
				durable[j] = map[int64]bool{base[j]: true}
			}
		}
		return &scenario{
			setup: func(st *stack.Stack) error {
				mgr = st.Pools[0].Mgr
				g = store.NewGrid(st.Backend, store.Options{CacheEntries: 4})
				// Seed per-Tx: insert each counter and bump it once through
				// the transactional path; the counter is the value word of
				// its field, so the async phase folds in the ledger from
				// its first op.
				for i, key := range keys {
					v := int64(100 * (i + 1))
					if err := g.Insert(key, &store.Record{Fields: []store.Field{{Name: "n", Value: counterBytes(v)}}}); err != nil {
						return err
					}
					if err := g.AddDelta(key, "n", 1); err != nil {
						return err
					}
					base[i] = v + 1
					durable[i][base[i]] = true
				}
				return mgr.SetGroupCommit(fa.GroupOptions{Mode: fa.CommitAsync, ManualDrain: true})
			},
			exec: func([]*nvm.Pool) error {
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
							if recPending[k] {
								boundary()
							}
							if err := g.AddDelta(keys[k], "n", d); err != nil {
								return fmt.Errorf("epoch %d delta %s: %w", e, keys[k], err)
							}
							sum[k] += d
						} else {
							// Plain update: overwrites the counter's word through
							// the redo log; a pending fold or queued tx on the
							// key drains first (the backend settles the record).
							if sum[k] != 0 || recPending[k] {
								boundary()
							}
							x := int64(1000*(e+1) + i)
							if err := g.Update(keys[k], []store.Field{{Name: "n", Value: counterBytes(x)}}); err != nil {
								return fmt.Errorf("epoch %d update %s: %w", e, keys[k], err)
							}
							base[k] = x
							sum[k] = 0
							recPending[k] = true
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
						sum[0] += d
					}
					drain(e)
				}
				return nil
			},
			check: func(st *stack.Stack, obs *strings.Builder) error {
				g2 := store.NewGrid(st.Backend, store.Options{})
				read := func(key string) (int64, error) {
					raw, found, err := gridReader(g2).field(key, "n")
					if err == nil && !found {
						err = store.ErrNotFound
					}
					if err != nil {
						return 0, err
					}
					if len(raw) != 8 {
						return 0, fmt.Errorf("counter is %d bytes (torn?)", len(raw))
					}
					return counterValue(raw), nil
				}
				for j, key := range keys {
					got, err := read(key)
					if err != nil {
						return fmt.Errorf("read %s: %w", key, err)
					}
					fmt.Fprintf(obs, "%s=%d;", key, got)
					if got == base[j]+sum[j] || durable[j][got] {
						continue
					}
					return fmt.Errorf("key %s: recovered %d is neither in-flight %d nor any drained state %v",
						key, got, base[j]+sum[j], int64Keys(durable[j]))
				}
				// Writability probe: the recovered grid folds per-Tx again.
				if err := g2.AddDelta(keys[0], "n", 5); err != nil {
					return fmt.Errorf("post-recovery delta: %w", err)
				}
				before, err := read(keys[0])
				if err != nil {
					return err
				}
				if err := g2.AddDelta(keys[0], "n", -2); err != nil {
					return fmt.Errorf("post-recovery second delta: %w", err)
				}
				if after, err := read(keys[0]); err != nil || after != before-2 {
					return fmt.Errorf("post-recovery fold lost: %d -> %d, %v", before, after, err)
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
// flight; an async phase with manual drains queues them behind one
// another. The oracle keeps, per key, every state the record went
// through since the last point the pipeline was known durable: the
// recovered record must equal one of them field for field — each
// operation all-or-nothing, nothing acknowledged by a returned drain
// lost — and the harness's fsck holds every stored id against the
// dictionary at every point.
func gridInlineEntry() entry {
	const nkeys = 4
	const txOps = 14
	const epochs = 3
	const opsPerEpoch = 4
	keys := keyNames("r%02d", nkeys)
	type state map[string]string // field -> value; nil = absent
	same := func(a, b state) bool {
		if (a == nil) != (b == nil) || len(a) != len(b) {
			return false
		}
		for f, v := range a {
			if w, ok := b[f]; !ok || w != v {
				return false
			}
		}
		return true
	}
	counter := func(v int64) string { return string(counterBytes(v)) }
	e := entry{name: "gridinline", poolBytes: 1 << 21, cfg: stackCfg(stack.JPFA), compare: true, auditSlots: true}
	e.new = func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		// hist[k] lists key k's legal states, oldest first; the last one
		// is the model's current state.
		hist := make([][]state, nkeys)
		cur := func(k int) state { return hist[k][len(hist[k])-1] }
		names := 0 // field names minted so far
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
		// step runs one random operation on key k and appends the state
		// it leads to.
		step := func(i, k int) error {
			key, pre := keys[k], cur(k)
			post := state{}
			for f, v := range pre {
				post[f] = v
			}
			var err error
			switch r := rng.Intn(10); {
			case pre == nil:
				// A new record under a field name nobody used before.
				names++
				fresh := fmt.Sprintf("f%02d", names)
				post = state{"n": counter(int64(100 * (k + 1))), "v": value(i, ""), fresh: "x"}
				hist[k] = append(hist[k], post)
				err = g.Insert(key, &store.Record{Fields: []store.Field{
					{Name: "n", Value: []byte(post["n"])},
					{Name: "v", Value: []byte(post["v"])},
					{Name: fresh, Value: []byte("x")},
				}})
			case r == 0:
				hist[k] = append(hist[k], nil)
				err = g.Delete(key)
			case r < 5:
				d := int64(1 + rng.Intn(9))
				post["n"] = counter(counterValue([]byte(pre["n"])) + d)
				hist[k] = append(hist[k], post)
				err = g.AddDelta(key, "n", d)
			default:
				post["v"] = value(i, pre["v"])
				hist[k] = append(hist[k], post)
				err = g.Update(key, []store.Field{{Name: "v", Value: []byte(post["v"])}})
			}
			if err != nil {
				return fmt.Errorf("op %d on %s: %w", i, key, err)
			}
			return nil
		}
		settled := func() {
			for k := range hist {
				hist[k] = hist[k][len(hist[k])-1:]
			}
		}
		return &scenario{
			setup: func(st *stack.Stack) error {
				mgr = st.Pools[0].Mgr
				g = store.NewGrid(st.Backend, store.Options{CacheEntries: 4})
				for k := range hist {
					hist[k] = []state{nil}
				}
				return nil
			},
			exec: func([]*nvm.Pool) error {
				for i := 0; i < txOps; i++ {
					if err := step(i, rng.Intn(nkeys)); err != nil {
						return err
					}
					settled() // per-Tx: durable on return
				}
				if err := mgr.SetGroupCommit(fa.GroupOptions{Mode: fa.CommitAsync, ManualDrain: true}); err != nil {
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
					if e%2 == 0 {
						mgr.AwaitDurable(mgr.IssuedTickets())
					} else {
						mgr.DrainDurable()
					}
					settled()
				}
				return nil
			},
			check: func(st *stack.Stack, obs *strings.Builder) error {
				g2 := store.NewGrid(st.Backend, store.Options{})
				for k, key := range keys {
					got := state{}
					found, err := gridReader(g2)(key, func(name string, value []byte) {
						got[strings.Clone(name)] = string(value)
					})
					if err != nil {
						return fmt.Errorf("read %s: %w", key, err)
					}
					if !found {
						got = nil
					}
					fmt.Fprintf(obs, "%s=%d;", key, len(got))
					legal := false
					for _, s := range hist[k] {
						legal = legal || same(got, s)
					}
					if !legal {
						return fmt.Errorf("key %s: recovered %q is none of the %d states it went through since it was last durable (current %q)",
							key, got, len(hist[k]), cur(k))
					}
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
				if v, _, err := gridReader(g2).field("probe", "n"); err != nil || string(v) != counter(12) {
					return fmt.Errorf("post-recovery counter: %q, %v", v, err)
				}
				if v, _, err := gridReader(g2).field("probe", "probe-name"); err != nil || string(v) != "ok" {
					return fmt.Errorf("post-recovery readback: %q, %v", v, err)
				}
				return nil
			},
		}
	}
	return e
}

// ---- gridread: J-PDT backend, zero-copy reads, EBR deferral ----

// gridReadEntry crashes the store's fastest path: the J-PDT backend
// behind a cache-less grid, which adopts the seqlock zero-copy reader and
// enables epoch-based reclamation on the heap. Writes follow the
// non-transactional §4.1.6 discipline (validate+fence before the swing,
// fence before the free), so the per-key oracle is a *set* of legal
// states: every value written since the op whose internal fence last made
// the world durable, plus the fenced state. Reads interleave with the
// writes so crash points land while retired-but-unreclaimed blocks exist,
// and every Check recovers the image and re-reads through a fresh
// zero-copy grid.
func gridReadEntry() entry {
	const nkeys = 8
	const ops = 36
	keys := keyNames("r%02d", nkeys)
	return entry{name: "gridread", poolBytes: 1 << 21, cfg: stackCfg(stack.JPDT), new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		model := make(map[string][]byte)         // committed value per key; missing = absent
		poss := make(map[string]map[string]bool) // legal recovered states per key
		for _, k := range keys {
			poss[k] = map[string]bool{absentState: true}
		}
		// collapse records that a global fence just made the committed
		// model durable for every key.
		collapse := func() {
			for _, k := range keys {
				if v, ok := model[k]; ok {
					poss[k] = map[string]bool{string(v): true}
				} else {
					poss[k] = map[string]bool{absentState: true}
				}
			}
		}
		var g *store.Grid
		mkval := func(i int) []byte {
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
			return letters(i, n)
		}
		read := func(gr *store.Grid, key string) ([]byte, error) {
			val, _, err := gridReader(gr).field(key, "v")
			return val, err
		}
		return &scenario{
			setup: func(st *stack.Stack) error {
				// No record cache, so the grid adopts the zero-copy read
				// path and turns on EBR.
				g = store.NewGrid(st.Backend, store.Options{})
				return nil
			},
			exec: func([]*nvm.Pool) error {
				for i := 0; i < ops; i++ {
					key := keys[rng.Intn(nkeys)]
					switch rng.Intn(6) {
					case 0, 1, 2: // write: insert when absent, update otherwise
						v := mkval(i)
						if model[key] == nil {
							// Map.Put fences mid-op, *before* publication:
							// the binding rides unfenced, and crash points
							// earlier in the op still see the pre-fence
							// world, so nothing collapses here.
							poss[key][string(v)] = true
							if err := g.Insert(key, &store.Record{Fields: []store.Field{{Name: "v", Value: v}}}); err != nil {
								return fmt.Errorf("op %d insert %s: %w", i, key, err)
							}
							model[key] = v
						} else {
							poss[key][string(v)] = true
							if err := g.Update(key, []store.Field{{Name: "v", Value: v}}); err != nil {
								return fmt.Errorf("op %d update %s: %w", i, key, err)
							}
							// AtomicReplaceRef fenced the swing before
							// freeing the old value: everything committed
							// is now durable.
							model[key] = v
							collapse()
						}
					case 3: // delete when present (Remove fences the unlink)
						if model[key] == nil {
							continue
						}
						poss[key][absentState] = true
						if err := g.Delete(key); err != nil {
							return fmt.Errorf("op %d delete %s: %w", i, key, err)
						}
						delete(model, key)
						collapse()
					default: // read through the zero-copy path, checked live
						got, err := read(g, key)
						if err != nil {
							return fmt.Errorf("op %d read %s: %w", i, key, err)
						}
						if !bytes.Equal(got, model[key]) || (got == nil) != (model[key] == nil) {
							return fmt.Errorf("op %d read %s: got %q, model %q", i, key, got, model[key])
						}
					}
				}
				return nil
			},
			check: func(st *stack.Stack, _ *strings.Builder) error {
				// The recovered grid adopts zero-copy again, so every
				// crash image is re-read through the view path.
				g2 := store.NewGrid(st.Backend, store.Options{})
				for _, key := range keys {
					got, err := read(g2, key)
					if err != nil {
						return fmt.Errorf("read %s: %w", key, err)
					}
					state := absentState
					if got != nil {
						state = string(got)
					}
					if !poss[key][state] {
						return fmt.Errorf("key %s: recovered %q not in %d legal states", key, state, len(poss[key]))
					}
				}
				// Writability probe: the recovered heap must accept the
				// full op mix through the same path.
				if err := g2.Insert("probe", &store.Record{Fields: []store.Field{{Name: "v", Value: []byte("ok")}}}); err != nil {
					return fmt.Errorf("post-recovery insert: %w", err)
				}
				if err := g2.Update("probe", []store.Field{{Name: "v", Value: []byte("ok2")}}); err != nil {
					return fmt.Errorf("post-recovery update: %w", err)
				}
				if v, err := read(g2, "probe"); err != nil || string(v) != "ok2" {
					return fmt.Errorf("post-recovery readback: %q, %v", v, err)
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
// point must leave the map exactly at the committed model with at most
// the in-flight op applied — with no leaked or dangling blocks (fsck).
func poolEntry() entry {
	const nkeys = 10
	const ops = 24
	keys := keyNames("p%02d", nkeys)
	type poolVal struct {
		isStr bool
		data  []byte
	}
	type poolOp struct {
		key       string
		pre, post *poolVal
	}
	return entry{name: "pool", poolBytes: 1 << 21, cfg: stackCfg(""), auditSlots: true, new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		model := make(map[string]*poolVal)
		var inflight *poolOp
		var h *core.Heap
		var mgr *fa.Manager
		var m *pdt.Map
		mkval := func(i int) *poolVal {
			if rng.Intn(2) == 0 {
				n := 4 + rng.Intn(32) // pooled small string
				b := make([]byte, n)
				for j := range b {
					b[j] = byte('A' + (i+j)%26)
				}
				return &poolVal{isStr: true, data: b}
			}
			n := 260 + rng.Intn(400) // spans 2-3 heap blocks
			b := make([]byte, n)
			for j := range b {
				b[j] = byte(i + j)
			}
			return &poolVal{data: b}
		}
		readVal := func(po core.PObject) (*poolVal, error) {
			switch v := po.(type) {
			case *pdt.PString:
				return &poolVal{isStr: true, data: []byte(v.Value())}, nil
			case *pdt.PBytes:
				return &poolVal{data: v.Value()}, nil
			case nil:
				return nil, nil
			default:
				return nil, fmt.Errorf("unexpected value type %T", po)
			}
		}
		sameVal := func(a, b *poolVal) bool {
			if a == nil || b == nil {
				return a == b
			}
			return a.isStr == b.isStr && bytes.Equal(a.data, b.data)
		}
		putTx := func(mp *pdt.Map, mg *fa.Manager, key string, v *poolVal) error {
			return mg.Run(func(tx *fa.Tx) error {
				var po core.PObject
				var err error
				if v.isStr {
					po, err = pdt.NewStringTx(tx, string(v.data))
				} else {
					po, err = pdt.NewBytesTx(tx, v.data)
				}
				if err != nil {
					return err
				}
				return mp.PutTx(tx, key, po)
			})
		}
		return &scenario{
			setup: func(st *stack.Stack) (err error) {
				h, mgr = st.Pools[0].Heap, st.Pools[0].Mgr
				m, err = pdt.NewMap(h, pdt.MirrorHash)
				if err != nil {
					return err
				}
				return h.Root().Put("pool.map", m)
			},
			exec: func([]*nvm.Pool) error {
				for i := 0; i < ops; i++ {
					key := keys[rng.Intn(nkeys)]
					pre := model[key]
					if pre == nil || rng.Intn(3) != 0 {
						post := mkval(i)
						inflight = &poolOp{key: key, pre: pre, post: post}
						if err := putTx(m, mgr, key, post); err != nil {
							return fmt.Errorf("put %s: %w", key, err)
						}
						model[key] = post
					} else {
						inflight = &poolOp{key: key, pre: pre, post: nil}
						if err := mgr.Run(func(tx *fa.Tx) error {
							_, err := m.DeleteTx(tx, key)
							return err
						}); err != nil {
							return fmt.Errorf("delete %s: %w", key, err)
						}
						delete(model, key)
					}
					inflight = nil
				}
				return nil
			},
			check: func(st *stack.Stack, _ *strings.Builder) error {
				h2 := st.Pools[0].Heap
				m2, err := rootAs[*pdt.Map](h2, "pool.map")
				if err != nil {
					return err
				}
				for _, key := range keys {
					vpo, err := m2.Get(key)
					if err != nil {
						return fmt.Errorf("get %s: %w", key, err)
					}
					got, err := readVal(vpo)
					if err != nil {
						return fmt.Errorf("value of %s: %w", key, err)
					}
					if sameVal(got, model[key]) {
						continue
					}
					if inflight != nil && inflight.key == key &&
						(sameVal(got, inflight.pre) || sameVal(got, inflight.post)) {
						continue
					}
					return fmt.Errorf("key %s: recovered value does not match committed model (inflight %v)",
						key, inflight != nil)
				}
				// No phantom bindings beyond the working key set.
				for _, k := range m2.Keys() {
					if !strings.HasPrefix(k, "p") {
						return fmt.Errorf("phantom key %q in recovered map", k)
					}
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

const absentState = "\x00absent"

// pdtEntry checks the single-fence publication rules (§3.2.3) without
// failure-atomic blocks. Individual ops are not atomic across a crash,
// so the oracle tracks the *set* of states each key/cell may legally
// hold: every value written since the last full fence plus the fenced
// state, never anything torn, half-initialized, or from another key.
func pdtEntry() entry {
	const nkeys = 8
	const cells = 8
	const ops = 36
	keys := keyNames("d%02d", nkeys)
	return entry{name: "pdt", poolBytes: 1 << 21, cfg: stackCfg(""), new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		// possible[k] is the set of states key k may recover to.
		mapPoss := make(map[string]map[string]bool)
		setPoss := make(map[string]map[string]bool)
		arrPoss := make([]map[int64]bool, cells)
		mapCur := make(map[string]string)
		setCur := make(map[string]bool)
		arrCur := make([]int64, cells)
		for _, k := range keys {
			mapPoss[k] = map[string]bool{absentState: true}
			setPoss[k] = map[string]bool{absentState: true}
		}
		for i := range arrPoss {
			arrPoss[i] = map[int64]bool{0: true}
		}
		var h *core.Heap
		var m *pdt.Map
		var s *pdt.Set
		var arr *pdt.PLongArray
		collapse := func() {
			for _, k := range keys {
				if v, ok := mapCur[k]; ok {
					mapPoss[k] = map[string]bool{v: true}
				} else {
					mapPoss[k] = map[string]bool{absentState: true}
				}
				if setCur[k] {
					setPoss[k] = map[string]bool{"present": true}
				} else {
					setPoss[k] = map[string]bool{absentState: true}
				}
			}
			for i := range arrPoss {
				arrPoss[i] = map[int64]bool{arrCur[i]: true}
			}
		}
		return &scenario{
			setup: func(st *stack.Stack) (err error) {
				h = st.Pools[0].Heap
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
				return h.Root().Put("pdt.arr", arr)
			},
			exec: func([]*nvm.Pool) error {
				for i := 0; i < ops; i++ {
					switch rng.Intn(7) {
					case 0, 1: // map put
						k := keys[rng.Intn(nkeys)]
						v := fmt.Sprintf("m%03d", i)
						mapPoss[k][v] = true
						ps, err := pdt.NewString(h, v)
						if err != nil {
							return err
						}
						if err := m.Put(k, ps); err != nil {
							return fmt.Errorf("map put %s: %w", k, err)
						}
						mapCur[k] = v
					case 2: // map delete
						k := keys[rng.Intn(nkeys)]
						mapPoss[k][absentState] = true
						m.Delete(k)
						delete(mapCur, k)
					case 3: // set add
						k := keys[rng.Intn(nkeys)]
						setPoss[k]["present"] = true
						if err := s.Add(k); err != nil {
							return fmt.Errorf("set add %s: %w", k, err)
						}
						setCur[k] = true
					case 4: // set delete
						k := keys[rng.Intn(nkeys)]
						setPoss[k][absentState] = true
						s.Delete(k)
						delete(setCur, k)
					case 5: // array store + per-element flush + fence
						i2 := rng.Intn(cells)
						v := int64(rng.Intn(1 << 30))
						arrPoss[i2][v] = true
						arr.Set(i2, v)
						arr.FlushElem(i2)
						h.PFence()
						arrCur[i2] = v
						// The fence made exactly this cell durable.
						arrPoss[i2] = map[int64]bool{v: true}
					case 6: // checkpoint: everything becomes durable
						h.PSync()
						collapse()
					}
				}
				return nil
			},
			check: func(st *stack.Stack, _ *strings.Builder) error {
				h2 := st.Pools[0].Heap
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
				for _, k := range keys {
					vpo, err := m2.Get(k)
					if err != nil {
						return fmt.Errorf("map get %s: %w", k, err)
					}
					state := absentState
					if vpo != nil {
						ps, ok := vpo.(*pdt.PString)
						if !ok {
							return fmt.Errorf("map %s: half-initialized value %T", k, vpo)
						}
						state = ps.Value()
					}
					if !mapPoss[k][state] {
						return fmt.Errorf("map %s: recovered %q not in legal states %v", k, state, stateNames(mapPoss[k]))
					}
					sstate := absentState
					if s2.Contains(k) {
						sstate = "present"
					}
					if !setPoss[k][sstate] {
						return fmt.Errorf("set %s: recovered %q not in legal states %v", k, sstate, stateNames(setPoss[k]))
					}
				}
				for _, k := range m2.Keys() {
					if !strings.HasPrefix(k, "d") {
						return fmt.Errorf("phantom map key %q", k)
					}
				}
				for i := 0; i < cells; i++ {
					if v := arr2.Get(i); !arrPoss[i][v] {
						return fmt.Errorf("array[%d]: recovered %d not in legal states %v (word tear?)", i, v, int64Keys(arrPoss[i]))
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

// ---- pdtlockfree: lock-free map/set persist-at-destination writes ----

// pdtLockFreeEntry crashes the SOFT-style lock-free structures of
// DESIGN.md §16: every structural write persists only its destination
// cell (one pwb + one fence), validity brackets gate recovery, and the
// links are volatile (rebuilt by OnResurrect). Individual ops are not
// atomic across a crash and their durability rides later fences, so the
// oracle is a possible-state set per key: every value bound since the
// last full checkpoint plus the checkpointed state. The key mix includes
// indirect keys (> 36 bytes, spilled to a key blob) so crash points land
// inside the two-object publication. Every check recovers through the
// standard path and fscks both the heap and the map's own
// bracket-vs-reachability invariant; the entry compares recoveries, so
// parallel checks replay the identical image through the serial §4.1.3
// oracle too and demand observationally identical maps (the cross-check
// of the §16 fixed-index-merge argument — at this scale the parallel
// path degrades to serial below lfRebuildParallelMin, so divergence here
// would mean the dispatch itself is unsound).
func pdtLockFreeEntry() entry {
	const ops = 34
	keys := []string{
		"l00", "l01", "l02", "l03", "l04", "l05",
		// Indirect keys: longer than the 36-byte inline bound.
		"l-indirect-" + strings.Repeat("x", 40),
		"l-indirect-" + strings.Repeat("y", 40),
	}
	return entry{name: "pdtlockfree", poolBytes: 1 << 21, cfg: stackCfg(""), compare: true, new: func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		mapPoss := make(map[string]map[string]bool)
		setPoss := make(map[string]map[string]bool)
		mapCur := make(map[string]string)
		setCur := make(map[string]bool)
		for _, k := range keys {
			mapPoss[k] = map[string]bool{absentState: true}
			setPoss[k] = map[string]bool{absentState: true}
		}
		var h *core.Heap
		var m *pdt.LFMap
		var s *pdt.LFSet
		collapse := func() {
			for _, k := range keys {
				if v, ok := mapCur[k]; ok {
					mapPoss[k] = map[string]bool{v: true}
				} else {
					mapPoss[k] = map[string]bool{absentState: true}
				}
				if setCur[k] {
					setPoss[k] = map[string]bool{"present": true}
				} else {
					setPoss[k] = map[string]bool{absentState: true}
				}
			}
		}
		return &scenario{
			setup: func(st *stack.Stack) (err error) {
				h = st.Pools[0].Heap
				if m, err = pdt.NewLFMap(h, 16); err != nil {
					return err
				}
				if err = h.Root().Put("lf.map", m); err != nil {
					return err
				}
				if s, err = pdt.NewLFSet(h, 16); err != nil {
					return err
				}
				return h.Root().Put("lf.set", s)
			},
			exec: func([]*nvm.Pool) error {
				for i := 0; i < ops; i++ {
					k := keys[rng.Intn(len(keys))]
					switch rng.Intn(8) {
					case 0, 1, 2: // map put (insert or CAS-update)
						v := fmt.Sprintf("v%03d", i)
						pb, err := pdt.NewBytesValid(h, []byte(v))
						if err != nil {
							return err
						}
						mapPoss[k][v] = true
						if err := m.Put(k, pb); err != nil {
							return fmt.Errorf("op %d put %s: %w", i, k, err)
						}
						mapCur[k] = v
					case 3: // map delete (claim + one pwb + volatile unlink)
						mapPoss[k][absentState] = true
						m.Delete(k)
						delete(mapCur, k)
					case 4: // set add (idempotent marker insert)
						setPoss[k]["present"] = true
						if err := s.Add(k); err != nil {
							return fmt.Errorf("op %d add %s: %w", i, k, err)
						}
						setCur[k] = true
					case 5: // set delete
						setPoss[k][absentState] = true
						s.Delete(k)
						delete(setCur, k)
					case 6: // lock-free read, checked live against the model
						var got string
						found := m.WithValue(k, func(vref core.Ref) {
							got = string(pdt.ReadBlobView(h, vref))
						})
						want, ok := mapCur[k]
						if found != ok || (found && got != want) {
							return fmt.Errorf("op %d read %s: got (%q,%v), model (%q,%v)", i, k, got, found, want, ok)
						}
					case 7: // checkpoint: everything becomes durable
						h.PSync()
						collapse()
					}
				}
				return nil
			},
			// check verifies one recovered heap against the oracle and reports
			// the map's observable state for the serial/parallel comparison:
			// sorted "key=value" bindings plus sorted members.
			check: func(st *stack.Stack, obs *strings.Builder) error {
				h2 := st.Pools[0].Heap
				m2, err := rootAs[*pdt.LFMap](h2, "lf.map")
				if err != nil {
					return err
				}
				s2, err := rootAs[*pdt.LFSet](h2, "lf.set")
				if err != nil {
					return err
				}
				if err := m2.FsckOrphans(); err != nil {
					return err
				}
				if err := s2.FsckOrphans(); err != nil {
					return err
				}
				for _, k := range keys {
					vpo, err := m2.Get(k)
					if err != nil {
						return fmt.Errorf("map get %s: %w", k, err)
					}
					state := absentState
					if vpo != nil {
						pb, ok := vpo.(*pdt.PBytes)
						if !ok {
							return fmt.Errorf("map %s: half-initialized value %T", k, vpo)
						}
						state = string(pb.Value())
					}
					if !mapPoss[k][state] {
						return fmt.Errorf("map %s: recovered %q not in legal states %v", k, state, stateNames(mapPoss[k]))
					}
					sstate := absentState
					if s2.Contains(k) {
						sstate = "present"
					}
					if !setPoss[k][sstate] {
						return fmt.Errorf("set %s: recovered %q not in legal states %v", k, sstate, stateNames(setPoss[k]))
					}
				}
				binds := make([]string, 0, m2.Len())
				m2.ForEach(func(k string, vref core.Ref) bool {
					if !strings.HasPrefix(k, "l") {
						err = fmt.Errorf("phantom map key %q", k)
						return false
					}
					binds = append(binds, k+"="+string(pdt.ReadBlobView(h2, vref)))
					return true
				})
				if err != nil {
					return err
				}
				sort.Strings(binds)
				members := s2.Members()
				for _, k := range members {
					if !strings.HasPrefix(k, "l") {
						return fmt.Errorf("phantom set member %q", k)
					}
				}
				sort.Strings(members)
				// Writability probe: the recovered structures must accept the
				// full op mix through the same lock-free path.
				pb, err := pdt.NewBytesValid(h2, []byte("ok"))
				if err != nil {
					return fmt.Errorf("post-recovery alloc: %w", err)
				}
				if err := m2.Put("z-probe", pb); err != nil {
					return fmt.Errorf("post-recovery put: %w", err)
				}
				if got, err := m2.Get("z-probe"); err != nil {
					return fmt.Errorf("post-recovery get: %w", err)
				} else if b, ok := got.(*pdt.PBytes); !ok || string(b.Value()) != "ok" {
					return fmt.Errorf("post-recovery readback mismatch")
				}
				if !m2.Delete("z-probe") {
					return fmt.Errorf("post-recovery delete lost the probe")
				}
				if err := s2.Add("z-probe"); err != nil {
					return fmt.Errorf("post-recovery set add: %w", err)
				}
				if !s2.Contains("z-probe") {
					return fmt.Errorf("post-recovery set membership lost")
				}
				fmt.Fprintf(obs, "map=%v set=%v", binds, members)
				return nil
			},
		}
	}}
}

func stateNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		if k == absentState {
			k = "<absent>"
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func int64Keys(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---- poolmigrate: online pool addition and record migration (§17) ----

// poolMigrateEntry crashes the multi-pool heap of DESIGN.md §17 at
// every point of its most delicate windows: sharded operation over two
// pools, the online addition of a third (new-pool format, topology
// transaction, record migration, finalize), and steady state after the
// grow. Recovery does what an operator restart does — the harness reads
// the epoch table from the pool-0 image to learn which pools are durable
// members, then opens the set (replaying any interrupted migration
// synchronously) — and the check proves: every key readable with its
// committed or in-flight pre/post value, every record sitting in its home
// pool of the recovered routing world, no phantom keys, and the set still
// writable. The entry compares recoveries: each member image recovered
// serially and concurrently must match bit for bit before any set-level
// resume touches it, and the fully resumed sets must agree on every
// observable (epoch, membership, per-pool contents).
func poolMigrateEntry() entry {
	const nkeys = 12
	const preOps, postOps = 12, 6
	keys := keyNames("m%02d", nkeys)
	e := entry{name: "poolmigrate", poolBytes: 1 << 21, pools: 3, setupPools: 2, cfg: stackCfg(stack.JPDT), compare: true}
	e.new = func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		model := make(map[string][]byte) // committed value per key; missing = absent
		var inflight *gridOp
		var set *stack.Stack
		mkval := func(i int) []byte {
			return letters(i, 8+rng.Intn(48))
		}
		// op performs one mutation and then fences every pool: the J-PDT
		// backend's own put/delete durability windows are the pdt and
		// gridread workloads' business — here the exact-model oracle
		// needs op-level durability so the migration windows stay the
		// only source of pre/post ambiguity.
		op := func(pools []*nvm.Pool, i int) error {
			b := set.Backend
			key := keys[rng.Intn(nkeys)]
			pre := model[key]
			var post []byte
			var err error
			switch {
			case pre == nil:
				post = mkval(i)
				inflight = &gridOp{key: key, pre: pre, post: post}
				err = b.Insert(key, &store.Record{Fields: []store.Field{{Name: "v", Value: post}}})
			case rng.Intn(3) == 0:
				inflight = &gridOp{key: key, pre: pre, post: nil}
				_, err = b.Delete(key)
			default:
				post = mkval(i)
				inflight = &gridOp{key: key, pre: pre, post: post}
				_, err = b.Update(key, []store.Field{{Name: "v", Value: post}})
			}
			if err != nil {
				return fmt.Errorf("op %d on %s: %w", i, key, err)
			}
			for _, p := range pools {
				p.PSync()
			}
			if post == nil {
				delete(model, key)
			} else {
				model[key] = post
			}
			inflight = nil
			return nil
		}
		// check verifies the oracle over the recovered set and reports its
		// observable state for the serial/parallel comparison.
		check := func(s2 *stack.Stack, seen *strings.Builder) error {
			b := s2.Backend
			read := func(key string) ([]byte, bool, error) {
				return recordReader(b.Read).field(key, "v")
			}
			for _, key := range keys {
				got, found, err := read(key)
				if err != nil {
					return fmt.Errorf("read %s: %w", key, err)
				}
				want, wantFound := model[key]
				ok := found == wantFound && bytes.Equal(got, want)
				if !ok && inflight != nil && inflight.key == key {
					ok = (found == (inflight.pre != nil) && bytes.Equal(got, inflight.pre)) ||
						(found == (inflight.post != nil) && bytes.Equal(got, inflight.post))
				}
				if !ok {
					return fmt.Errorf("key %s: got (%q,%v), want %q", key, got, found, want)
				}
			}
			// Placement and phantom sweep: after a clean open every
			// record sits in its home pool of the recovered world.
			obs := []string{fmt.Sprintf("pools=%d epoch=%d", len(s2.Pools), s2.Set.Epoch())}
			for i, m := range s2.Pools {
				for _, key := range m.Backend.Caps().Keys.Keys() {
					if home := heap.JumpHash(heap.KeyHash(key), len(s2.Pools)); home != i {
						return fmt.Errorf("key %q in pool %d, home %d", key, i, home)
					}
					if _, inModel := model[key]; !inModel && (inflight == nil || inflight.key != key) {
						return fmt.Errorf("phantom key %q in pool %d", key, i)
					}
					v, _, err := read(key)
					if err != nil {
						return fmt.Errorf("reread %s: %w", key, err)
					}
					obs = append(obs, fmt.Sprintf("%d:%s=%x", i, key, v))
				}
			}
			// Writability probe through the full routing path.
			if err := b.Insert("z-probe", &store.Record{Fields: []store.Field{{Name: "v", Value: []byte("ok")}}}); err != nil {
				return fmt.Errorf("post-recovery insert: %w", err)
			}
			if got, found, err := read("z-probe"); err != nil || !found || string(got) != "ok" {
				return fmt.Errorf("post-recovery readback: %q %v %v", got, found, err)
			}
			if _, err := b.Delete("z-probe"); err != nil {
				return fmt.Errorf("post-recovery delete: %w", err)
			}
			seen.WriteString(strings.Join(obs, ";"))
			return nil
		}
		return &scenario{
			check: check,
			setup: func(st *stack.Stack) error {
				set = st
				b := set.Backend
				for i := 0; i < 6; i++ {
					v := mkval(i)
					if err := b.Insert(keys[i], &store.Record{Fields: []store.Field{{Name: "v", Value: v}}}); err != nil {
						return err
					}
					model[keys[i]] = v
				}
				return nil
			},
			exec: func(pools []*nvm.Pool) error {
				for i := 0; i < preOps; i++ {
					if err := op(pools, i); err != nil {
						return err
					}
				}
				m, err := set.AddPool(pools[2], shard.AddOptions{})
				if err != nil {
					return fmt.Errorf("add pool: %w", err)
				}
				if err := m.Wait(); err != nil {
					return fmt.Errorf("migrate: %w", err)
				}
				for i := 0; i < postOps; i++ {
					if err := op(pools, preOps+i); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}
	return e
}

// ---- retire: redo logs retired behind the durable watermark ----

// retireEntry crashes the two orderings a per-Tx commit no longer fences
// itself (DESIGN.md §11): its apply is ordered before the watermark W by
// the next commit's first fence, and W before the reuse of its slot, its
// in-flight blocks and the objects it freed by the next commit's second.
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
// and a forced Retire in the middle. The oracle is
// the prefix property over the whole grid: the recovered records equal
// the model after every operation that returned, or that plus the one in
// flight — never a mix, never an older state. Then a burst of inserts
// takes blocks off the recovered free queue and every record is read
// again: a block both free and reachable would change under it. The
// harness's audit holds each raw image to "replayed = live slots".
func retireEntry() entry {
	keys := keyNames("t%02d", 8)
	fields := []string{"f0", "f1", "f2", "f3"}
	type grid map[string]map[string]string // key -> field -> value
	clone := func(g grid) grid {
		c := grid{}
		for k, rec := range g {
			c[k] = map[string]string{}
			for f, v := range rec {
				c[k][f] = v
			}
		}
		return c
	}
	e := entry{name: "retire", poolBytes: 1 << 21, cfg: stackCfg(stack.JPFA), compare: true, auditSlots: true}
	e.new = func(seed int64) *scenario {
		rng := rand.New(rand.NewSource(seed))
		// states[i] is the grid after i operations; done counts the ones
		// that returned.
		var states []grid
		done := 0
		var g *store.Grid
		var mgr *fa.Manager
		// Values straddle the pooled-slot limit: short ones share a pool
		// chunk with their neighbours, long ones own a block. f1 is always
		// the size of a field name's slot.
		value := func(i int, f string) string {
			if f == "f1" {
				return string(letters(i, 9+rng.Intn(8)))
			}
			return string(letters(i, 12+rng.Intn(150)))
		}
		record := func(i int, extra ...string) (*store.Record, map[string]string) {
			rec, m := &store.Record{}, map[string]string{}
			for j, f := range append(fields, extra...) {
				v := value(i+j, f)
				rec.Fields = append(rec.Fields, store.Field{Name: f, Value: []byte(v)})
				m[f] = v
			}
			return rec, m
		}
		insert := func(i int, key string, extra ...string) error {
			rec, m := record(i, extra...)
			next := clone(states[len(states)-1])
			next[key] = m
			states = append(states, next)
			return g.Insert(key, rec)
		}
		update := func(i int, key string, names ...string) error {
			next := clone(states[len(states)-1])
			var fs []store.Field
			for j, f := range names {
				v := value(i+j, f)
				fs = append(fs, store.Field{Name: f, Value: []byte(v)})
				next[key][f] = v
			}
			states = append(states, next)
			return g.Update(key, fs)
		}
		del := func(key string) error {
			next := clone(states[len(states)-1])
			delete(next, key)
			states = append(states, next)
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
			func(i int) error { mgr.Retire(); states = append(states, states[len(states)-1]); return nil },
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
				mgr = st.Pools[0].Mgr
				g = store.NewGrid(st.Backend, store.Options{CacheEntries: 4})
				states = []grid{{}}
				for i := 0; i < 5; i++ {
					if err := insert(100+10*i, keys[i]); err != nil {
						return err
					}
				}
				states = states[len(states)-1:]
				return nil
			},
			exec: func([]*nvm.Pool) error {
				for i, op := range ops {
					if err := op(10 * i); err != nil {
						return fmt.Errorf("op %d: %w", i, err)
					}
					done++
				}
				return nil
			},
			check: func(st *stack.Stack, obs *strings.Builder) error {
				g2 := store.NewGrid(st.Backend, store.Options{})
				read := func() (grid, error) {
					got := grid{}
					for _, key := range keys {
						rec := map[string]string{}
						found, err := gridReader(g2)(key, func(name string, value []byte) {
							rec[strings.Clone(name)] = string(value)
						})
						if err != nil {
							return nil, fmt.Errorf("read %s: %w", key, err)
						}
						if found {
							got[key] = rec
						}
					}
					return got, nil
				}
				got, err := read()
				if err != nil {
					return err
				}
				at := -1
				for i := done; i < len(states) && i <= done+1; i++ {
					if reflect.DeepEqual(got, states[i]) {
						at = i
						break
					}
				}
				if at < 0 {
					return fmt.Errorf("recovered grid is the state after neither %d nor %d operations: %v", done, done+1, got)
				}
				fmt.Fprintf(obs, "prefix=%d;", at)
				// No block both free and reachable: allocations off the
				// recovered free queue leave every record as it was.
				for i := 0; i < 6; i++ {
					rec, _ := record(1000 + 10*i)
					if err := g2.Insert(fmt.Sprintf("probe%d", i), rec); err != nil {
						return fmt.Errorf("post-recovery insert %d: %w", i, err)
					}
				}
				again, err := read()
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(again, states[at]) {
					return fmt.Errorf("records changed under post-recovery inserts (a free block was reachable): %v", again)
				}
				return nil
			},
		}
	}
	return e
}
