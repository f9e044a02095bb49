package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/gcsim"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pdt"
	"repro/internal/stack"
	"repro/internal/store"
	"repro/internal/tpcb"
	"repro/internal/ycsb"
)

// Scale is the global dataset scale of the harness. The paper runs 3M
// records and 100M operations on an 80-core Optane testbed; the default
// scale targets a laptop while preserving every shape. Pass -scale to the
// cmd tools to grow it.
type Scale struct {
	Records    int
	Operations int
	Threads    int
	// Commit is the J-NVM commit protocol ("", "per-tx", "group",
	// "async"); see GridConfig.Commit.
	Commit string
}

// DefaultScale runs the full suite in minutes on commodity hardware.
func DefaultScale() Scale { return Scale{Records: 20_000, Operations: 60_000, Threads: 1} }

// ---- Figure 7: YCSB throughput across backends ----

// Fig7Row is one (workload, backend) measurement. PWBPerOp/PFencePerOp are
// the Table-3-style persistence-primitive rates for the run interval,
// sourced from the shared obs layer (zero for backends that bypass NVMM).
type Fig7Row struct {
	Workload    string
	Backend     BackendKind
	KopsSec     float64
	MeanRead    time.Duration
	Errors      uint64
	PWBPerOp    float64
	PFencePerOp float64
	// Stack is the full per-run metrics snapshot (run interval only),
	// embedded in JSON result files.
	Stack *obs.StackSnapshot `json:",omitempty"`
}

// Fig7 runs workloads A,B,C,D,F over the four persistent backends of
// Figure 7.
func Fig7(sc Scale, backends []BackendKind) ([]Fig7Row, error) {
	if backends == nil {
		backends = []BackendKind{JPDT, JPFA, FS, PCJ}
	}
	var rows []Fig7Row
	for _, w := range []string{"A", "B", "C", "D", "F"} {
		for _, bk := range backends {
			cfg := ycsb.MustWorkload(w)
			cfg.RecordCount = sc.Records
			cfg.Operations = sc.Operations
			cfg.Threads = sc.Threads
			cfg = cfg.Defaults()
			env, err := NewEnv(GridConfig{
				Backend: bk, Records: cfg.RecordCount * 2,
				FieldCount: cfg.FieldCount, FieldLen: cfg.FieldLen,
				CacheEntries: fsCache(bk, cfg.RecordCount),
				Commit:       sc.Commit,
			})
			if err != nil {
				return nil, err
			}
			if err := ycsb.Load(env.Grid, cfg); err != nil {
				env.Close()
				return nil, fmt.Errorf("load %s/%s: %w", w, bk, err)
			}
			before := env.Snapshot()
			res, err := ycsb.Run(env.Grid, cfg)
			// Async mode: charge the run's own epochs to the run interval
			// before diffing snapshots.
			env.DrainDurable()
			stack := env.Snapshot().Sub(*before)
			env.Close()
			if err != nil {
				return nil, fmt.Errorf("run %s/%s: %w", w, bk, err)
			}
			res.Stack = &stack
			row := Fig7Row{Workload: w, Backend: bk, KopsSec: res.Throughput() / 1000, Errors: res.Errors,
				PWBPerOp: stack.PWBPerOp, PFencePerOp: stack.PFencePerOp, Stack: &stack}
			if h := res.PerOp[ycsb.OpRead]; h != nil {
				row.MeanRead = h.Mean()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// fsCache gives the paper's 10% record cache to the file-system family and
// nothing to the J-NVM backends (§5.1, §5.3.1).
func fsCache(bk BackendKind, records int) int {
	switch bk {
	case FS, TmpFS, NullFS, Volatile:
		return records / 10
	default:
		return 0
	}
}

// ---- Figure 8: the price of marshalling (record-size sweep) ----

// Fig8Row is one (record size, backend) completion time.
type Fig8Row struct {
	RecordKB   int
	Backend    BackendKind
	Completion time.Duration
}

// Fig8 runs YCSB-A with growing records over the no-persistence backends,
// isolating marshalling cost.
func Fig8(sc Scale, sizesKB []int) ([]Fig8Row, error) {
	if sizesKB == nil {
		sizesKB = []int{1, 2, 4, 6, 8, 10}
	}
	var rows []Fig8Row
	for _, kb := range sizesKB {
		for _, bk := range []BackendKind{Volatile, NullFS, TmpFS, FS} {
			cfg := ycsb.MustWorkload("A")
			// Constant dataset bytes: fewer records as they grow.
			cfg.RecordCount = max(sc.Records/kb, 200)
			cfg.Operations = max(sc.Operations/kb, 500)
			cfg.Threads = sc.Threads
			cfg.FieldLen = kb * 100 // 10 fields x (kb*100) = kb KB records
			cfg = cfg.Defaults()
			env, err := NewEnv(GridConfig{
				Backend: bk, Records: cfg.RecordCount,
				FieldCount: cfg.FieldCount, FieldLen: cfg.FieldLen,
				CacheEntries: cfg.RecordCount / 10,
			})
			if err != nil {
				return nil, err
			}
			if err := ycsb.Load(env.Grid, cfg); err != nil {
				env.Close()
				return nil, err
			}
			res, err := ycsb.Run(env.Grid, cfg)
			env.Close()
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig8Row{RecordKB: kb, Backend: bk, Completion: res.Duration})
		}
	}
	return rows, nil
}

// ---- Figure 9: sensitivity analyses ----

// Fig9Row is one sensitivity point: mean read and update latency for J-PDT
// and FS at one knob setting.
type Fig9Row struct {
	Knob    string
	Value   int
	Backend BackendKind
	Read    time.Duration
	Update  time.Duration
}

func runFig9Point(knob string, value int, bk BackendKind, cfg ycsb.Config, cacheEntries int, proxy bool) (Fig9Row, error) {
	gc := GridConfig{
		Backend: bk, Records: cfg.RecordCount * 2,
		FieldCount: cfg.FieldCount, FieldLen: cfg.FieldLen,
	}
	if bk == JPDT {
		if proxy && cacheEntries > 0 {
			gc.ProxyCache = 1 // pdt.CacheOnDemand
		}
	} else {
		gc.CacheEntries = cacheEntries
	}
	env, err := NewEnv(gc)
	if err != nil {
		return Fig9Row{}, err
	}
	defer env.Close()
	if err := ycsb.Load(env.Grid, cfg); err != nil {
		return Fig9Row{}, err
	}
	res, err := ycsb.Run(env.Grid, cfg)
	if err != nil {
		return Fig9Row{}, err
	}
	row := Fig9Row{Knob: knob, Value: value, Backend: bk}
	if h := res.PerOp[ycsb.OpRead]; h != nil {
		row.Read = h.Mean()
	}
	if h := res.PerOp[ycsb.OpUpdate]; h != nil {
		row.Update = h.Mean()
	}
	return row, nil
}

// Fig9a sweeps the cache ratio (Figure 9a).
func Fig9a(sc Scale, ratios []int) ([]Fig9Row, error) {
	if ratios == nil {
		ratios = []int{0, 20, 40, 60, 80, 100}
	}
	var rows []Fig9Row
	for _, r := range ratios {
		cfg := ycsb.MustWorkload("A")
		cfg.RecordCount, cfg.Operations, cfg.Threads = sc.Records, sc.Operations, sc.Threads
		cfg = cfg.Defaults()
		for _, bk := range []BackendKind{JPDT, FS} {
			row, err := runFig9Point("cache%", r, bk, cfg, sc.Records*r/100, true)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig9b sweeps the record count (Figure 9b).
func Fig9b(sc Scale, counts []int) ([]Fig9Row, error) {
	if counts == nil {
		counts = []int{sc.Records / 8, sc.Records / 4, sc.Records / 2, sc.Records}
	}
	var rows []Fig9Row
	for _, n := range counts {
		cfg := ycsb.MustWorkload("A")
		cfg.RecordCount, cfg.Operations, cfg.Threads = n, sc.Operations, sc.Threads
		cfg = cfg.Defaults()
		for _, bk := range []BackendKind{JPDT, FS} {
			row, err := runFig9Point("records", n, bk, cfg, n/10, false)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig9c sweeps the field count at constant dataset size (Figure 9c).
func Fig9c(sc Scale, fieldCounts []int) ([]Fig9Row, error) {
	if fieldCounts == nil {
		fieldCounts = []int{10, 50, 100, 500}
	}
	const datasetBytes = 1 << 24
	var rows []Fig9Row
	for _, fc := range fieldCounts {
		cfg := ycsb.MustWorkload("A")
		cfg.FieldCount = fc
		cfg.FieldLen = 100
		cfg.RecordCount = max(datasetBytes/(fc*100), 50)
		cfg.Operations = max(sc.Operations/fc*10, 200)
		cfg.Threads = sc.Threads
		cfg = cfg.Defaults()
		for _, bk := range []BackendKind{JPDT, FS} {
			row, err := runFig9Point("fields", fc, bk, cfg, cfg.RecordCount/10, false)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig9d sweeps the record size at constant dataset size (Figure 9d).
func Fig9d(sc Scale, sizesKB []int) ([]Fig9Row, error) {
	if sizesKB == nil {
		sizesKB = []int{1, 10, 100, 1000}
	}
	const datasetBytes = 1 << 25
	var rows []Fig9Row
	for _, kb := range sizesKB {
		cfg := ycsb.MustWorkload("A")
		cfg.FieldCount = 10
		cfg.FieldLen = kb * 100
		cfg.RecordCount = max(datasetBytes/(kb*1024), 20)
		cfg.Operations = max(sc.Operations/kb, 100)
		cfg.Threads = sc.Threads
		cfg = cfg.Defaults()
		for _, bk := range []BackendKind{JPDT, FS} {
			row, err := runFig9Point("recordKB", kb, bk, cfg, cfg.RecordCount/10, false)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---- Figure 10: thread scaling ----

// Fig10Row is one (workload, backend, threads) throughput point.
type Fig10Row struct {
	Workload string
	Backend  BackendKind
	Threads  int
	KopsSec  float64
}

// Fig10 sweeps the thread count for YCSB-A and YCSB-C over J-PDT, FS and
// Volatile.
func Fig10(sc Scale, threads []int) ([]Fig10Row, error) {
	if threads == nil {
		threads = []int{1, 2, 4, 8}
	}
	var rows []Fig10Row
	for _, w := range []string{"A", "C"} {
		for _, bk := range []BackendKind{JPDT, FS, Volatile} {
			for _, th := range threads {
				cfg := ycsb.MustWorkload(w)
				cfg.RecordCount = sc.Records
				cfg.Operations = sc.Operations * th // keep per-thread work constant
				cfg.Threads = th
				cfg = cfg.Defaults()
				env, err := NewEnv(GridConfig{
					Backend: bk, Records: cfg.RecordCount * 2,
					FieldCount: cfg.FieldCount, FieldLen: cfg.FieldLen,
					CacheEntries: fsCache(bk, cfg.RecordCount),
				})
				if err != nil {
					return nil, err
				}
				if err := ycsb.Load(env.Grid, cfg); err != nil {
					env.Close()
					return nil, err
				}
				res, err := ycsb.Run(env.Grid, cfg)
				env.Close()
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig10Row{Workload: w, Backend: bk, Threads: th, KopsSec: res.Throughput() / 1000})
			}
		}
	}
	return rows, nil
}

// ---- Figure 11: recovery timeline ----

// Fig11Config parameterizes the recovery experiment.
type Fig11Config struct {
	Accounts   int
	Clients    int
	RunFor     time.Duration
	CrashAfter time.Duration
	Bucket     time.Duration
	// Commit is the J-PFA commit protocol ("", "per-tx", "group",
	// "async"). Async makes the crash meaningful: transfers acknowledged
	// past the watermark survive, queued ones are rolled back.
	Commit string
}

// Fig11 runs the TPC-B crash/recovery experiment over the four systems of
// Figure 11 and returns their timelines.
func Fig11(cfg Fig11Config) ([]*tpcb.Timeline, error) {
	if cfg.Accounts == 0 {
		cfg.Accounts = 20_000
	}
	if cfg.Clients == 0 {
		cfg.Clients = 4
	}
	if cfg.RunFor == 0 {
		cfg.RunFor = 3 * time.Second
	}
	if cfg.CrashAfter == 0 {
		cfg.CrashAfter = cfg.RunFor / 2
	}
	if cfg.Bucket == 0 {
		cfg.Bucket = 100 * time.Millisecond
	}
	poolBytes := cfg.Accounts*512 + (32 << 20)
	// openJNVM opens (or re-opens) a bank on pool under the configured
	// commit protocol; recovery itself always runs before the mode takes
	// effect, so the restart path is mode-independent.
	openJNVM := func(pool *nvm.Pool, accounts int, nogc bool) (tpcb.Bank, error) {
		sc := tpcb.StackConfig(nogc)
		sc.Commit = cfg.Commit
		st, err := stack.Open([]*nvm.Pool{pool}, sc)
		if err != nil {
			return nil, err
		}
		return tpcb.NewJNVMBank(st, accounts)
	}

	var systems []tpcb.System
	// Volatile: restart from a blank state.
	systems = append(systems, tpcb.System{
		Name:    "Volatile",
		Start:   func() (tpcb.Bank, error) { return tpcb.NewVolatileBank(cfg.Accounts), nil },
		Restart: func() (tpcb.Bank, error) { return tpcb.NewVolatileBank(cfg.Accounts), nil },
	})
	// J-PFA: full recovery GC at restart.
	{
		pool := nvm.New(poolBytes, nvm.Options{FenceLatency: DefaultFenceNs})
		obs.Default.Publish("tpcb_jpfa_nvm", func() any { return pool.Obs().Snapshot() })
		systems = append(systems, tpcb.System{
			Name:    "J-PFA",
			Start:   func() (tpcb.Bank, error) { return openJNVM(pool, cfg.Accounts, false) },
			Restart: func() (tpcb.Bank, error) { return openJNVM(pool, cfg.Accounts, false) },
		})
	}
	// J-PFA-nogc: header-scan recovery.
	{
		pool := nvm.New(poolBytes, nvm.Options{FenceLatency: DefaultFenceNs})
		obs.Default.Publish("tpcb_jpfa_nogc_nvm", func() any { return pool.Obs().Snapshot() })
		systems = append(systems, tpcb.System{
			Name:    "J-PFA-nogc",
			Start:   func() (tpcb.Bank, error) { return openJNVM(pool, cfg.Accounts, true) },
			Restart: func() (tpcb.Bank, error) { return openJNVM(pool, cfg.Accounts, true) },
		})
	}
	// FS: files survive; the restart eagerly rewarms the 10% cache.
	{
		dir, err := os.MkdirTemp("", "jnvm-tpcb-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		systems = append(systems, tpcb.System{
			Name:  "FS",
			Start: func() (tpcb.Bank, error) { return tpcb.OpenFSBank(dir, cfg.Accounts, 0.1) },
			Restart: func() (tpcb.Bank, error) {
				b, err := tpcb.OpenFSBank(dir, cfg.Accounts, 0.1)
				if err != nil {
					return nil, err
				}
				if err := b.WarmCache(cfg.Accounts / 10); err != nil {
					return nil, err
				}
				return b, nil
			},
		})
	}

	var out []*tpcb.Timeline
	for _, sys := range systems {
		tl, err := tpcb.Run(sys, tpcb.RunOptions{
			Accounts:   cfg.Accounts,
			Clients:    cfg.Clients,
			RunFor:     cfg.RunFor,
			CrashAfter: cfg.CrashAfter,
			Bucket:     cfg.Bucket,
		})
		if err != nil {
			return nil, fmt.Errorf("fig11 %s: %w", sys.Name, err)
		}
		out = append(out, tl)
	}
	return out, nil
}

// ---- Figures 1 and 2: the GC counter-examples ----

// Fig2Row is one dataset-size point of the go-pmem experiment.
type Fig2Row struct {
	DatasetMB   int
	Completion  time.Duration
	GCCPUTime   time.Duration
	ComputeTime time.Duration
	GCShare     float64
	Collections int
	LiveObjects int
	// MarkedObjects counts the objects the run's collections visited: the
	// work GCCPUTime is the wall-clock price of.
	MarkedObjects uint64
}

// Fig2 grows the persistent dataset of the RedisLike store while running a
// fixed YCSB-F-like op count, reproducing the go-pmem GC blow-up.
func Fig2(datasetsMB []int, ops int, gcEveryMB int) ([]Fig2Row, error) {
	if datasetsMB == nil {
		datasetsMB = []int{16, 32, 64, 128, 256}
	}
	if ops == 0 {
		ops = 150_000
	}
	if gcEveryMB == 0 {
		gcEveryMB = 8 // the paper forces a collection every 10 GB; scaled
	}
	const valSize = 1024
	var rows []Fig2Row
	for _, mb := range datasetsMB {
		records := mb << 20 / valSize
		h := gcsim.New(uint64(gcEveryMB) << 20)
		r := gcsim.NewRedisLike(h, max(records/4, 64))
		for i := 0; i < records; i++ {
			r.Set(fmt.Sprintf("user%09d", i), make([]byte, valSize))
		}
		// Warm up (JIT-ish effects, page faults, zipf tables), then settle
		// the load-phase garbage before measuring.
		z := newZipfKeys(records)
		buf := make([]byte, valSize)
		for i := 0; i < ops/10; i++ {
			key := z.next(i)
			if i%2 == 0 {
				r.Get(key)
			} else {
				r.RMW(key, func(v []byte) []byte { copy(buf, v); return buf })
			}
		}
		h.Collect()
		base := h.Stats()
		start := time.Now()
		for i := 0; i < ops; i++ {
			key := z.next(i)
			if i%2 == 0 {
				r.Get(key)
			} else {
				r.RMW(key, func(v []byte) []byte { copy(buf, v); return buf })
			}
		}
		completion := time.Since(start)
		st := h.Stats()
		gcTime := st.GCTime - base.GCTime
		rows = append(rows, Fig2Row{
			DatasetMB:     mb,
			Completion:    completion,
			GCCPUTime:     gcTime,
			ComputeTime:   completion - gcTime,
			GCShare:       float64(gcTime) / float64(completion),
			Collections:   st.Collections - base.Collections,
			LiveObjects:   st.LiveObjects,
			MarkedObjects: st.MarkedObjects - base.MarkedObjects,
		})
	}
	return rows, nil
}

// Fig1Row is one cache-ratio point of the G1 experiment.
type Fig1Row struct {
	CacheRatio  int // percent
	Completion  time.Duration
	GCCPUTime   time.Duration
	ComputeTime time.Duration
	GCShare     float64
	P9999       time.Duration
	P50         time.Duration
	// LiveObjects is the managed live set after the run; MarkedObjects the
	// objects the run's collections visited — the work GCCPUTime prices.
	LiveObjects   int
	MarkedObjects uint64
}

// Fig1 runs YCSB-F over a TmpFS-backed grid whose volatile cache lives in
// a managed (collected) heap, at cache ratios 1/10/100%: more cache means
// more live managed objects, more GC time, and a worse tail.
func Fig1(records, ops int, ratios []int, gcEveryMB int) ([]Fig1Row, error) {
	if ratios == nil {
		ratios = []int{1, 10, 100}
	}
	if records == 0 {
		// Large enough that marking a 100% cache dominates compute, the
		// crossover Figure 1 demonstrates.
		records = 300_000
	}
	if ops == 0 {
		ops = 150_000
	}
	if gcEveryMB == 0 {
		gcEveryMB = 2
	}
	const valSize = 1024
	var rows []Fig1Row
	for _, ratio := range ratios {
		mh := gcsim.New(uint64(gcEveryMB) << 20)
		capacity := records * ratio / 100
		cache := gcsim.NewManagedCache(mh, capacity)
		backing := make(map[string][]byte, records)
		for i := 0; i < records; i++ {
			backing[fmt.Sprintf("user%09d", i)] = make([]byte, valSize)
		}
		// Warm the cache to capacity, as Infinispan's steady state: the
		// live managed set is what every collection must traverse.
		for i := 0; i < capacity; i++ {
			k := fmt.Sprintf("user%09d", i)
			cache.Put(k, backing[k])
		}
		mh.Collect()
		base := mh.Stats()
		z := newZipfKeys(records)
		hist := &ycsb.Histogram{}
		start := time.Now()
		for i := 0; i < ops; i++ {
			key := z.next(i)
			t0 := time.Now()
			if i%2 == 0 { // read
				if _, ok := cache.Get(key); !ok {
					v := backing[key]
					// The FS unmarshal cost on a miss.
					c := make([]byte, len(v))
					copy(c, v)
					cache.Put(key, c)
				}
			} else { // read-modify-write (write-through)
				v, ok := cache.Get(key)
				if !ok {
					v = backing[key]
				}
				c := make([]byte, len(v))
				copy(c, v)
				backing[key] = c
				cache.Put(key, c)
			}
			hist.Record(time.Since(t0))
		}
		completion := time.Since(start)
		st := mh.Stats()
		gcTime := st.GCTime - base.GCTime
		rows = append(rows, Fig1Row{
			CacheRatio:    ratio,
			Completion:    completion,
			GCCPUTime:     gcTime,
			ComputeTime:   completion - gcTime,
			GCShare:       float64(gcTime) / float64(completion),
			P9999:         hist.Percentile(0.9999),
			P50:           hist.Percentile(0.50),
			LiveObjects:   st.LiveObjects,
			MarkedObjects: st.MarkedObjects - base.MarkedObjects,
		})
	}
	return rows, nil
}

// zipfKeys pre-renders keys for the gcsim experiments (deterministic, no
// allocation in the hot loop).
type zipfKeys struct {
	keys []string
	idx  []int
}

func newZipfKeys(n int) *zipfKeys {
	z := ycsb.NewScrambledZipfian(n)
	rng := newRand()
	zk := &zipfKeys{}
	const pre = 1 << 14
	zk.keys = make([]string, n)
	zk.idx = make([]int, pre)
	for i := range zk.idx {
		zk.idx[i] = z.Next(rng)
	}
	for i := range zk.keys {
		zk.keys[i] = fmt.Sprintf("user%09d", i)
	}
	return zk
}

func (z *zipfKeys) next(i int) string { return z.keys[z.idx[i%len(z.idx)]] }

// ---- Extension: YCSB-E (scans) ----

// ExtERow is one point of the scan extension experiment.
type ExtERow struct {
	Backend  string
	KopsSec  float64
	ScanMean time.Duration
}

// ExtE runs YCSB workload E (95% short scans, 5% inserts) over an ordered
// J-PDT backend and the volatile baseline. The paper skips E because
// Infinispan only scans through JPQL (§5.2); the ordered mirrors of §4.3.2
// make it directly supportable — this experiment is an extension beyond
// the paper.
func ExtE(sc Scale, maxScanLen int) ([]ExtERow, error) {
	if maxScanLen == 0 {
		maxScanLen = 100
	}
	var rows []ExtERow
	for _, bk := range []BackendKind{JPDT, Volatile} {
		cfg := ycsb.MustWorkload("E")
		cfg.RecordCount = sc.Records
		cfg.Operations = sc.Operations / 10 // scans touch ~50 records each
		cfg.Threads = sc.Threads
		cfg.MaxScanLen = maxScanLen
		cfg = cfg.Defaults()

		var env *Env
		var err error
		if bk == JPDT {
			// The one ordered J-PDT grid in the repo: a bare stack, with the
			// tree-mirrored backend and its grid put on top here.
			pool := nvm.New(EstimatePoolBytes(cfg.RecordCount*2, cfg.FieldCount, cfg.FieldLen),
				nvm.Options{FenceLatency: DefaultFenceNs})
			st, err := stack.Open([]*nvm.Pool{pool}, stack.Config{LogSlots: 16, LogSlotSize: 1 << 15})
			if err != nil {
				return nil, err
			}
			b, err := store.NewJPDTBackendKind(st.Pools[0].Heap, "kv", pdt.MirrorTree)
			if err != nil {
				return nil, err
			}
			env = &Env{Stack: st, Grid: store.NewGrid(b, store.Options{})}
		} else if env, err = NewEnv(GridConfig{Backend: bk}); err != nil {
			return nil, err
		}
		if err := ycsb.Load(env.Grid, cfg); err != nil {
			env.Close()
			return nil, err
		}
		res, err := ycsb.Run(env.Grid, cfg)
		env.Close()
		if err != nil {
			return nil, err
		}
		if res.Errors != 0 {
			return nil, fmt.Errorf("ExtE %s: %d op errors", bk, res.Errors)
		}
		row := ExtERow{Backend: string(bk), KopsSec: res.Throughput() / 1000}
		if h := res.PerOp[ycsb.OpScan]; h != nil {
			row.ScanMean = h.Mean()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintExtE renders the scan-extension table.
func PrintExtE(w io.Writer, rows []ExtERow) {
	fmt.Fprintf(w, "Extension — YCSB-E short scans (not in the paper; ordered J-PDT mirror)\n")
	fmt.Fprintf(w, "%-12s%12s%16s\n", "backend", "Kops/s", "scan mean")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s%12.1f%16s\n", r.Backend, r.KopsSec, round(r.ScanMean))
	}
}
