package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/gcsim"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/tpcb"
	"repro/internal/ycsb"
)

// Scale is the dataset scale of an experiment. The paper runs 3M records
// and 100M operations on an 80-core Optane testbed; a zero field keeps
// the experiment's own laptop-scaled default, which preserves every
// shape. cmd/paper's -records, -ops, -threads, -commit and -run set it.
type Scale struct {
	Records    int
	Operations int
	Threads    int
	// Commit is the J-NVM commit protocol ("", "per-tx", "async"); see
	// GridConfig.Commit.
	Commit string
	// Run is Figure 11's injection time.
	Run time.Duration
}

// withDefaults fills the YCSB figures' default scale, which runs them in
// minutes on commodity hardware (ycsb.Config.Defaults makes zero threads
// one).
func (sc Scale) withDefaults() Scale {
	if sc.Records == 0 {
		sc.Records = 20_000
	}
	if sc.Operations == 0 {
		sc.Operations = 60_000
	}
	return sc
}

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
	sc = sc.withDefaults()
	if backends == nil {
		backends = []BackendKind{JPDT, JPFA, FS, PCJ}
	}
	var rows []Fig7Row
	for _, w := range []string{"A", "B", "C", "D", "F"} {
		for _, bk := range backends {
			cfg := ycsb.MustWorkload(w)
			cfg.RecordCount, cfg.Operations, cfg.Threads = sc.Records, sc.Operations, sc.Threads
			cfg = cfg.Defaults()
			res, err := runYCSB(GridConfig{Backend: bk, CacheEntries: fsCache(bk, cfg.RecordCount), Commit: sc.Commit}, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w, bk, err)
			}
			row := Fig7Row{Workload: w, Backend: bk, KopsSec: res.Throughput() / 1000, Errors: res.Errors,
				PWBPerOp: res.Stack.PWBPerOp, PFencePerOp: res.Stack.PFencePerOp, Stack: res.Stack}
			if h := res.PerOp[ycsb.OpRead]; h != nil {
				row.MeanRead = h.Mean()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runYCSB loads cfg into a fresh grid of gc's backend and cache, runs it,
// and returns the result with the run interval's stack metrics in Stack.
func runYCSB(gc GridConfig, cfg ycsb.Config) (*ycsb.Result, error) {
	gc.Records, gc.FieldCount, gc.FieldLen = cfg.RecordCount*2, cfg.FieldCount, cfg.FieldLen
	env, err := NewEnv(gc)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	if err := ycsb.Load(env.Grid, cfg); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	before := env.Snapshot()
	res, err := ycsb.Run(env.Grid, cfg)
	if err != nil {
		return nil, err
	}
	// Async mode: charge the run's own epochs to the run interval before
	// diffing snapshots.
	env.DrainDurable()
	stack := env.Snapshot().Sub(*before)
	res.Stack = &stack
	return res, nil
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
	sc = sc.withDefaults()
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
			res, err := runYCSB(GridConfig{Backend: bk, CacheEntries: cfg.RecordCount / 10}, cfg)
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

// fig9Panels are Figure 9's sensitivity sweeps, one per panel: the knob,
// its values at a scale, and the YCSB-A shape at one value (shape returns
// the FS record cache, which the cache-ratio knob sizes and which is a
// tenth of the records otherwise). Panels c and d keep the dataset's
// bytes constant as records widen: 16 MB and 32 MB at the default 20 000
// records, in proportion to sc.Records at another scale.
var fig9Panels = map[string]struct {
	title  string
	knob   string
	values func(sc Scale) []int
	shape  func(cfg *ycsb.Config, sc Scale, v int) (cacheEntries int)
}{
	// The ratio sizes FS's record cache; J-PDT has nothing to cache (its
	// backend resolves records by reference and builds no proxy), so its
	// point is the same path at every ratio.
	"a": {"Figure 9a — impact of the cache ratio (YCSB-A)", "cache%",
		func(Scale) []int { return []int{0, 20, 40, 60, 80, 100} },
		func(_ *ycsb.Config, sc Scale, r int) int { return sc.Records * r / 100 }},
	"b": {"Figure 9b — impact of the number of records (YCSB-A)", "records",
		func(sc Scale) []int { return []int{sc.Records / 8, sc.Records / 4, sc.Records / 2, sc.Records} },
		func(cfg *ycsb.Config, _ Scale, n int) int { cfg.RecordCount = n; return n / 10 }},
	"c": {"Figure 9c — impact of the number of fields (YCSB-A)", "fields",
		func(Scale) []int { return []int{10, 50, 100, 500} },
		func(cfg *ycsb.Config, sc Scale, fc int) int {
			cfg.FieldCount, cfg.FieldLen = fc, 100
			cfg.RecordCount = max((1<<24)*sc.Records/20_000/(fc*100), 50)
			cfg.Operations = max(sc.Operations/fc*10, 200)
			return cfg.RecordCount / 10
		}},
	"d": {"Figure 9d — impact of the record size (YCSB-A)", "recordKB",
		func(Scale) []int { return []int{1, 10, 100, 1000} },
		func(cfg *ycsb.Config, sc Scale, kb int) int {
			cfg.FieldCount, cfg.FieldLen = 10, kb*100
			cfg.RecordCount = max((1<<25)*sc.Records/20_000/(kb*1024), 20)
			cfg.Operations = max(sc.Operations/kb, 100)
			return cfg.RecordCount / 10
		}},
}

// Fig9 sweeps one panel ("a" to "d") of Figure 9 over J-PDT and FS; nil
// values take the panel's own.
func Fig9(panel string, sc Scale, values []int) ([]Fig9Row, error) {
	p, ok := fig9Panels[panel]
	if !ok {
		return nil, fmt.Errorf("bench: no Figure 9 panel %q", panel)
	}
	sc = sc.withDefaults()
	if values == nil {
		values = p.values(sc)
	}
	var rows []Fig9Row
	for _, v := range values {
		cfg := ycsb.MustWorkload("A")
		cfg.RecordCount, cfg.Operations, cfg.Threads = sc.Records, sc.Operations, sc.Threads
		cacheEntries := p.shape(&cfg, sc, v)
		cfg = cfg.Defaults()
		for _, bk := range []BackendKind{JPDT, FS} {
			res, err := runYCSB(GridConfig{Backend: bk, CacheEntries: cacheEntries}, cfg)
			if err != nil {
				return nil, err
			}
			row := Fig9Row{Knob: p.knob, Value: v, Backend: bk}
			if h := res.PerOp[ycsb.OpRead]; h != nil {
				row.Read = h.Mean()
			}
			if h := res.PerOp[ycsb.OpUpdate]; h != nil {
				row.Update = h.Mean()
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
	sc = sc.withDefaults()
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
				res, err := runYCSB(GridConfig{Backend: bk, CacheEntries: fsCache(bk, cfg.RecordCount)}, cfg)
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
	// Commit is the J-PFA commit protocol ("", "per-tx", "async").
	// Async makes the crash meaningful: transfers acknowledged
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
		cfg.RunFor = 4 * time.Second
	}
	if cfg.CrashAfter == 0 {
		cfg.CrashAfter = cfg.RunFor / 2
	}
	if cfg.Bucket == 0 {
		cfg.Bucket = 100 * time.Millisecond
	}
	poolBytes := cfg.Accounts*512 + (32 << 20)

	var systems []tpcb.System
	// Volatile: restart from a blank state.
	systems = append(systems, tpcb.System{
		Name:    "Volatile",
		Start:   func() (tpcb.Bank, error) { return tpcb.NewVolatileBank(cfg.Accounts), nil },
		Restart: func() (tpcb.Bank, error) { return tpcb.NewVolatileBank(cfg.Accounts), nil },
	})
	// J-PFA recovers with its recovery GC, J-PFA-nogc with a header scan.
	for _, j := range []struct {
		name, metrics string
		nogc          bool
	}{{"J-PFA", "tpcb_jpfa_nvm", false}, {"J-PFA-nogc", "tpcb_jpfa_nogc_nvm", true}} {
		pool := nvm.New(poolBytes, nvm.Options{FenceLatency: DefaultFenceNs})
		obs.Default.Publish(j.metrics, func() any { return pool.Obs().Snapshot() })
		open := func() (tpcb.Bank, error) { return tpcb.OpenJNVMBank(pool, cfg.Accounts, j.nogc, cfg.Commit) }
		systems = append(systems, tpcb.System{Name: j.name, Start: open, Restart: open})
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
// fixed YCSB-F-like op count (sc.Operations, default 150 000), reproducing
// the go-pmem GC blow-up. Nil datasetsMB doubles the dataset from a
// sixteenth of the largest, which holds sc.Records 1 KB values (default
// and floor: 256 MB and 16 MB).
func Fig2(sc Scale, datasetsMB []int, gcEveryMB int) ([]Fig2Row, error) {
	const valSize = 1024
	if datasetsMB == nil {
		largest := 256
		if sc.Records > 0 {
			largest = max(sc.Records*valSize>>20, 16)
		}
		for mb := largest / 16; mb <= largest; mb *= 2 {
			datasetsMB = append(datasetsMB, mb)
		}
	}
	ops := sc.Operations
	if ops == 0 {
		ops = 150_000
	}
	if gcEveryMB == 0 {
		gcEveryMB = 8 // the paper forces a collection every 10 GB; scaled
	}
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
func Fig1(sc Scale, ratios []int, gcEveryMB int) ([]Fig1Row, error) {
	if ratios == nil {
		ratios = []int{1, 10, 100}
	}
	records, ops := sc.Records, sc.Operations
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
