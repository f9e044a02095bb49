// Benchmarks regenerating the paper's tables and figures at library scale.
// One Benchmark per exhibit; cmd/paper runs the same experiments with
// bigger, paper-like parameters and prints the full tables.
//
//	go test -bench=. -benchmem .
package jnvm_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/gcsim"
	"repro/internal/nvm"
	"repro/internal/tpcb"
	"repro/internal/ycsb"
)

const (
	benchRecords = 5_000
	benchFields  = 10
	benchFldLen  = 100
)

// newLoadedEnv builds a grid over the backend and loads the default YCSB
// dataset, outside the timer.
func newLoadedEnv(b *testing.B, bk bench.BackendKind, cacheEntries int) (*bench.Env, ycsb.Config) {
	b.Helper()
	env, err := bench.NewEnv(bench.GridConfig{
		Backend: bk, Records: benchRecords * 2,
		FieldCount: benchFields, FieldLen: benchFldLen,
		CacheEntries: cacheEntries,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := ycsb.MustWorkload("A")
	cfg.RecordCount = benchRecords
	cfg = cfg.Defaults()
	if err := ycsb.Load(env.Grid, cfg); err != nil {
		b.Fatal(err)
	}
	return env, cfg
}

func runYCSB(b *testing.B, env *bench.Env, cfg ycsb.Config) {
	b.Helper()
	cfg.Operations = b.N
	if cfg.Operations < cfg.Threads {
		cfg.Operations = cfg.Threads
	}
	b.ResetTimer()
	res, err := ycsb.Run(env.Grid, cfg)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Errors != 0 {
		b.Fatalf("%d op errors", res.Errors)
	}
	b.ReportMetric(res.Throughput()/1000, "Kops/s")
}

// BenchmarkFig7YCSB is Figure 7: YCSB workloads A-D,F across the four
// persistent backends.
func BenchmarkFig7YCSB(b *testing.B) {
	for _, w := range []string{"A", "B", "C", "D", "F"} {
		for _, bk := range []bench.BackendKind{bench.JPDT, bench.JPFA, bench.FS, bench.PCJ} {
			b.Run(fmt.Sprintf("%s/%s", w, bk), func(b *testing.B) {
				env, cfg := newLoadedEnv(b, bk, fig7Cache(bk))
				defer env.Close()
				wcfg := ycsb.MustWorkload(w)
				wcfg.RecordCount = cfg.RecordCount
				wcfg = wcfg.Defaults()
				runYCSB(b, env, wcfg)
			})
		}
	}
}

func fig7Cache(bk bench.BackendKind) int {
	if bk == bench.FS {
		return benchRecords / 10
	}
	return 0
}

// BenchmarkFig8Marshalling is Figure 8: YCSB-A over growing records on the
// marshalling backends.
func BenchmarkFig8Marshalling(b *testing.B) {
	for _, kb := range []int{1, 4, 10} {
		for _, bk := range []bench.BackendKind{bench.Volatile, bench.NullFS, bench.TmpFS, bench.FS} {
			b.Run(fmt.Sprintf("%dKB/%s", kb, bk), func(b *testing.B) {
				records := max(benchRecords/(2*kb), 100)
				env, err := bench.NewEnv(bench.GridConfig{
					Backend: bk, Records: records,
					FieldCount: 10, FieldLen: kb * 100,
					CacheEntries: records / 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer env.Close()
				cfg := ycsb.MustWorkload("A")
				cfg.RecordCount = records
				cfg.FieldLen = kb * 100
				cfg = cfg.Defaults()
				if err := ycsb.Load(env.Grid, cfg); err != nil {
					b.Fatal(err)
				}
				runYCSB(b, env, cfg)
			})
		}
	}
}

// BenchmarkFig9aCacheRatio is Figure 9a: YCSB-A latency vs cache ratio.
func BenchmarkFig9aCacheRatio(b *testing.B) {
	for _, ratio := range []int{0, 10, 100} {
		for _, bk := range []bench.BackendKind{bench.JPDT, bench.FS} {
			b.Run(fmt.Sprintf("cache=%d%%/%s", ratio, bk), func(b *testing.B) {
				env, cfg := newLoadedEnv(b, bk, benchRecords*ratio/100)
				defer env.Close()
				runYCSB(b, env, cfg)
			})
		}
	}
}

// BenchmarkFig9bRecords is Figure 9b: YCSB-A latency vs record count.
func BenchmarkFig9bRecords(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		for _, bk := range []bench.BackendKind{bench.JPDT, bench.FS} {
			b.Run(fmt.Sprintf("records=%d/%s", n, bk), func(b *testing.B) {
				env, err := bench.NewEnv(bench.GridConfig{
					Backend: bk, Records: n * 2,
					FieldCount: benchFields, FieldLen: benchFldLen,
					CacheEntries: n / 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer env.Close()
				cfg := ycsb.MustWorkload("A")
				cfg.RecordCount = n
				cfg = cfg.Defaults()
				if err := ycsb.Load(env.Grid, cfg); err != nil {
					b.Fatal(err)
				}
				runYCSB(b, env, cfg)
			})
		}
	}
}

// BenchmarkFig9cFields is Figure 9c: YCSB-A latency vs field count at a
// constant dataset size.
func BenchmarkFig9cFields(b *testing.B) {
	const datasetBytes = 4 << 20
	for _, fc := range []int{10, 100} {
		for _, bk := range []bench.BackendKind{bench.JPDT, bench.FS} {
			b.Run(fmt.Sprintf("fields=%d/%s", fc, bk), func(b *testing.B) {
				records := max(datasetBytes/(fc*100), 50)
				env, err := bench.NewEnv(bench.GridConfig{
					Backend: bk, Records: records * 2,
					FieldCount: fc, FieldLen: 100,
					CacheEntries: records / 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer env.Close()
				cfg := ycsb.MustWorkload("A")
				cfg.RecordCount, cfg.FieldCount, cfg.FieldLen = records, fc, 100
				cfg = cfg.Defaults()
				if err := ycsb.Load(env.Grid, cfg); err != nil {
					b.Fatal(err)
				}
				runYCSB(b, env, cfg)
			})
		}
	}
}

// BenchmarkFig9dRecordSize is Figure 9d: YCSB-A latency vs record size at
// a constant dataset size.
func BenchmarkFig9dRecordSize(b *testing.B) {
	const datasetBytes = 8 << 20
	for _, kb := range []int{1, 10} {
		for _, bk := range []bench.BackendKind{bench.JPDT, bench.FS} {
			b.Run(fmt.Sprintf("record=%dKB/%s", kb, bk), func(b *testing.B) {
				records := max(datasetBytes/(kb<<10), 20)
				env, err := bench.NewEnv(bench.GridConfig{
					Backend: bk, Records: records * 2,
					FieldCount: 10, FieldLen: kb * 100,
					CacheEntries: records / 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer env.Close()
				cfg := ycsb.MustWorkload("A")
				cfg.RecordCount, cfg.FieldLen = records, kb*100
				cfg = cfg.Defaults()
				if err := ycsb.Load(env.Grid, cfg); err != nil {
					b.Fatal(err)
				}
				runYCSB(b, env, cfg)
			})
		}
	}
}

// BenchmarkFig10Threads is Figure 10: multi-threaded YCSB-A and YCSB-C.
func BenchmarkFig10Threads(b *testing.B) {
	for _, w := range []string{"A", "C"} {
		for _, th := range []int{1, 4} {
			for _, bk := range []bench.BackendKind{bench.JPDT, bench.FS, bench.Volatile} {
				b.Run(fmt.Sprintf("%s/threads=%d/%s", w, th, bk), func(b *testing.B) {
					env, _ := newLoadedEnv(b, bk, fig7Cache(bk))
					defer env.Close()
					cfg := ycsb.MustWorkload(w)
					cfg.RecordCount = benchRecords
					cfg.Threads = th
					cfg = cfg.Defaults()
					runYCSB(b, env, cfg)
				})
			}
		}
	}
}

// BenchmarkFig11Recovery is Figure 11: the restart path (redo-log
// recovery + reachability GC + mirror rebuild) per system flavor, over a
// populated bank.
func BenchmarkFig11Recovery(b *testing.B) {
	const accounts = 5_000
	for _, mode := range []struct {
		name string
		nogc bool
	}{{"J-PFA", false}, {"J-PFA-nogc", true}} {
		b.Run(mode.name, func(b *testing.B) {
			pool := nvm.New(accounts*512+(16<<20), nvm.Options{})
			bank, err := tpcb.OpenJNVMBank(pool, accounts, mode.nogc)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				if err := bank.Transfer(i%accounts, (i*7+1)%accounts, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tpcb.OpenJNVMBank(pool, accounts, mode.nogc); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(accounts)/float64(b.Elapsed().Nanoseconds()/int64(b.N))*1e9, "accounts/s")
		})
	}
}

// BenchmarkFig12DataTypes is Figure 12: per-op cost of YCSB-A directly on
// the data types, persistent vs volatile.
func BenchmarkFig12DataTypes(b *testing.B) {
	rows, err := bench.Fig12(bench.Scale{Records: 2_000, Operations: 1}) // warm a tiny instance to reuse code paths
	_ = rows
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		structure string
		impl      string
	}{
		{"HashMap", "Volatile"}, {"HashMap", "J-PDT"},
		{"TreeMap", "Volatile"}, {"TreeMap", "J-PDT"},
		{"SkipListMap", "Volatile"}, {"SkipListMap", "J-PDT"},
	} {
		b.Run(v.structure+"/"+v.impl, func(b *testing.B) {
			rows, err := bench.Fig12(bench.Scale{Records: 2_000, Operations: b.N})
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				if r.Structure == v.structure && r.Impl == v.impl {
					b.ReportMetric(float64(r.Completion.Nanoseconds())/float64(b.N), "ns/op-measured")
				}
			}
		})
	}
}

// BenchmarkFig1GCCacheRatio is Figure 1: the managed-cache GC cost at
// growing cache ratios.
func BenchmarkFig1GCCacheRatio(b *testing.B) {
	for _, ratio := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("cache=%d%%", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.Fig1(bench.Scale{Records: 8_000, Operations: 16_000}, []int{ratio}, 2)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].GCShare*100, "gc%")
				b.ReportMetric(float64(rows[0].P9999.Nanoseconds()), "p9999-ns")
			}
		})
	}
}

// BenchmarkFig2GoPmemGC is Figure 2: the go-pmem-style GC cost as the
// persistent dataset grows.
func BenchmarkFig2GoPmemGC(b *testing.B) {
	for _, mb := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("dataset=%dMB", mb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.Fig2(bench.Scale{Operations: 20_000}, []int{mb}, 2)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].GCShare*100, "gc%")
				b.ReportMetric(rows[0].Completion.Seconds()*1000, "completion-ms")
			}
		})
	}
}

// BenchmarkTable3BlockAccess is Table 3: 256 B block bandwidth through
// the framework vs a native loop.
func BenchmarkTable3BlockAccess(b *testing.B) {
	for i := 0; i < 1; i++ { // the sub-benchmarks run the full grid once per iteration
	}
	patterns := []struct {
		path string
		seq  bool
		wr   bool
	}{
		{"J-NVM", true, false}, {"native", true, false},
		{"J-NVM", true, true}, {"native", true, true},
		{"J-NVM", false, false}, {"native", false, false},
		{"J-NVM", false, true}, {"native", false, true},
	}
	for _, p := range patterns {
		name := fmt.Sprintf("%s/seq=%v/write=%v", p.path, p.seq, p.wr)
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				rows, err := bench.Table3(16)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Path == p.path && r.Sequential == p.seq && r.Write == p.wr {
						total += r.GBps
					}
				}
			}
			b.ReportMetric(total/float64(b.N), "GB/s")
		})
	}
}

// BenchmarkRecoveryGCThroughput measures the raw recovery traversal rate
// (supporting §5.3.3's restart-delay analysis).
func BenchmarkRecoveryGCThroughput(b *testing.B) {
	pool := nvm.New(64<<20, nvm.Options{})
	bank, err := tpcb.OpenJNVMBank(pool, 20_000, false)
	if err != nil {
		b.Fatal(err)
	}
	_ = bank
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bk, err := tpcb.OpenJNVMBank(pool, 20_000, false)
		if err != nil {
			b.Fatal(err)
		}
		if bk.Heap().RecoveryStats.LiveObjects == 0 {
			b.Fatal("no recovery work")
		}
	}
}

// BenchmarkGCSimMark measures the tri-color mark rate of the gcsim
// collector (the per-object cost behind Figures 1-2).
func BenchmarkGCSimMark(b *testing.B) {
	h := gcsim.New(1 << 40)
	r := gcsim.NewRedisLike(h, 4096)
	for i := 0; i < 50_000; i++ {
		r.Set(fmt.Sprintf("k%d", i), make([]byte, 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Collect()
	}
	b.StopTimer()
	st := h.Stats()
	b.ReportMetric(float64(st.MarkedObjects)/b.Elapsed().Seconds()/1e6, "Mobj/s")
	_ = time.Now
}

// BenchmarkAblationValidationBatching isolates §3.2.3: publishing objects
// under one fence per batch instead of one fence per object.
func BenchmarkAblationValidationBatching(b *testing.B) {
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.AblationValidation(5_000, 120)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Variant == fmt.Sprintf("batch=%d", batch) {
						b.ReportMetric(r.NsPerOp, "ns/publish")
					}
				}
			}
		})
	}
}

// BenchmarkAblationSmallPool isolates §4.4: pooled small immutables vs
// one block per object.
func BenchmarkAblationSmallPool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationSmallPool(20_000, 100)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Aux, r.Variant+"-bytes/obj")
		}
	}
}

// BenchmarkAblationLogSlots isolates §4.2's per-thread logs: concurrent
// failure-atomic throughput vs available log slots.
func BenchmarkAblationLogSlots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationLogSlots(500, 8)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Aux, r.Variant+"-Kops/s")
		}
	}
}

// BenchmarkAblationFenceCost sweeps the modeled NVMM fence latency — how
// the J-PDT update cost moves across persistent-memory generations.
func BenchmarkAblationFenceCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationFenceCost(5_000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.NsPerOp, r.Variant)
		}
	}
}
