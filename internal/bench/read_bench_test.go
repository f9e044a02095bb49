package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pdt"
	"repro/internal/store"
	"repro/internal/ycsb"
)

// Read-path allocation benchmarks (DESIGN.md §14): run with
// `make bench-read` (or `go test ./internal/bench -bench 'MapGet|GridRead'
// -benchmem`). scripts/check_allocs.sh gates the allocation-free variants
// in CI.

const mapBenchEntries = 4096

// benchKeys pre-renders the key set so key formatting never pollutes the
// measured allocation counts.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = ycsb.Key(i)
	}
	return keys
}

func newBenchHeap(tb testing.TB) *core.Heap {
	tb.Helper()
	pool := nvm.New(256<<20, nvm.Options{})
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 8, LogSlotSize: 1 << 12},
		Classes:     append(pdt.Classes(), store.Classes()...),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

func buildBenchMap(tb testing.TB, h *core.Heap, kind pdt.MirrorKind) *pdt.Map {
	tb.Helper()
	m, err := pdt.NewMap(h, kind)
	if err != nil {
		tb.Fatal(err)
	}
	if err := h.Root().Put(fmt.Sprintf("bench.map.%d", kind), m); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < mapBenchEntries; i++ {
		v, err := pdt.NewString(h, fmt.Sprintf("value-%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		if err := m.Put(ycsb.Key(i), v); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// BenchmarkMapGet covers the J-PDT map read path across every mirror kind
// and proxy-cache variant, plus the allocation-free GetRef fast path the
// grid's zero-copy reader uses. CacheNone Get resurrects a proxy per call
// and therefore allocates by design; the cached variants and GetRef must
// not.
func BenchmarkMapGet(b *testing.B) {
	kinds := []struct {
		name string
		kind pdt.MirrorKind
	}{
		{"hash", pdt.MirrorHash},
		{"tree", pdt.MirrorTree},
		{"skip", pdt.MirrorSkip},
	}
	for _, k := range kinds {
		h := newBenchHeap(b)
		m := buildBenchMap(b, h, k.kind)
		modes := []struct {
			name  string
			setup func() error
		}{
			{"base", func() error { return m.SetCacheMode(pdt.CacheNone) }},
			{"cached", func() error { return m.SetCacheMode(pdt.CacheOnDemand) }},
			{"eager", func() error { return m.SetCacheMode(pdt.CacheEager) }},
		}
		keys := benchKeys(mapBenchEntries)
		for _, mode := range modes {
			b.Run(k.name+"/"+mode.name, func(b *testing.B) {
				if err := mode.setup(); err != nil {
					b.Fatal(err)
				}
				// Warm pass: fills the on-demand proxy cache so the
				// measured loop reports its steady state.
				for _, key := range keys {
					if _, err := m.Get(key); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					po, err := m.Get(keys[i%mapBenchEntries])
					if err != nil || po == nil {
						b.Fatal("miss")
					}
				}
			})
		}
		b.Run(k.name+"/getref", func(b *testing.B) {
			if err := m.SetCacheMode(pdt.CacheNone); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.GetRef(keys[i%mapBenchEntries]) == 0 {
					b.Fatal("miss")
				}
			}
		})
	}
}

const gridBenchRecords = 2048

func newBenchGrid(b *testing.B, backend BackendKind, commit string, cacheEntries, fieldLen int) *Env {
	b.Helper()
	env, err := NewEnv(GridConfig{
		Backend: backend, Records: gridBenchRecords * 2,
		FieldCount: 10, FieldLen: fieldLen,
		CacheEntries: cacheEntries,
		FenceNs:      0, // default
		Commit:       commit,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := ycsb.Config{RecordCount: gridBenchRecords, FieldCount: 10, FieldLen: fieldLen}.Defaults()
	if err := ycsb.Load(env.Grid, cfg); err != nil {
		b.Fatal(err)
	}
	// Land queued async inserts: the measured reads find every record.
	env.DrainDurable()
	return env
}

func benchGridRead(b *testing.B, g *store.Grid, span int) {
	b.Helper()
	keys := benchKeys(span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Read(keys[i%span], func(string, []byte) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridRead covers the four grid read regimes: the seqlock
// zero-copy fast path (must be allocation-free; on J-PDT and on J-PFA in
// both commit modes), the locked copy fallback (chained values defeat the
// view reader), and hits and misses of the FS family's record cache
// (store.Cached, here over the Volatile backend, whose reads allocate
// nothing of their own).
func BenchmarkGridRead(b *testing.B) {
	for _, zc := range []struct {
		name, commit string
		backend      BackendKind
	}{
		{"zerocopy", "", JPDT},
		{"zerocopy_jpfa", "per-tx", JPFA},
		{"zerocopy_jpfa_async", "async", JPFA},
	} {
		b.Run(zc.name, func(b *testing.B) {
			env := newBenchGrid(b, zc.backend, zc.commit, 0, 100)
			defer env.Close()
			benchGridRead(b, env.Grid, gridBenchRecords)
			if snap := env.Grid.ObsSnapshot(); snap.ZeroCopyHits == 0 || snap.CopyFallbacks != 0 {
				b.Fatalf("zero-copy hits %d, fallbacks %d: want only zero-copy reads",
					snap.ZeroCopyHits, snap.CopyFallbacks)
			}
		})
	}
	b.Run("copyfallback", func(b *testing.B) {
		// 400-byte values span blocks, which the unlocked view reader
		// refuses; every read falls back to the stripe lock.
		env := newBenchGrid(b, JPDT, "", 0, 400)
		defer env.Close()
		benchGridRead(b, env.Grid, gridBenchRecords)
		if fb := env.Grid.ObsSnapshot().CopyFallbacks; fb == 0 {
			b.Fatal("copy fallback never taken")
		}
	})
	b.Run("cachehit", func(b *testing.B) {
		env := newBenchGrid(b, Volatile, "", gridBenchRecords*2, 100)
		defer env.Close()
		// One warmup pass so every benchmark read hits the cache.
		for i := 0; i < gridBenchRecords; i++ {
			if err := env.Grid.Read(ycsb.Key(i), func(string, []byte) {}); err != nil {
				b.Fatal(err)
			}
		}
		benchGridRead(b, env.Grid, gridBenchRecords)
	})
	b.Run("cachemiss", func(b *testing.B) {
		// A cache far smaller than the keyspace keeps the hit rate near
		// zero while still exercising the fill path.
		env := newBenchGrid(b, Volatile, "", 128, 100)
		defer env.Close()
		benchGridRead(b, env.Grid, gridBenchRecords)
	})
}

// layerSink keeps BenchmarkGridLayer's read consumer from being dead code.
var layerSink byte

// BenchmarkGridLayer times grid reads and single-field updates at the
// repo benchmark's record shape: 100 000 records of 10 x 100 B, keys
// drawn scrambled-zipfian, and a read consumer that touches every byte it
// is handed, so the value misses a read takes are in the time, as they
// are end to end. BenchmarkGridRead's 2 048 records stay cache-resident
// and cannot show them. J-PFA runs the per-Tx commit.
//
// Each sub-benchmark also reports the program's own sampled stage timers
// over its interval: a stage's mean (ns over the operations that were
// sampled, one in obs.StageSample) and stage-ns, the sum of the means.
// view-read and backend-update call the backend directly, as the repo
// benchmark's backend rung does (its read takes the locked Read; this
// one the view path the grid takes), so their ns/op is the figure
// stage-ns decomposes.
func BenchmarkGridLayer(b *testing.B) {
	const (
		records = 100_000
		fields  = 10
		drawn   = 1 << 16
	)
	for _, bk := range []struct {
		name    string
		backend BackendKind
		commit  string
	}{
		{"jpdt", JPDT, ""},
		{"jpfa", JPFA, "per-tx"},
	} {
		b.Run(bk.name, func(b *testing.B) {
			newEnv := func(b *testing.B, records int) *Env {
				env, err := NewEnv(GridConfig{Backend: bk.backend, Records: records, FieldCount: fields, FieldLen: 100, Commit: bk.commit})
				if err != nil {
					b.Fatal(err)
				}
				return env
			}
			// interval times op over b.N iterations and returns env's stack
			// counters of the timed interval.
			interval := func(b *testing.B, env *Env, op func(i int) error) obs.StackSnapshot {
				before := env.Snapshot()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op(i); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				return env.Snapshot().Sub(*before)
			}
			write := func(b *testing.B, d obs.StackSnapshot) {
				if f := d.FA; f != nil {
					reportStages(b, []stage{{"body", f.BodyNs}, {"stage1", f.Stage1Ns}, {"f0", f.F0Ns}, {"mark", f.MarkNs},
						{"f1", f.F1Ns}, {"apply", f.ApplyNs}, {"park", f.ParkNs}})
				}
			}
			cfg := ycsb.Config{RecordCount: records, FieldCount: fields, FieldLen: 100}.Defaults()
			// insert adds b.N fresh records to an empty grid, so every block
			// comes from the bump pointer as it does in a load; it runs
			// before the loaded grid below exists.
			b.Run("insert", func(b *testing.B) {
				env := newEnv(b, b.N)
				defer env.Close()
				d := interval(b, env, func(i int) error { return env.Grid.Insert(ycsb.Key(i), cfg.BuildRecord(i)) })
				write(b, d)
				b.ReportMetric(float64(d.Heap.BumpAllocs)/float64(b.N), "bump/op")
				b.ReportMetric(float64(d.Heap.ReuseAllocs)/float64(b.N), "reuse/op")
			})
			env := newEnv(b, records)
			defer env.Close()
			if err := ycsb.Load(env.Grid, cfg); err != nil {
				b.Fatal(err)
			}
			keys := benchKeys(records)
			rng := rand.New(rand.NewSource(1))
			zipf := ycsb.NewScrambledZipfian(records)
			order := make([]string, drawn)
			for i := range order {
				order[i] = keys[zipf.Next(rng)]
			}
			var sum byte
			consume := func(_ string, v []byte) {
				for _, c := range v {
					sum += c
				}
			}
			value := make([]byte, 100)
			update := make([][]store.Field, fields)
			for f := range update {
				update[f] = []store.Field{{Name: ycsb.FieldName(f), Value: value}}
			}
			read := func(b *testing.B, d obs.StackSnapshot) {
				g := d.Grid
				reportStages(b, []stage{{"getref", g.GetRefNs}, {"touch", g.TouchNs}, {"collect", g.CollectNs}, {"deliver", g.DeliverNs}})
			}
			b.Run("read", func(b *testing.B) {
				read(b, interval(b, env, func(i int) error { return env.Grid.Read(order[i%drawn], consume) }))
			})
			b.Run("view-read", func(b *testing.B) {
				vr, gen := env.Grid.Backend().Caps().View, new(atomic.Uint64)
				read(b, interval(b, env, func(i int) error {
					if found, _, ok := vr.ReadView(order[i%drawn], uint32(i), gen, 0, i%obs.StageSample == 0, consume); !found || !ok {
						return fmt.Errorf("view read of %q: found %v, served %v", order[i%drawn], found, ok)
					}
					return nil
				}))
			})
			b.Run("update", func(b *testing.B) {
				d := interval(b, env, func(i int) error { return env.Grid.Update(order[i%drawn], update[i%fields]) })
				write(b, d)
				reportStages(b, []stage{{"stripe", d.Grid.StripeWaitNs}, {"backend", d.Grid.BackendNs}})
			})
			b.Run("backend-update", func(b *testing.B) {
				write(b, interval(b, env, func(i int) error {
					ok, err := env.Grid.Backend().Update(order[i%drawn], update[i%fields])
					if err == nil && !ok {
						err = fmt.Errorf("update of %q: not found", order[i%drawn])
					}
					return err
				}))
			})
			layerSink = sum
		})
	}
}

// stage is one stage timer's interval histogram, by its metric name.
type stage struct {
	name string
	h    obs.HistogramSnapshot
}

// reportStages reports each stage's mean, in ns, and stage-ns, the sum
// of the means, when the interval sampled any.
func reportStages(b *testing.B, stages []stage) {
	total, sampled := 0.0, false
	for _, s := range stages {
		if s.h.Count == 0 {
			continue
		}
		mean := float64(s.h.Sum) / float64(s.h.Count)
		b.ReportMetric(mean, s.name+"-ns")
		total += mean
		sampled = true
	}
	if sampled {
		b.ReportMetric(total, "stage-ns")
	}
}
