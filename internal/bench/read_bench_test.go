package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
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
