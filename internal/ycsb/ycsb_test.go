package ycsb

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/store"
)

func TestWorkloadPresets(t *testing.T) {
	cases := map[string]struct{ read, update, insert, rmw float64 }{
		"A": {0.5, 0.5, 0, 0},
		"B": {0.95, 0.05, 0, 0},
		"C": {1, 0, 0, 0},
		"D": {0.95, 0, 0.05, 0},
		"F": {0.5, 0, 0, 0.5},
	}
	for name, want := range cases {
		c, err := Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.ReadProp != want.read || c.UpdateProp != want.update ||
			c.InsertProp != want.insert || c.RMWProp != want.rmw {
			t.Fatalf("workload %s: %+v", name, c)
		}
	}
	// The paper skips E (scans), and so does the driver.
	for _, name := range []string{"E", "Z"} {
		if _, err := Workload(name); err == nil {
			t.Fatalf("workload %s accepted", name)
		}
	}
}

func TestZipfianBounds(t *testing.T) {
	for _, n := range []int{2, 10, 1000, 100000} {
		z := NewZipfian(n)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			v := z.Next(rng)
			if v < 0 || v >= n {
				t.Fatalf("n=%d: out of range %d", n, v)
			}
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	const n = 10000
	z := NewZipfian(n)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, n)
	for i := 0; i < 200000; i++ {
		counts[z.Next(rng)]++
	}
	top := counts[0]
	if top < 10000 {
		t.Fatalf("hottest key drew only %d/200000", top)
	}
	tail := 0
	for _, c := range counts[n/2:] {
		tail += c
	}
	if tail > 40000 {
		t.Fatalf("cold half drew %d/200000 — not skewed", tail)
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	const n = 10000
	s := NewScrambledZipfian(n)
	rng := rand.New(rand.NewSource(3))
	counts := make(map[int]int)
	for i := 0; i < 100000; i++ {
		v := s.Next(rng)
		if v < 0 || v >= n {
			t.Fatalf("out of range %d", v)
		}
		counts[v]++
	}
	// Still skewed (few keys dominate)...
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 5000 {
		t.Fatalf("hottest key drew only %d", maxC)
	}
	// ...but the hot keys are spread away from index 0.
	if counts[0] == maxC && counts[1] != 0 && counts[0] > 2*counts[1] {
		t.Log("scramble left index 0 hottest; acceptable but unusual")
	}
}

func TestLatestPrefersRecent(t *testing.T) {
	var count atomic.Int64
	count.Store(1000)
	l := NewLatest(&count)
	rng := rand.New(rand.NewSource(4))
	recent := 0
	for i := 0; i < 10000; i++ {
		v := l.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range %d", v)
		}
		if v >= 900 {
			recent++
		}
	}
	if recent < 5000 {
		t.Fatalf("only %d/10000 hits in the newest 10%%", recent)
	}
	// Growing the space keeps it in range and recency-biased.
	count.Store(2000)
	for i := 0; i < 1000; i++ {
		v := l.Next(rng)
		if v < 0 || v >= 2000 {
			t.Fatalf("post-growth out of range %d", v)
		}
	}
}

func TestUniformCoversSpace(t *testing.T) {
	var count atomic.Int64
	count.Store(100)
	u := NewUniform(&count)
	rng := rand.New(rand.NewSource(5))
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		seen[u.Next(rng)] = true
	}
	if len(seen) < 95 {
		t.Fatalf("uniform covered only %d/100 keys", len(seen))
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	p50 := h.Percentile(0.5)
	if p50 < 400*time.Microsecond || p50 > 650*time.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Percentile(0.99)
	if p99 < 900*time.Microsecond || p99 > 1100*time.Microsecond {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Max() != time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 450*time.Microsecond || mean > 550*time.Microsecond {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for i := 0; i < 100; i++ {
		a.Record(time.Microsecond)
		b.Record(time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count %d", a.Count())
	}
	if a.Percentile(0.25) > 10*time.Microsecond {
		t.Fatal("low half lost in merge")
	}
	if a.Percentile(0.9) < 500*time.Microsecond {
		t.Fatal("high half lost in merge")
	}
}

func TestQuickHistogramPercentileMonotonic(t *testing.T) {
	f := func(durs []uint32) bool {
		h := &Histogram{}
		for _, d := range durs {
			h.Record(time.Duration(d%10_000_000) + 1)
		}
		last := time.Duration(0)
		for _, p := range []float64{0.1, 0.5, 0.9, 0.99, 0.9999} {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestValueDeterminism(t *testing.T) {
	a := make([]byte, 100)
	b := make([]byte, 100)
	buildValue(a, 7, 3, 1)
	buildValue(b, 7, 3, 1)
	if string(a) != string(b) {
		t.Fatal("value generation not deterministic")
	}
	buildValue(b, 7, 3, 2)
	if string(a) == string(b) {
		t.Fatal("versions produce identical values")
	}
}

func TestLoadAndRunAgainstGrid(t *testing.T) {
	g := store.NewGrid(store.NewVolatileBackend(), store.Options{})
	cfg := MustWorkload("A")
	cfg.RecordCount = 500
	cfg.Operations = 2000
	cfg.Threads = 4
	cfg = cfg.Defaults()
	if err := Load(g, cfg); err != nil {
		t.Fatal(err)
	}
	if g.Count() != 500 {
		t.Fatalf("loaded %d records", g.Count())
	}
	res, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d op errors", res.Errors)
	}
	if res.Operations != 2000 {
		t.Fatalf("ran %d ops", res.Operations)
	}
	if res.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
	if res.PerOp[OpRead].Count() == 0 || res.PerOp[OpUpdate].Count() == 0 {
		t.Fatal("op mix missing reads or updates")
	}
	// Roughly 50/50.
	r, u := float64(res.PerOp[OpRead].Count()), float64(res.PerOp[OpUpdate].Count())
	if r/(r+u) < 0.4 || r/(r+u) > 0.6 {
		t.Fatalf("op mix off: %v reads vs %v updates", r, u)
	}
}

func TestWorkloadDInsertsGrow(t *testing.T) {
	g := store.NewGrid(store.NewVolatileBackend(), store.Options{})
	cfg := MustWorkload("D")
	cfg.RecordCount = 300
	cfg.Operations = 2000
	cfg.Threads = 2
	cfg = cfg.Defaults()
	if err := Load(g, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if g.Count() <= 300 {
		t.Fatal("workload D inserted nothing")
	}
}

// slowInsertDB widens the window between an insert being handed its index
// and the record existing: Insert yields before it delegates.
type slowInsertDB struct{ DB }

func (d slowInsertDB) Insert(key string, rec *store.Record) error {
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	return d.DB.Insert(key, rec)
}

// TestInsertedKeysPublishedAfterInsert: the latest chooser favours the
// newest key, so a key published before its Insert returns is read by the
// other thread while it does not exist yet, and counted as an error.
func TestInsertedKeysPublishedAfterInsert(t *testing.T) {
	g := store.NewGrid(store.NewVolatileBackend(), store.Options{})
	cfg := MustWorkload("D")
	cfg.RecordCount = 300
	cfg.Operations = 4000
	cfg.Threads = 4
	cfg = cfg.Defaults()
	if err := Load(g, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(slowInsertDB{g}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d reads of keys whose insert had not returned", res.Errors)
	}
	if inserts := res.PerOp[OpInsert].Count(); g.Count() != 300+int(inserts) {
		t.Fatalf("%d records after %d inserts over 300", g.Count(), inserts)
	}
}

func TestWorkloadFRMW(t *testing.T) {
	g := store.NewGrid(store.NewVolatileBackend(), store.Options{})
	cfg := MustWorkload("F")
	cfg.RecordCount = 200
	cfg.Operations = 1000
	cfg = cfg.Defaults()
	if err := Load(g, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.PerOp[OpRMW].Count() == 0 {
		t.Fatalf("rmw missing: errs=%d", res.Errors)
	}
}

func TestRunRejectsBadProportions(t *testing.T) {
	cfg := Config{Name: "bad", ReadProp: 0.2}
	if _, err := Run(store.NewGrid(store.NewVolatileBackend(), store.Options{}), cfg); err == nil {
		t.Fatal("bad proportions accepted")
	}
	cfg = MustWorkload("A")
	cfg.Distribution = "nope"
	if _, err := Run(store.NewGrid(store.NewVolatileBackend(), store.Options{}), cfg); err == nil {
		t.Fatal("bad distribution accepted")
	}
}
