package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/pdt"
	"repro/internal/stack"
	"repro/internal/ycsb"
)

// Fig12Row is one bar of Figure 12: YCSB-A run directly on a data type.
type Fig12Row struct {
	Structure  string // "HashMap", "TreeMap", "SkipListMap", "Blackhole"
	Impl       string // "Volatile" or "J-PDT"
	Completion time.Duration
	ReadMean   time.Duration
	UpdateMean time.Duration
}

// kvType abstracts a string->bytes map for the Figure 12 comparison.
type kvType interface {
	get(key string) []byte
	put(key string, val []byte)
}

type volHash struct{ m map[string][]byte }

func (v *volHash) get(k string) []byte    { return v.m[k] }
func (v *volHash) put(k string, b []byte) { v.m[k] = b }

type volTree struct{ t *container.RBTree[[]byte] }

func (v *volTree) get(k string) []byte    { b, _ := v.t.Get(k); return b }
func (v *volTree) put(k string, b []byte) { v.t.Put(k, b) }

type volSkip struct{ s *container.SkipList[[]byte] }

func (v *volSkip) get(k string) []byte    { b, _ := v.s.Get(k); return b }
func (v *volSkip) put(k string, b []byte) { v.s.Put(k, b) }

type blackhole struct{ sink int }

func (b *blackhole) get(k string) []byte    { b.sink += len(k); return nil }
func (b *blackhole) put(k string, v []byte) { b.sink += len(v) }

type pdtKV struct {
	h *core.Heap
	m *pdt.Map
}

func (p *pdtKV) get(k string) []byte {
	po, err := p.m.Get(k)
	if err != nil || po == nil {
		return nil
	}
	return po.(*pdt.PBytes).Value()
}

func (p *pdtKV) put(k string, v []byte) {
	b, err := pdt.NewBytes(p.h, v)
	if err != nil {
		panic(err)
	}
	if err := p.m.Put(k, b); err != nil {
		panic(err)
	}
}

// Fig12 runs YCSB-A (50% read, 50% update, zipfian) directly on the three
// map structures, persistent (J-PDT) versus volatile, plus the Blackhole
// injection baseline. The paper's finding to reproduce: J-PDT lands
// 45-50% slower than its volatile counterpart. Values are 100 bytes; the
// scale defaults to 20 000 keys and 80 000 operations.
func Fig12(sc Scale) ([]Fig12Row, error) {
	const valLen = 100
	records, ops := sc.Records, sc.Operations
	if records == 0 {
		records = 20_000
	}
	if ops == 0 {
		ops = 80_000
	}
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%09d", i)
	}
	val := make([]byte, valLen)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	z := ycsb.NewScrambledZipfian(records)
	rng := newRand()
	idx := make([]int, 1<<15)
	reads := make([]bool, len(idx))
	for i := range idx {
		idx[i] = z.Next(rng)
		reads[i] = rng.Intn(2) == 0
	}

	newPDT := func(kind pdt.MirrorKind) (kvType, error) {
		pool := nvm.New(stack.EstimatePoolBytes(records, 1, valLen)+records*512,
			nvm.Options{FenceLatency: DefaultFenceNs})
		st, err := stack.Open(pool, stack.Config{LogSlots: 4, LogSlotSize: 1 << 14})
		if err != nil {
			return nil, err
		}
		h := st.Heap
		m, err := pdt.NewMap(h, kind)
		if err != nil {
			return nil, err
		}
		if err := h.Root().Put("kv", m); err != nil {
			return nil, err
		}
		return &pdtKV{h: h, m: m}, nil
	}

	type variant struct {
		structure string
		impl      string
		build     func() (kvType, error)
	}
	variants := []variant{
		{"Blackhole", "-", func() (kvType, error) { return &blackhole{}, nil }},
		{"HashMap", "Volatile", func() (kvType, error) { return &volHash{m: make(map[string][]byte)}, nil }},
		{"HashMap", "J-PDT", func() (kvType, error) { return newPDT(pdt.MirrorHash) }},
		{"TreeMap", "Volatile", func() (kvType, error) { return &volTree{t: container.NewRBTree[[]byte]()}, nil }},
		{"TreeMap", "J-PDT", func() (kvType, error) { return newPDT(pdt.MirrorTree) }},
		{"SkipListMap", "Volatile", func() (kvType, error) { return &volSkip{s: container.NewSkipList[[]byte](7)}, nil }},
		{"SkipListMap", "J-PDT", func() (kvType, error) { return newPDT(pdt.MirrorSkip) }},
	}

	var rows []Fig12Row
	for _, v := range variants {
		kv, err := v.build()
		if err != nil {
			return nil, err
		}
		if v.structure != "Blackhole" {
			for _, k := range keys {
				kv.put(k, val)
			}
		}
		// Collect the garbage earlier variants left (a J-PDT variant drops
		// its whole pool), so the GC does not bill it to this one's timing.
		runtime.GC()
		var readHist, updHist ycsb.Histogram
		start := time.Now()
		for i := 0; i < ops; i++ {
			j := i % len(idx)
			key := keys[idx[j]]
			t0 := time.Now()
			if reads[j] {
				kv.get(key)
				readHist.Record(time.Since(t0))
			} else {
				kv.put(key, val)
				updHist.Record(time.Since(t0))
			}
		}
		rows = append(rows, Fig12Row{
			Structure:  v.structure,
			Impl:       v.impl,
			Completion: time.Since(start),
			ReadMean:   readHist.Mean(),
			UpdateMean: updHist.Mean(),
		})
	}
	return rows, nil
}

// PrintFig12 renders the Figure 12 comparison.
func PrintFig12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintf(w, "Figure 12 — persistent vs volatile data types (YCSB-A)\n")
	fmt.Fprintf(w, "%-14s%-10s%14s%14s%14s\n", "structure", "impl", "completion", "read", "update")
	byStruct := map[string]map[string]time.Duration{}
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s%-10s%14s%14s%14s\n", r.Structure, r.Impl,
			round(r.Completion), round(r.ReadMean), round(r.UpdateMean))
		if byStruct[r.Structure] == nil {
			byStruct[r.Structure] = map[string]time.Duration{}
		}
		byStruct[r.Structure][r.Impl] = r.Completion
	}
	for _, s := range []string{"HashMap", "TreeMap", "SkipListMap"} {
		m := byStruct[s]
		if m["Volatile"] > 0 && m["J-PDT"] > 0 {
			slow := float64(m["J-PDT"])/float64(m["Volatile"]) - 1
			fmt.Fprintf(w, "# %s: J-PDT %.0f%% slower than volatile (paper: 45-50%%)\n", s, slow*100)
		}
	}
}
