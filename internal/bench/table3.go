package bench

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
)

func newRand() *rand.Rand { return rand.New(rand.NewSource(99)) }

// Table3Row is one cell of Table 3: GB/s for a (path, pattern, direction)
// combination over 256 B blocks, plus the persistence-primitive rates for
// that cell measured by the shared obs layer (pwb and pfence issued per
// block access — the paper's flush/fence accounting).
type Table3Row struct {
	Path        string // "J-NVM" (framework accessors) or "native" (raw copy)
	Sequential  bool
	Write       bool
	GBps        float64
	PWBPerOp    float64
	PFencePerOp float64
}

// Table3 measures 256 B block access throughput through the framework
// accessor path (proxy + bounds checks + block-chain arithmetic, the
// paper's "J-NVM" row) versus a raw memory loop (the paper's "C" row).
// Writes flush the block and fence, as §5.3.5 describes; reads are plain
// loads. The shape to reproduce: the framework is close to native except
// on random reads, where the per-access indirection bites hardest.
func Table3(totalMB int) ([]Table3Row, error) {
	if totalMB == 0 {
		totalMB = 64
	}
	const blockSize = 256
	poolBytes := totalMB << 20
	pool := nvm.New(poolBytes+(8<<20), nvm.Options{})
	cls := &core.Class{Name: "bench.blob", Factory: func(o *core.Object) core.PObject { return o }}
	h, err := core.Open(pool, core.Config{
		HeapOptions: heap.Options{LogSlots: 2, LogSlotSize: 4096},
		Classes:     []*core.Class{cls},
	})
	if err != nil {
		return nil, err
	}
	po, err := h.Alloc(cls, uint64(poolBytes/2))
	if err != nil {
		return nil, err
	}
	obj := po.Core()
	nBlocks := obj.Size() / blockSize

	native := make([]byte, nBlocks*blockSize)
	buf := make([]byte, blockSize)

	seq := make([]uint64, nBlocks)
	for i := range seq {
		seq[i] = uint64(i)
	}
	rnd := make([]uint64, nBlocks)
	copy(rnd, seq)
	newRand().Shuffle(len(rnd), func(i, j int) { rnd[i], rnd[j] = rnd[j], rnd[i] })

	// measure times one access pattern and reads the pwb/pfence counts for
	// the interval from the pool's obs counters, normalized per block
	// access — the cell's primitive rate columns.
	measure := func(row Table3Row, idx []uint64, fn func(off uint64)) Table3Row {
		const passes = 2
		before := pool.Obs().Snapshot()
		start := time.Now()
		for p := 0; p < passes; p++ {
			for _, b := range idx {
				fn(b * blockSize)
			}
		}
		elapsed := time.Since(start)
		d := pool.Obs().Snapshot().Sub(before)
		ops := float64(passes) * float64(len(idx))
		row.GBps = ops * blockSize / elapsed.Seconds() / 1e9
		row.PWBPerOp = float64(d.PWBs) / ops
		row.PFencePerOp = float64(d.Fences()) / ops
		return row
	}

	jnvmRead := func(off uint64) { obj.ReadInto(off, buf) }
	jnvmWrite := func(off uint64) {
		obj.WriteBytes(off, buf)
		obj.PWBField(off, blockSize)
		obj.PFence()
	}
	nativeRead := func(off uint64) { copy(buf, native[off:off+blockSize]) }
	nativeWrite := func(off uint64) {
		copy(native[off:off+blockSize], buf)
		pool.PWBRange(0, blockSize) // same flush protocol cost
		pool.PFence()
	}

	return []Table3Row{
		measure(Table3Row{Path: "J-NVM", Sequential: true, Write: false}, seq, jnvmRead),
		measure(Table3Row{Path: "native", Sequential: true, Write: false}, seq, nativeRead),
		measure(Table3Row{Path: "J-NVM", Sequential: true, Write: true}, seq, jnvmWrite),
		measure(Table3Row{Path: "native", Sequential: true, Write: true}, seq, nativeWrite),
		measure(Table3Row{Path: "J-NVM", Sequential: false, Write: false}, rnd, jnvmRead),
		measure(Table3Row{Path: "native", Sequential: false, Write: false}, rnd, nativeRead),
		measure(Table3Row{Path: "J-NVM", Sequential: false, Write: true}, rnd, jnvmWrite),
		measure(Table3Row{Path: "native", Sequential: false, Write: true}, rnd, nativeWrite),
	}, nil
}

// FragRow is one record shape of §5.3.5's fragmentation accounting: the
// user bytes of a 10-field record and the raw block bytes it occupies
// stored contiguously as one chained object.
type FragRow struct {
	FieldLen  int
	User, Raw uint64
}

// Fragmentation reproduces the §5.3.5 numbers: space lost to block
// headers and rounding at 100 B, 1 KB and 10 KB fields.
func Fragmentation() []FragRow {
	var rows []FragRow
	for _, fieldLen := range []int{100, 1_000, 10_240} {
		user := uint64(10 * fieldLen)
		rows = append(rows, FragRow{fieldLen, user, uint64(heap.BlocksFor(user)) * heap.BlockSize})
	}
	return rows
}
