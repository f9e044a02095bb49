package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/pdt"
	"repro/internal/stack"
)

// Ablations isolate the design choices DESIGN.md calls out: the deferred
// validation of §3.2.3, the small-object pools of §4.4, the per-thread
// redo-log slots of §4.2, and the sensitivity of J-PDT to the NVMM fence
// cost.

// AblationRow is one (variant, metric) measurement.
type AblationRow struct {
	Experiment string
	Variant    string
	NsPerOp    float64
	Aux        float64 // experiment-specific (blocks used, Kops/s, ...)
	AuxName    string
	// Fences counts the pfence/psync primitives the measured loop issued
	// (validation-batching and fence-cost): the cause of the NsPerOp
	// differences, and what the tests assert instead of wall clocks.
	Fences uint64
	// PWBs counts the cache-line write-backs of validation-batching's loop.
	PWBs uint64
}

// ablationHeap opens a bare stack with logSlots redo-log slots of 16 KiB.
func ablationHeap(fenceNs, bytes, logSlots int) (*core.Heap, *fa.Manager, error) {
	pool := nvm.New(bytes, nvm.Options{FenceLatency: fenceNs})
	st, err := stack.Open(pool, stack.Config{LogSlots: logSlots, LogSlotSize: 1 << 14})
	if err != nil {
		return nil, nil, err
	}
	return st.Heap, st.Mgr, nil
}

// AblationValidation compares publishing n fresh objects with one fence
// per object against the deferred-validation discipline of §3.2.3 (batch
// of validations under a single fence).
func AblationValidation(n int, fenceNs int) ([]AblationRow, error) {
	if n == 0 {
		n = 20_000
	}
	if fenceNs == 0 {
		fenceNs = DefaultFenceNs
	}
	run := func(batch int) (AblationRow, error) {
		row := AblationRow{Experiment: "validation-batching", Variant: fmt.Sprintf("batch=%d", batch), AuxName: "Kpub/s"}
		h, _, err := ablationHeap(fenceNs, n*320+(16<<20), 64)
		if err != nil {
			return row, err
		}
		arr, err := pdt.NewRefArray(h, n)
		if err != nil {
			return row, err
		}
		arr.Validate()
		h.PSync()
		cls := h.MustClass(pdt.ClassBytes)
		before := h.Pool().Obs().Snapshot()
		start := time.Now()
		for i := 0; i < n; i += batch {
			end := min(i+batch, n)
			for j := i; j < end; j++ {
				po, err := h.Alloc(cls, 64)
				if err != nil {
					return row, err
				}
				po.Core().WriteUint32(0, 60)
				po.Core().PWB()
				po.Core().Validate() // flushed, unfenced
				arr.Core().WriteRef(uint64(j)*8, po.Core().Ref())
			}
			// Write back the lines of the batch's slots; one fence
			// publishes the whole batch (Figure 5).
			arr.Core().PWBField(uint64(i)*8, uint64(end-i)*8)
			h.PFence()
		}
		d := time.Since(start)
		after := h.Pool().Obs().Snapshot()
		row.NsPerOp = float64(d.Nanoseconds()) / float64(n)
		row.Aux = float64(n) / d.Seconds() / 1000
		row.Fences = after.Fences() - before.Fences()
		row.PWBs = after.PWBs - before.PWBs
		return row, nil
	}
	var rows []AblationRow
	for _, batch := range []int{1, 8, 64, 512} {
		row, err := run(batch)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationSmallPool compares pool-allocated small immutable objects (§4.4)
// against one-block-per-object allocation, in both time and space.
func AblationSmallPool(n int, payload int) ([]AblationRow, error) {
	if n == 0 {
		n = 50_000
	}
	if payload == 0 {
		payload = 100 // a YCSB field value
	}
	var rows []AblationRow
	for _, pooled := range []bool{true, false} {
		h, _, err := ablationHeap(0, n*heap.BlockSize*2+(16<<20), 64)
		if err != nil {
			return nil, err
		}
		cls := h.MustClass(pdt.ClassBytes)
		before, _, _ := h.Mem().Stats()
		start := time.Now()
		for i := 0; i < n; i++ {
			var po core.PObject
			var err error
			if pooled {
				po, err = h.AllocSmall(cls, uint64(payload)+4)
			} else {
				po, err = h.Alloc(cls, uint64(payload)+4)
			}
			if err != nil {
				return nil, err
			}
			po.Core().WriteUint32(0, uint32(payload))
			po.Core().Validate()
		}
		d := time.Since(start)
		after, _, _ := h.Mem().Stats()
		variant := "whole-block"
		if pooled {
			variant = "pooled"
		}
		rows = append(rows, AblationRow{
			Experiment: "small-object-pools",
			Variant:    variant,
			NsPerOp:    float64(d.Nanoseconds()) / float64(n),
			Aux:        float64(after-before) * heap.BlockSize / float64(n),
			AuxName:    "bytes/obj",
		})
	}
	return rows, nil
}

// AblationLogSlots measures concurrent failure-atomic throughput as the
// number of log slots (the paper's per-thread logs) varies.
func AblationLogSlots(opsPerWorker, workers int) ([]AblationRow, error) {
	if opsPerWorker == 0 {
		opsPerWorker = 2_000
	}
	if workers == 0 {
		workers = 8
	}
	var rows []AblationRow
	for _, slots := range []int{1, 2, 8, 64} {
		h, mgr, err := ablationHeap(DefaultFenceNs, 64<<20, slots)
		if err != nil {
			return nil, err
		}
		// One counter object per worker: no data conflicts, only log-slot
		// contention.
		counters := make([]*core.Object, workers)
		cls := h.MustClass(pdt.ClassLongArr)
		for w := range counters {
			po, err := h.Alloc(cls, 16)
			if err != nil {
				return nil, err
			}
			po.Core().PWB()
			po.Core().Validate()
			counters[w] = po.Core()
		}
		h.PSync()
		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				o := counters[w]
				for i := 0; i < opsPerWorker; i++ {
					err := func() error {
						tx, err := mgr.Begin()
						for err != nil { // wait until a slot frees up
							runtime.Gosched()
							tx, err = mgr.Begin()
						}
						v, err := tx.ReadUint64(o, 8)
						if err != nil {
							tx.Abort()
							return err
						}
						if err := tx.WriteUint64(o, 8, v+1); err != nil {
							tx.Abort()
							return err
						}
						return tx.Commit()
					}()
					if err != nil {
						errCh <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return nil, err
		}
		d := time.Since(start)
		total := opsPerWorker * workers
		rows = append(rows, AblationRow{
			Experiment: "log-slots",
			Variant:    fmt.Sprintf("slots=%d", slots),
			NsPerOp:    float64(d.Nanoseconds()) / float64(total),
			Aux:        float64(total) / d.Seconds() / 1000,
			AuxName:    "Kops/s",
		})
	}
	return rows, nil
}

// AblationFenceCost sweeps the modeled NVMM fence latency and reports the
// J-PDT map update cost — how the headline results would move on faster
// or slower persistent memory generations.
func AblationFenceCost(n int) ([]AblationRow, error) {
	if n == 0 {
		n = 20_000
	}
	var rows []AblationRow
	for _, fenceNs := range []int{0, 60, 120, 500, 2000} {
		h, _, err := ablationHeap(fenceNs, n*640+(32<<20), 64)
		if err != nil {
			return nil, err
		}
		m, err := pdt.NewMap(h, pdt.MirrorHash)
		if err != nil {
			return nil, err
		}
		if err := h.Root().Put("m", m); err != nil {
			return nil, err
		}
		val := make([]byte, 100)
		keys := make([]string, 256)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%03d", i)
		}
		for _, k := range keys {
			b, err := pdt.NewBytes(h, val)
			if err != nil {
				return nil, err
			}
			if err := m.Put(k, b); err != nil {
				return nil, err
			}
		}
		fences := h.Pool().Obs().Snapshot().Fences()
		start := time.Now()
		for i := 0; i < n; i++ {
			b, err := pdt.NewBytes(h, val)
			if err != nil {
				return nil, err
			}
			if err := m.Put(keys[i%len(keys)], b); err != nil {
				return nil, err
			}
		}
		d := time.Since(start)
		rows = append(rows, AblationRow{
			Experiment: "fence-cost",
			Variant:    fmt.Sprintf("fence=%dns", fenceNs),
			NsPerOp:    float64(d.Nanoseconds()) / float64(n),
			Aux:        float64(n) / d.Seconds() / 1000,
			AuxName:    "Kupd/s",
			Fences:     h.Pool().Obs().Snapshot().Fences() - fences,
		})
	}
	return rows, nil
}

// PrintAblation renders ablation rows.
func PrintAblation(w io.Writer, rows []AblationRow) {
	last := ""
	for _, r := range rows {
		if r.Experiment != last {
			fmt.Fprintf(w, "Ablation — %s\n", r.Experiment)
			last = r.Experiment
		}
		fmt.Fprintf(w, "  %-16s%12.0f ns/op%12.1f %s\n", r.Variant, r.NsPerOp, r.Aux, r.AuxName)
	}
}
