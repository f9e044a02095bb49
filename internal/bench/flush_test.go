package bench

import (
	"math"
	"testing"

	"repro/internal/fa"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tpcb"
	"repro/internal/ycsb"
)

// ycsbFlushRates runs 2000 operations per client of the workload's mix
// over 400 records (loaded single-threaded: concurrent inserts contend on
// shared map blocks), settles async epochs inside the interval, and
// returns the run interval's pwb/op and pfence/op.
func ycsbFlushRates(t *testing.T, bk BackendKind, workload string, threads int, commit string) (pwb, pfence float64) {
	t.Helper()
	cfg := ycsb.MustWorkload(workload)
	cfg.RecordCount, cfg.Operations, cfg.Threads = 400, 2000*threads, threads
	cfg = cfg.Defaults()
	env, err := NewEnv(GridConfig{
		Backend: bk, Records: cfg.RecordCount * 2,
		FieldCount: cfg.FieldCount, FieldLen: cfg.FieldLen, Commit: commit,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	load := cfg
	load.Threads = 1
	if err := ycsb.Load(env.Grid, load); err != nil {
		t.Fatal(err)
	}
	before := env.Snapshot()
	res, err := ycsb.Run(env.Grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.DrainDurable()
	d := env.Snapshot().Sub(*before)
	if res.Errors != 0 {
		t.Fatalf("%s/%s: %d op errors", workload, bk, res.Errors)
	}
	return d.PWBPerOp, d.PFencePerOp
}

// TestFlushRates pins what each backend pays the persistence domain per
// operation. The key stream is seeded and there is one client, so the
// counters are exact: a constant below moves only when a code change
// moves a flush or a fence, and then the change should say so. The
// repo's benchmark gates the same two rates for J-PFA (pwb_per_op and
// pfence_per_op on emb-a, BENCHMARK.json); the other backends, TPC-B and
// the async protocol are gated here alone. No wall clock is read.
//
// J-PFA's A and B rows (were 5.4835 and 0.5335) and TPC-B (was 7 pwb per
// transfer) fell when a transactional word store to a valid block became
// a word entry in the redo log: an update that changes one 8-byte ref
// takes no in-flight copy and writes back no copied line.
//
// J-PFA's pwb rows then rose (A 4.9850 → 4.9910, B 0.4850 → 0.4930) when
// its grid adopted the zero-copy read path: the heap now holds fa's freed
// value slots in the EBR backlog until a batch of them is reclaimed,
// instead of handing each back at once. A 124-byte slot class fits two
// slots in a 256-byte block, so the run carves 16 more chunks (one header
// pwb each) to cover the withheld slots; in A four freed slots' header
// pwbs also fall after the interval. No flush moved in the commit path,
// and the fence rows stay: fa's recycled frees enter the backlog without
// the reclaim fence (heap.FreeInvalidated).
//
// J-PFA's pwb rows then fell (A 4.9910 → 4.4950, B 0.4930 → 0.4450)
// when reclaiming a free fa had already invalidated stopped writing its
// header again: the kindFree apply's write-back, covered by W's fence, is
// the freed value's one invalidation. That is one line per freed value
// the interval reclaims: 992 lines over A's 2000 operations, 96 over B's
// (the EBR backlog withholds the last few past the interval).
// The J-PDT and PCJ rows free through FreeObject, whose reclaim is the
// invalidation, and did not move.
func TestFlushRates(t *testing.T) {
	const slack = 0.0004 // under one event in 2000 operations
	for _, tc := range []struct {
		workload    string
		backend     BackendKind
		pwb, pfence float64
	}{
		{"A", JPFA, 4.4950, 0.9970},
		{"A", JPDT, 2.4980, 1.0125},
		{"A", PCJ, 2.4930, 0.9970},
		{"B", JPFA, 0.4450, 0.0970},
		{"B", JPDT, 0.2500, 0.0985},
		{"B", PCJ, 0.2430, 0.0970},
		{"C", JPFA, 0, 0},
		{"C", JPDT, 0, 0},
		{"C", PCJ, 0, 0},
	} {
		pwb, pfence := ycsbFlushRates(t, tc.backend, tc.workload, 1, "")
		if math.Abs(pwb-tc.pwb) > slack || math.Abs(pfence-tc.pfence) > slack {
			t.Errorf("YCSB-%s on %s: %.4f pwb/op, %.4f pfence/op; pinned %.4f, %.4f",
				tc.workload, tc.backend, pwb, pfence, tc.pwb, tc.pfence)
		}
	}

	// TPC-B per-Tx: a transfer is one failure-atomic block over two
	// accounts. Transfer -1 is the warm-up: every measured commit finds a
	// predecessor parked and pays the write-back of W that retires it. The
	// two balances are word entries: one log line, W, the mark and the two
	// home lines.
	const accounts, transfers = 1000, 1000
	pool := nvm.New(accounts*512+(32<<20), nvm.Options{FenceLatency: 1})
	bank, err := tpcb.OpenJNVMBank(pool, accounts, false, "")
	if err != nil {
		t.Fatal(err)
	}
	var before obs.NVMSnapshot
	for i := -1; i < transfers; i++ {
		if i == 0 {
			before = pool.Obs().Snapshot()
		}
		if err := bank.Transfer((i+accounts)%accounts, (7*i+1+accounts)%accounts, 1); err != nil {
			t.Fatal(err)
		}
	}
	d := pool.Obs().Snapshot().Sub(before)
	if d.PWBs != 5*transfers || d.Fences() != fa.CommitBarriers*transfers {
		t.Errorf("TPC-B per-Tx: %d pwb, %d fences over %d transfers; pinned 5 and %d per transfer",
			d.PWBs, d.Fences(), transfers, fa.CommitBarriers)
	}

	// Async commit (DESIGN.md §15): with 8 committers the epoch pipeline
	// pays fewer fences per operation than per-Tx. How many fewer depends
	// on the interleaving, so only the order is asserted.
	_, perTx := ycsbFlushRates(t, JPFA, "A", 8, "per-tx")
	if _, pfence := ycsbFlushRates(t, JPFA, "A", 8, "async"); pfence >= perTx {
		t.Errorf("YCSB-A on J-PFA, 8 clients: async pays %.4f pfence/op, per-Tx %.4f", pfence, perTx)
	}
}

// TestWriteBackCensus attributes every write-back of a run of
// single-field updates from the program's own counters: fa's commit
// stages, the heap's frees and its chunk carves add up to the pool's pwb
// count. A J-PFA update writes back 9 lines in either commit mode, each
// epoch of the async run holding one update: stage 1 (two log lines and
// the new value's two), its mark, one applied home line, two validity
// flips (the new value validated, the old one invalidated) and W over its
// predecessor. Reclaiming the value it freed writes nothing back. A J-PDT
// update's free still writes back the invalidation it is.
func TestWriteBackCensus(t *testing.T) {
	const records, updates = 400, 1000
	for _, tc := range []struct {
		backend BackendKind
		commit  string
	}{{JPFA, "per-tx"}, {JPFA, "async"}, {JPDT, ""}} {
		env, err := NewEnv(GridConfig{Backend: tc.backend, Records: 2 * records, FieldCount: 10, FieldLen: 100, Commit: tc.commit})
		if err != nil {
			t.Fatal(err)
		}
		cfg := ycsb.Config{RecordCount: records, FieldCount: 10, FieldLen: 100}.Defaults()
		if err := ycsb.Load(env.Grid, cfg); err != nil {
			t.Fatal(err)
		}
		env.DrainDurable()
		keys, value := benchKeys(records), make([]byte, 100)
		before := env.Snapshot()
		for i := 0; i < updates; i++ {
			value[0] = byte(i)
			if err := env.Grid.Update(keys[i*7%records], []store.Field{{Name: ycsb.FieldName(i % 10), Value: value}}); err != nil {
				t.Fatal(err)
			}
			env.DrainDurable()
		}
		d := env.Snapshot().Sub(*before)
		env.Close()
		name := string(tc.backend) + "/" + tc.commit
		frees := d.Heap.SmallFrees + d.Heap.ObjFrees
		if frees == 0 {
			t.Fatalf("%s: the interval reclaimed no freed value", name)
		}
		if tc.backend == JPDT {
			if d.Heap.FreeLines != frees {
				t.Errorf("%s: %d frees wrote back %d lines, want one each", name, frees, d.Heap.FreeLines)
			}
			continue
		}
		fa := d.FA
		got := [...]uint64{fa.Stage1Lines, fa.MarkLines, fa.ApplyLines, fa.ValidLines, fa.RetireLines, d.Heap.FreeLines}
		want := [...]uint64{4 * updates, updates, updates, 2 * updates, updates, 0}
		if got != want {
			t.Errorf("%s: stage 1, mark, apply, validity, W, free write-backs %v over %d updates, want %v", name, got, updates, want)
		}
		sum := d.Heap.Carves
		for _, n := range got {
			sum += n
		}
		if sum != d.NVM.PWBs {
			t.Errorf("%s: the stages account for %d write-backs, the pool counted %d", name, sum, d.NVM.PWBs)
		}
		// The stage timers sample about one block in obs.StageSample.
		if n := fa.BodyNs.Count; n == 0 || n > 2*updates/obs.StageSample {
			t.Errorf("%s: %d of %d blocks timed their body", name, n, updates)
		}
	}
}
