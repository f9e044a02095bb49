package bench

import (
	"math"
	"testing"

	"repro/internal/fa"
	"repro/internal/nvm"
	"repro/internal/obs"
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
func TestFlushRates(t *testing.T) {
	const slack = 0.0004 // under one event in 2000 operations
	for _, tc := range []struct {
		workload    string
		backend     BackendKind
		pwb, pfence float64
	}{
		{"A", JPFA, 4.9910, 0.9970},
		{"A", JPDT, 2.4980, 1.0125},
		{"A", PCJ, 2.4930, 0.9970},
		{"B", JPFA, 0.4930, 0.0970},
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
	bank, err := tpcb.OpenJNVMBank(pool, accounts, false)
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
