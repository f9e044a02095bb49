package bench

import (
	"math"
	"testing"

	"repro/internal/fa"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/tpcb"
)

// ycsbFlushRates runs 2000 operations per client of the workload's mix
// over 400 records on the single-pool stack (ShardSweep loads
// single-threaded and settles async epochs inside the interval) and
// returns the run interval's pwb/op and pfence/op.
func ycsbFlushRates(t *testing.T, bk BackendKind, workload string, threads int, commit string) (pwb, pfence float64) {
	t.Helper()
	sc := Scale{Records: 400, Operations: 2000, Threads: threads, Commit: commit}
	rows, err := ShardSweep(sc, bk, workload, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Errors != 0 {
		t.Fatalf("%s/%s: %d op errors", workload, bk, rows[0].Errors)
	}
	return rows[0].PWBPerOp, rows[0].PFencePerOp
}

// TestFlushRates pins what each backend pays the persistence domain per
// operation. The key stream is seeded and there is one client, so the
// counters are exact: a constant below moves only when a code change
// moves a flush or a fence, and then the change should say so. The
// repo's benchmark gates the same two rates for J-PFA (pwb_per_op and
// pfence_per_op on emb-a, BENCHMARK.json); the other backends, TPC-B and
// the group protocol are gated here alone. No wall clock is read.
func TestFlushRates(t *testing.T) {
	const slack = 0.0004 // under one event in 2000 operations
	measured := map[string]float64{}
	for _, tc := range []struct {
		workload    string
		backend     BackendKind
		pwb, pfence float64
	}{
		{"A", JPFA, 5.4835, 0.9970},
		{"A", JPDT, 2.4980, 1.0125},
		{"A", JPDTLF, 1.9995, 0.5290},
		{"A", PCJ, 2.4930, 0.9970},
		{"B", JPFA, 0.5335, 0.0970},
		{"B", JPDT, 0.2500, 0.0985},
		{"B", JPDTLF, 0.2015, 0.0510},
		{"B", PCJ, 0.2430, 0.0970},
		{"C", JPFA, 0, 0},
		{"C", JPDT, 0, 0},
		{"C", JPDTLF, 0, 0},
		{"C", PCJ, 0, 0},
	} {
		pwb, pfence := ycsbFlushRates(t, tc.backend, tc.workload, 1, "")
		measured[tc.workload+string(tc.backend)] = pwb
		if math.Abs(pwb-tc.pwb) > slack || math.Abs(pfence-tc.pfence) > slack {
			t.Errorf("YCSB-%s on %s: %.4f pwb/op, %.4f pfence/op; pinned %.4f, %.4f",
				tc.workload, tc.backend, pwb, pfence, tc.pwb, tc.pfence)
		}
	}

	// The lock-free map's claim (DESIGN.md §16): fewer flushes per update
	// than the locked J-PDT it replaces.
	if lf, locked := measured["A"+string(JPDTLF)], measured["A"+string(JPDT)]; lf >= locked {
		t.Errorf("YCSB-A: J-PDT-LF %.4f pwb/op is not below locked J-PDT %.4f", lf, locked)
	}

	// TPC-B per-Tx: a transfer is one failure-atomic block over two
	// accounts. Transfer -1 is the warm-up: every measured commit finds a
	// predecessor parked and pays the write-back of W that retires it.
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
	if d.PWBs != 7*transfers || d.Fences() != fa.CommitBarriers*transfers {
		t.Errorf("TPC-B per-Tx: %d pwb, %d fences over %d transfers; pinned 7 and %d per transfer",
			d.PWBs, d.Fences(), transfers, fa.CommitBarriers)
	}

	// Group commit (DESIGN.md §15): with 8 committers both combining
	// protocols pay fewer fences per operation than per-Tx. How many fewer
	// depends on the interleaving, so only the order is asserted.
	_, perTx := ycsbFlushRates(t, JPFA, "A", 8, "per-tx")
	for _, commit := range []string{"group", "async"} {
		if _, pfence := ycsbFlushRates(t, JPFA, "A", 8, commit); pfence >= perTx {
			t.Errorf("YCSB-A on J-PFA, 8 clients: %s pays %.4f pfence/op, per-Tx %.4f", commit, pfence, perTx)
		}
	}
}
