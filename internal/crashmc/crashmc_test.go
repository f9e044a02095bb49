package crashmc

import (
	"fmt"
	"testing"

	"repro/internal/nvm"
)

// TestExploreWorkloadsSmoke runs a bounded exploration of every standing
// workload; the shipped persistence disciplines must survive every
// sampled crash point.
func TestExploreWorkloadsSmoke(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rep, err := Explore(w, Options{Points: 10, Samples: 2, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Failures) != 0 {
				for i := range rep.Failures {
					t.Error(rep.Failures[i].String())
				}
				t.Fatalf("%s: %d crash-consistency failures", w.Name, len(rep.Failures))
			}
			if rep.Points == 0 || rep.Explored == 0 || rep.Images == 0 {
				t.Fatalf("empty exploration: %+v", rep)
			}
		})
	}
}

// TestOrderingPointCounts pins each workload's ordering points at seed 1,
// the counts every bounded exploration is reported against. A change that
// adds or removes a store, a write-back or a fence on an explored path
// moves one; update the count only when that move is the point of the
// change, and say so. Every J-PFA workload moved when a transactional
// word store to a valid block became a word entry in the redo log (bank
// was 318, grid 1346, gridgroup 570, griddelta 236, gridinline 858, pool
// 1110, retire 1083): no in-flight block copy, no copied line written
// back, one home word stored at apply. gridread and pdt write through no
// failure-atomic block and did not move. retire (was 1059) moved again
// when every transactional store to a valid block became word entries:
// its multi-field updates of one record wrote more than two words of the
// record's block, which took an in-flight copy, and now log the words.
// gridread (was 467) moved when the EBR backlog began counting blocks and
// a retired chained object began a reclaim pass at once: its chained
// values (280–400 bytes, two blocks) no longer wait for a batch of 32
// frees, so more reclaim fences, header invalidations and slot frees
// fall inside the run. grid (was 1301), gridgroup (492), gridinline (834)
// and retire (1053) moved when their grids lost the record cache and
// took the view path, which switches EBR on: fa's frees are then
// deferred and reclaimed in batches of 32 blocks, so fewer header
// invalidations and slot frees fall inside the run. With EBR held off
// the four return to their old counts; grid's read-backs add no point.
// griddelta frees nothing in its run and did not move.
func TestOrderingPointCounts(t *testing.T) {
	want := map[string]int{
		"bank": 214, "grid": 1265, "gridgroup": 464, "griddelta": 202, "gridinline": 816,
		"gridread": 486, "pool": 1058, "pdt": 256, "retire": 1019,
	}
	ws := Workloads()
	if len(ws) != len(want) {
		t.Errorf("%d workloads, %d pinned counts", len(ws), len(want))
	}
	for _, w := range ws {
		for run := 0; run < 2; run++ {
			_, pl, err := runTo(w, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if pl.count != want[w.Name] {
				t.Errorf("%s run %d: %d ordering points, want %d", w.Name, run, pl.count, want[w.Name])
			}
		}
	}
}

// brokenWorkload deliberately violates its own invariant: two counters on
// different cache lines that must stay equal are updated under separate
// fences, so a crash between the fences observes them diverged. It is the
// standing proof that the explorer has teeth — if this stops failing, the
// fault plane went blind.
func brokenWorkload() *Workload {
	return &Workload{Name: "broken", PoolBytes: 1 << 16, New: func(seed int64) *Run {
		return &Run{
			Setup: func(pool *nvm.Pool) error { return nil },
			Exec: func(pool *nvm.Pool) error {
				for i := uint64(1); i <= 6; i++ {
					pool.WriteUint64(0, i)
					pool.PWB(0)
					pool.PFence()
					// BUG: the twin write rides a separate fence.
					pool.WriteUint64(256, i)
					pool.PWB(256)
					pool.PFence()
				}
				return nil
			},
			Check: func(img *nvm.Pool) error {
				if a, b := img.ReadUint64(0), img.ReadUint64(256); a != b {
					return fmt.Errorf("counters diverged: %d vs %d", a, b)
				}
				return nil
			},
		}
	}}
}

// TestExplorerHasTeeth checks that a seeded ordering bug is (a) found,
// and (b) reproducible from its (point, sample, seed) triple alone.
func TestExplorerHasTeeth(t *testing.T) {
	w := brokenWorkload()
	rep, err := Explore(w, Options{Samples: 2, Seed: 1, MaxFailures: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("explorer missed a deliberately broken workload")
	}
	f := rep.Failures[0]
	if f.Repro() == "" || f.Point == 0 {
		t.Fatalf("failure lacks a repro triple: %+v", f)
	}
	// Replay exactly that (point, sample, seed): it must fail again.
	rerun, err := Explore(w, Options{Seed: f.Seed, Point: f.Point, Sample: f.Sample, MaxFailures: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rerun.Failures) != 1 {
		t.Fatalf("repro triple did not reproduce: %d failures", len(rerun.Failures))
	}
	if got := rerun.Failures[0]; got.Point != f.Point || got.Sample != f.Sample || got.Err != f.Err {
		t.Fatalf("repro mismatch:\noriginal: %+v\nreplay:   %+v", f, got)
	}
}

// TestSubsetSeedStable pins the subset-seed mixing: a change would break
// the reproducibility of every historical failure report.
func TestSubsetSeedStable(t *testing.T) {
	if subsetSeed(1, 10, 2) != subsetSeed(1, 10, 2) {
		t.Fatal("subsetSeed not a pure function")
	}
	seen := map[int64]bool{}
	for p := 0; p < 50; p++ {
		for s := 0; s < 4; s++ {
			seen[subsetSeed(7, p, s)] = true
		}
	}
	if len(seen) != 200 {
		t.Fatalf("subsetSeed collides: %d distinct of 200", len(seen))
	}
}

// TestPickPointsCoverage checks the stride sampler: bounded budgets stay
// within range, deduplicate, and spread across the whole run.
func TestPickPointsCoverage(t *testing.T) {
	pts := pickPoints(1000, 50, 3)
	if len(pts) == 0 || len(pts) > 50 {
		t.Fatalf("got %d points, want (0,50]", len(pts))
	}
	for i, p := range pts {
		if p < 1 || p > 1000 {
			t.Fatalf("point %d out of range", p)
		}
		if i > 0 && pts[i-1] >= p {
			t.Fatalf("points not strictly increasing at %d", i)
		}
	}
	if pts[0] > 100 || pts[len(pts)-1] < 900 {
		t.Fatalf("poor spread: first %d last %d", pts[0], pts[len(pts)-1])
	}
	all := pickPoints(30, 0, 1)
	if len(all) != 30 || all[0] != 1 || all[29] != 30 {
		t.Fatalf("unbounded budget must enumerate all points: %v", all)
	}
}
