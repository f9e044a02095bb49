package bench

import (
	"fmt"
	"testing"

	"repro/internal/heap"
	"repro/internal/store"
)

// TestSpacePerRecord is the space gate next to the allocation gate
// (scripts/check_allocs.sh): heap blocks in use per loaded record, for
// every J-NVM backend and the repo benchmark's two record shapes, must
// stay under the ceiling the one-table-per-record layout reaches
// (DESIGN.md §3.1: ROADMAP's "Pack small objects", move 1) with the
// map's bindings in its array (§3.2). A change that puts a per-record
// name, a block per counter or a block per binding back fails here, in
// `go test ./...`, not in a 20 s benchmark run. The same loads hold
// EstimatePoolBytes: its per-record budget must cover what is measured.
func TestSpacePerRecord(t *testing.T) {
	shapes := []struct {
		name             string
		records          int
		fields, fieldLen int
		delta            bool    // one ADDDELTA pass over the loaded records
		ceiling, lfCeil  float64 // blocks per record: pdt.Map backends, J-PDT-LF
	}{
		// emb-a, emb-b, net-a: a table, a pooled key, two array words and
		// ten values at two 124-byte slots to the block.
		{"10x100B", 4000, 10, 100, false, 6.3, 7.3},
		// net-counter, at its record count: a table, a pooled key and two
		// array words (the async manager's cached in-flight blocks are a
		// fixed hundred-odd on top, 0.03 per record at 4000).
		{"1x8B-counter", 10000, 1, 8, true, 1.3, 2.2},
	}
	backends := []struct {
		kind   BackendKind
		commit string
	}{{JPDT, ""}, {JPDTLF, ""}, {JPFA, ""}, {JPFA, "async"}}
	for _, sh := range shapes {
		for _, be := range backends {
			t.Run(fmt.Sprintf("%s/%s%s", sh.name, be.kind, be.commit), func(t *testing.T) {
				records := sh.records
				env, err := NewEnv(GridConfig{Backend: be.kind, Commit: be.commit, FenceNs: 1,
					Records: records, FieldCount: sh.fields, FieldLen: sh.fieldLen})
				if err != nil {
					t.Fatal(err)
				}
				defer env.Close()
				key := func(i int) string { return fmt.Sprintf("user%08d", i) }
				rec := func() *store.Record {
					r := &store.Record{}
					for f := 0; f < sh.fields; f++ {
						r.Fields = append(r.Fields, store.Field{Name: fmt.Sprintf("field%d", f), Value: make([]byte, sh.fieldLen)})
					}
					return r
				}
				// Warm: the names are interned and the first chunks carved.
				if err := env.Grid.Insert("warm", rec()); err != nil {
					t.Fatal(err)
				}
				env.DrainDurable()
				inUse := func() float64 {
					env.Heap.Mem().ReclaimBarrier()
					s := env.Heap.Mem().ObsSnapshot()
					return float64(s.Bump - s.FreeBlocks)
				}
				before := inUse()
				for i := 0; i < records; i++ {
					if err := env.Grid.Insert(key(i), rec()); err != nil {
						t.Fatal(err)
					}
				}
				if sh.delta {
					for i := 0; i < records; i++ {
						if err := env.Grid.AddDelta(key(i), "field0", 1); err != nil {
							t.Fatal(err)
						}
					}
				}
				env.DrainDurable()
				perRecord := (inUse() - before) / float64(records)
				t.Logf("%.3f blocks per record", perRecord)
				ceiling := sh.ceiling
				if be.kind == JPDTLF {
					ceiling = sh.lfCeil
				}
				if perRecord > ceiling {
					t.Errorf("%.3f heap blocks in use per record, ceiling %.1f", perRecord, ceiling)
				}
				budget := float64(EstimatePoolBytes(2*records, sh.fields, sh.fieldLen)-
					EstimatePoolBytes(records, sh.fields, sh.fieldLen)) / float64(records) / heap.BlockSize
				if budget < perRecord {
					t.Errorf("EstimatePoolBytes budgets %.2f blocks per record, %.2f are in use", budget, perRecord)
				}
			})
		}
	}
}
