// Command fsck verifies the structural and reachability invariants of a
// J-NVM pool file, the way fsck verifies a file system: block headers,
// object chains, pool-chunk slots, the liveness graph from the root map,
// every persistent map's bindings, and the grid's record tables against
// their name dictionaries.
//
// Usage:
//
//	fsck /tmp/heap.pmem
//
// Exit status 0 means the heap is consistent. fsck first reads the redo
// log area as the last run left it — format version, the retired
// watermark W, every live slot — and fails on a live slot no correct
// commit leaves behind. Then it opens the pool, which runs recovery
// (redo-log replay + reachability GC) exactly as an application restart
// would, and validates the recovered state.
package main

import (
	"flag"
	"fmt"
	"os"

	jnvm "repro"
	"repro/internal/fa"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/pdt"
	"repro/internal/store"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fsck <pool-file>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	st, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pool, err := nvm.OpenFile(path, int(st.Size()), nvm.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mem, err := heap.Open(pool)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsck: cannot open heap: %v\n", err)
		os.Exit(1)
	}
	_, slots, _ := mem.LogArea()
	w, live := fa.LiveSlots(mem)
	fmt.Printf("log area: format version %d, %d slots, retired watermark W = %d, %d live\n",
		heap.FormatVersion, slots, w, len(live))
	for _, s := range live {
		fmt.Printf("  slot %d: seq %d, %d entries\n", s.Index, s.Seq, s.Entries)
	}
	if err := fa.AuditCommittedSlots(mem); err != nil {
		fmt.Printf("ISSUE: %v\n", err)
		os.Exit(1)
	}

	db, err := jnvm.OpenPool(pool, jnvm.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsck: cannot open heap: %v\n", err)
		os.Exit(1)
	}
	defer db.Close()

	rs := db.RecoveryStats
	fmt.Printf("recovery: %d live objects, %d live blocks, %d refs nullified, %d root entries reclaimed\n",
		rs.LiveObjects, rs.LiveBlocks, rs.NullifiedRefs, rs.ReclaimedRoots)
	bumped, free, total := db.Mem().Stats()
	fmt.Printf("arena:    %d/%d blocks touched, %d on the free queue\n", bumped, total, free)
	fmt.Printf("roots:    %d named bindings\n", db.Root().Len())
	// Before anything resurrects a map: its rebuild retires the half
	// bindings a torn insert or delete left, and they belong in the report.
	for _, name := range db.Root().Names() {
		full, half, ok := pdt.ScanBindings(db.Heap, db.Root().GetRef(name))
		if !ok {
			continue
		}
		fmt.Printf("map %q: %d bindings, %d half bindings\n", name, full, half)
		if half != 0 {
			fmt.Println("          (a half binding is a torn insert or delete; opening the map retires it)")
		}
	}

	report := func(msg string) { fmt.Printf("ISSUE: %s\n", msg) }
	issues := db.Fsck(report) + store.FsckRecords(db.Heap, report)
	if issues == 0 {
		fmt.Println("heap is consistent ✓")
		return
	}
	fmt.Printf("%d issues found\n", issues)
	os.Exit(1)
}
