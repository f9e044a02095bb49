// Command fsck verifies the structural and reachability invariants of a
// J-NVM pool file, the way fsck verifies a file system: block headers,
// object chains, pool-chunk slots, the liveness graph from the root map,
// and the grid's record tables against their name dictionaries.
//
// Usage:
//
//	fsck /tmp/heap.pmem
//
// Exit status 0 means the heap is consistent. Note that opening the pool
// runs recovery first (redo-log replay + reachability GC), exactly as an
// application restart would; fsck then validates the recovered state.
package main

import (
	"flag"
	"fmt"
	"os"

	jnvm "repro"
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
	db, err := jnvm.Open(jnvm.Options{Path: path, Size: int(st.Size())})
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

	report := func(msg string) { fmt.Printf("ISSUE: %s\n", msg) }
	issues := db.Fsck(report) + store.FsckRecords(db.Heap, report)
	if issues == 0 {
		fmt.Println("heap is consistent ✓")
		return
	}
	fmt.Printf("%d issues found\n", issues)
	os.Exit(1)
}
