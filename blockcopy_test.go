package jnvm

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/stack"
)

// TestBlockCopyEntryRefused: earlier builds logged a store to a valid
// block as a kind-1 redo entry naming an in-flight copy of the block.
// Only a pool such a build crashed can hold one in a live slot. It is
// refused, with the slot and the entry named, by every opener and by
// cmd/fsck, and is left byte for byte as it was.
func TestBlockCopyEntryRefused(t *testing.T) {
	const size = 4 << 20
	const want = "block-copy entry (kind 1)"
	fsck := filepath.Join(t.TempDir(), "fsck")
	if out, err := exec.Command("go", "build", "-o", fsck, "./cmd/fsck").CombinedOutput(); err != nil {
		t.Fatalf("build fsck: %v\n%s", err, out)
	}
	path := filepath.Join(t.TempDir(), "pool-0.nvm")
	open := func() *nvm.Pool {
		p, err := nvm.OpenFile(path, size, nvm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	st, err := stack.Open(open(), stack.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Slot 0 becomes live (its sequence number above W) over one entry,
	// kind 1 with dirty lines 0 and 1, copying block 0 over itself. A slot
	// is status | count | entries of kind | a | b.
	pool := open()
	mem, err := heap.Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	off, _, _ := mem.LogArea()
	blk := mem.BlockRef(0)
	for i, v := range []uint64{mem.LogRetired() + 1, 1, 1 | 3<<8, blk, blk} {
		pool.WriteUint64(off+heap.LogSlotSeq+uint64(8*i), v)
	}
	pool.PSync()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := stack.Open(open(), stack.Config{}); err == nil || !strings.Contains(err.Error(), "slot 0") || !strings.Contains(err.Error(), want) {
		t.Errorf("stack.Open of a pool with a live block-copy entry: %v", err)
	}
	if _, err := OpenPool(open(), Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("jnvm.OpenPool of a pool with a live block-copy entry: %v", err)
	}
	out, err := exec.Command(fsck, path).CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || !strings.Contains(string(out), want) {
		t.Errorf("fsck of a pool with a live block-copy entry: %v\n%s", err, out)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, image) {
		t.Errorf("a refused pool changed (%v)", err)
	}
}
