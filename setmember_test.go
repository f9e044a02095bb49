package jnvm

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/pdt"
	"repro/internal/stack"
)

// writeSetMember leaves at path what an earlier build's multi-pool set
// left in one of its pools: superblock words 96/104 holding the pool's
// position (idx of cnt; 0/0 for a standalone pool the set adopted as its
// pool 0), and, with epoch, the set's epoch table bound to "shard.epoch".
func writeSetMember(t *testing.T, path string, size int, idx, cnt uint64, epoch bool) {
	t.Helper()
	pool, err := nvm.OpenFile(path, size, nvm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stack.Open(pool, stack.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if epoch {
		arr, err := pdt.NewLongArray(st.Heap, 8)
		if err != nil {
			t.Fatal(err)
		}
		arr.Set(0, 1)          // topology generation
		arr.Set(1, int64(cnt)) // pools routed
		arr.Set(2, int64(cnt)) // pools inserted into
		arr.Flush()
		if err := st.Heap.Root().Put("shard.epoch", arr); err != nil {
			t.Fatal(err)
		}
	}
	pool.WriteUint64(96, idx)
	pool.WriteUint64(104, cnt)
	pool.PSync()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSetMemberImagesRefused: this build opens single pools only. Every
// entry point that opens a pool refuses a member of an earlier build's
// multi-pool set, and one refused by its superblock is left byte for
// byte as it was.
func TestSetMemberImagesRefused(t *testing.T) {
	const records, fields, fieldLen = 1, 1, 8
	size := bench.EstimatePoolBytes(records, fields, fieldLen)
	fsck := filepath.Join(t.TempDir(), "fsck")
	if out, err := exec.Command("go", "build", "-o", fsck, "./cmd/fsck").CombinedOutput(); err != nil {
		t.Fatalf("build fsck: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name     string
		idx, cnt uint64
		epoch    bool
	}{
		{"pool 1 of 3", 1, 3, false},
		{"pool 0 of 2", 0, 2, true},
		{"standalone promoted to pool 0", 0, 0, true},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "pool-0.nvm")
		writeSetMember(t, path, size, tc.idx, tc.cnt, tc.epoch)
		image, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		open := func() *nvm.Pool {
			p, err := nvm.OpenFile(path, size, nvm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		bySuperblock := tc.cnt != 0

		p := open()
		_, err = heap.Open(p)
		p.Close()
		if bySuperblock != (err != nil) || bySuperblock && !strings.Contains(err.Error(), "-pool set") {
			t.Errorf("%s: heap.Open: %v", tc.name, err)
		}
		if _, err := stack.Open(open(), stack.Config{Backend: stack.JPFA}); err == nil || !strings.Contains(err.Error(), "set") {
			t.Errorf("%s: stack.Open: %v", tc.name, err)
		}
		if _, err := OpenPool(open(), Options{}); err == nil {
			t.Errorf("%s: jnvm.OpenPool succeeded", tc.name)
		}
		if _, err := bench.NewEnv(bench.GridConfig{Backend: bench.JPFA, Records: records, FieldCount: fields, FieldLen: fieldLen, DataDir: dir}); err == nil {
			t.Errorf("%s: bench.NewEnv succeeded", tc.name)
		}
		out, err := exec.Command(fsck, path).CombinedOutput()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
			t.Errorf("%s: fsck: %v\n%s", tc.name, err, out)
		}
		if after, err := os.ReadFile(path); err != nil || bySuperblock && !bytes.Equal(after, image) {
			t.Errorf("%s: a refused pool changed (%v)", tc.name, err)
		}
	}
}
