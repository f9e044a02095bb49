package jnvm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/nvm"
	"repro/internal/stack"
	"repro/internal/store"
)

// TestOpenRefusals: a pool this build must not touch is refused by every
// opener and by cmd/fsck, with an error naming what was refused, and is
// left byte for byte as it was. What an open refuses, and where:
// another heap format version (heap.Open), a live block-copy redo entry
// (fa replay) and an instance of a class this build does not register
// (core recovery). A class table that only names such a class opens.
func TestOpenRefusals(t *testing.T) {
	const records, fields, fieldLen = 1, 1, 8
	size := bench.EstimatePoolBytes(records, fields, fieldLen)
	fsck := filepath.Join(t.TempDir(), "fsck")
	if out, err := exec.Command("go", "build", "-o", fsck, "./cmd/fsck").CombinedOutput(); err != nil {
		t.Fatalf("build fsck: %v\n%s", err, out)
	}
	unregistered := &core.Class{Name: "test.unregistered", Factory: func(o *core.Object) core.PObject { return o }}
	open := func(t *testing.T, path string) *nvm.Pool {
		p, err := nvm.OpenFile(path, size, nvm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// newPool leaves at dir/pool-0.nvm, the file bench.NewEnv opens under
	// DataDir, a pool whose class table names the unregistered class and,
	// with bind, holds an instance of it under the root "kv".
	newPool := func(t *testing.T, dir string, bind bool) string {
		path := filepath.Join(dir, "pool-0.nvm")
		st, err := stack.Open(open(t, path), stack.Config{Classes: []*core.Class{unregistered}})
		if err != nil {
			t.Fatal(err)
		}
		if bind {
			po, err := st.Heap.Alloc(unregistered, 24)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Heap.Root().Put("kv", po); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stamp := func(v uint64) func(*testing.T, *nvm.Pool) {
		return func(_ *testing.T, pool *nvm.Pool) { pool.WriteUint64(8, v) } // the superblock's version word
	}
	// blockCopy makes slot 0 live (its sequence number above W) over one
	// entry, kind 1 with dirty lines 0 and 1, copying block 0 over itself.
	// A slot is status | count | entries of kind | a | b.
	blockCopy := func(t *testing.T, pool *nvm.Pool) {
		mem, err := heap.Open(pool)
		if err != nil {
			t.Fatal(err)
		}
		off, _, _ := mem.LogArea()
		blk := mem.BlockRef(0)
		for i, v := range []uint64{mem.LogRetired() + 1, 1, 1 | 3<<8, blk, blk} {
			pool.WriteUint64(off+heap.LogSlotSeq+uint64(8*i), v)
		}
	}

	for _, tc := range []struct {
		name    string
		bind    bool
		edit    func(*testing.T, *nvm.Pool)
		want    string // named by every opener's error and fsck's output
		version bool   // refused by heap.Open itself
	}{
		{"version 1", false, stamp(1), "format version 1", true},
		{"version 2", false, stamp(2), "format version 2", true},
		{"version 4", false, stamp(heap.FormatVersion + 1), fmt.Sprintf("format version %d", heap.FormatVersion+1), true},
		{"unregistered class instance", true, nil, unregistered.Name, false},
		{"live block-copy entry", false, blockCopy, "block-copy entry (kind 1)", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := newPool(t, dir, tc.bind)
			if tc.edit != nil {
				pool := open(t, path)
				tc.edit(t, pool)
				pool.PSync()
				if err := pool.Close(); err != nil {
					t.Fatal(err)
				}
			}
			image, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			refused := func(opener string, err error) {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: %v; want an error naming %q", opener, err, tc.want)
				}
			}

			if tc.version {
				// Not ErrNotFormatted: core.Open formats only a pool that
				// holds no heap at all.
				p := open(t, path)
				_, err := heap.Open(p)
				p.Close()
				if err == nil || errors.Is(err, heap.ErrNotFormatted) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", heap.FormatVersion)) {
					t.Errorf("heap.Open: %v; want an error naming version %d too", err, heap.FormatVersion)
				}
				refused("heap.Open", err)
			}
			for _, backend := range []string{"", stack.JPFA, stack.JPDT} {
				_, err := stack.Open(open(t, path), stack.Config{Backend: backend})
				refused(fmt.Sprintf("stack.Open(%q)", backend), err)
			}
			_, err = OpenPool(open(t, path), Options{})
			refused("jnvm.OpenPool", err)
			_, err = bench.NewEnv(bench.GridConfig{Backend: bench.JPFA, Records: records, FieldCount: fields, FieldLen: fieldLen, DataDir: dir})
			refused("bench.NewEnv", err)
			out, err := exec.Command(fsck, path).CombinedOutput()
			if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || !strings.Contains(string(out), tc.want) {
				t.Errorf("fsck: %v; want exit 1 naming %q\n%s", err, tc.want, out)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, image) {
				t.Errorf("a refused pool changed (%v)", err)
			}
		})
	}

	t.Run("unregistered class named only", func(t *testing.T) {
		path := newPool(t, t.TempDir(), false)
		for i := 0; i < 2; i++ {
			st, err := stack.Open(open(t, path), stack.Config{Backend: stack.JPDT})
			if err != nil {
				t.Fatalf("open %d: %v", i, err)
			}
			g := store.NewGrid(st.Backend, store.Options{})
			if i == 0 {
				if err := g.Insert("k", &store.Record{Fields: []store.Field{{Name: "f", Value: []byte("v")}}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := g.Read("k", func(_ string, v []byte) {
				if string(v) != "v" {
					t.Errorf("open %d reads %q", i, v)
				}
			}); err != nil {
				t.Fatalf("open %d: %v", i, err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if out, err := exec.Command(fsck, path).CombinedOutput(); err != nil {
			t.Errorf("fsck of a served pool: %v\n%s", err, out)
		}
	})
}
