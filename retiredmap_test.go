package jnvm

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/stack"
	"repro/internal/store"
)

// TestLockFreeMapPoolsRefused: earlier builds had a second, lock-free
// persistent map whose root class was "pdt.lfmap", and every heap they
// formatted lists that name in its class table. A pool that holds an
// instance is refused with an error naming the class, by every opener and
// by cmd/fsck, and is left byte for byte as it was. A pool that only
// lists the name — every J-PDT and J-PFA pool of those builds — opens and
// serves.
func TestLockFreeMapPoolsRefused(t *testing.T) {
	const size = 4 << 20
	const retired = "pdt.lfmap"
	fsck := filepath.Join(t.TempDir(), "fsck")
	if out, err := exec.Command("go", "build", "-o", fsck, "./cmd/fsck").CombinedOutput(); err != nil {
		t.Fatalf("build fsck: %v\n%s", err, out)
	}
	// write leaves at path a pool whose class table names the retired
	// class, holding an instance of it under the root "kv" when bind is
	// set.
	write := func(path string, bind bool) {
		pool, err := nvm.OpenFile(path, size, nvm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		standIn := &core.Class{Name: retired, Factory: func(o *core.Object) core.PObject { return o }}
		st, err := stack.Open(pool, stack.Config{Classes: []*core.Class{standIn}})
		if err != nil {
			t.Fatal(err)
		}
		if bind {
			po, err := st.Heap.Alloc(standIn, 24)
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
	}
	open := func(path string) *nvm.Pool {
		p, err := nvm.OpenFile(path, size, nvm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	path := filepath.Join(t.TempDir(), "pool-0.nvm")
	write(path, true)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []stack.Config{{}, {Backend: stack.JPDT}} {
		if _, err := stack.Open(open(path), cfg); err == nil || !strings.Contains(err.Error(), retired) {
			t.Errorf("stack.Open(%+v) of a pool holding a %s: %v; want an error naming it", cfg, retired, err)
		}
	}
	if _, err := OpenPool(open(path), Options{}); err == nil || !strings.Contains(err.Error(), retired) {
		t.Errorf("jnvm.OpenPool of a pool holding a %s: %v", retired, err)
	}
	out, err := exec.Command(fsck, path).CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || !strings.Contains(string(out), retired) {
		t.Errorf("fsck of a pool holding a %s: %v\n%s", retired, err, out)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, image) {
		t.Errorf("a refused pool changed (%v)", err)
	}

	path = filepath.Join(t.TempDir(), "pool-0.nvm")
	write(path, false)
	for i := 0; i < 2; i++ {
		st, err := stack.Open(open(path), stack.Config{Backend: stack.JPDT})
		if err != nil {
			t.Fatalf("open %d of a pool whose class table names %s: %v", i, retired, err)
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
}
