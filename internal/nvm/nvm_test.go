package nvm

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	p := New(4096, Options{})
	p.WriteUint64(0, 0xdeadbeefcafebabe)
	if got := p.ReadUint64(0); got != 0xdeadbeefcafebabe {
		t.Fatalf("uint64 round trip: got %#x", got)
	}
	p.WriteUint32(8, 0x12345678)
	if got := p.ReadUint32(8); got != 0x12345678 {
		t.Fatalf("uint32 round trip: got %#x", got)
	}
	p.WriteUint16(12, 0xabcd)
	if got := p.ReadUint16(12); got != 0xabcd {
		t.Fatalf("uint16 round trip: got %#x", got)
	}
	p.WriteUint8(14, 0x42)
	if got := p.ReadUint8(14); got != 0x42 {
		t.Fatalf("byte round trip: got %#x", got)
	}
	p.WriteBytes(100, []byte("hello nvmm"))
	if got := string(p.ReadBytes(100, 10)); got != "hello nvmm" {
		t.Fatalf("bytes round trip: got %q", got)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	p := New(64, Options{})
	p.WriteUint64(0, 0x0102030405060708)
	if p.ReadUint8(0) != 0x08 || p.ReadUint8(7) != 0x01 {
		t.Fatalf("layout is not little-endian: % x", p.ReadBytes(0, 8))
	}
}

func TestZeroAndCopyWithin(t *testing.T) {
	p := New(1024, Options{})
	p.WriteBytes(0, bytes.Repeat([]byte{0xff}, 64))
	p.Zero(16, 16)
	for i := uint64(16); i < 32; i++ {
		if p.ReadUint8(i) != 0 {
			t.Fatalf("Zero left byte %d = %#x", i, p.ReadUint8(i))
		}
	}
	p.CopyWithin(128, 0, 64)
	if !bytes.Equal(p.ReadBytes(128, 64), p.ReadBytes(0, 64)) {
		t.Fatal("CopyWithin mismatch")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	p := New(64, Options{})
	cases := []func(){
		func() { p.ReadUint64(60) },
		func() { p.WriteUint64(64, 1) },
		func() { p.ReadBytes(0, 65) },
		func() { p.WriteBytes(63, []byte{1, 2}) },
		func() { p.PWB(64) },
		func() { p.ReadUint64(^uint64(0) - 3) }, // overflow wrap
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTrackedStrictCrashDropsUnfenced(t *testing.T) {
	p := New(4096, Options{Tracked: true})
	p.WriteUint64(0, 1)
	img := p.CrashImage(CrashStrict, rand.New(rand.NewSource(1)))
	if img.ReadUint64(0) != 0 {
		t.Fatal("unflushed store survived a strict crash")
	}

	p.PWB(0)
	img = p.CrashImage(CrashStrict, rand.New(rand.NewSource(1)))
	if img.ReadUint64(0) != 0 {
		t.Fatal("flushed-but-unfenced store survived a strict crash")
	}

	p.PFence()
	img = p.CrashImage(CrashStrict, rand.New(rand.NewSource(1)))
	if img.ReadUint64(0) != 1 {
		t.Fatal("flushed+fenced store lost in a strict crash")
	}
}

func TestTrackedPWBSnapshotsLineContent(t *testing.T) {
	p := New(4096, Options{Tracked: true})
	p.WriteUint64(0, 1)
	p.PWB(0)
	// Store after the PWB, before the fence: must NOT be covered.
	p.WriteUint64(0, 2)
	p.PFence()
	img := p.CrashImage(CrashStrict, rand.New(rand.NewSource(1)))
	if got := img.ReadUint64(0); got != 1 {
		t.Fatalf("fence persisted post-PWB store: got %d want 1", got)
	}
	// A second PWB+fence covers it.
	p.PWB(0)
	p.PSync()
	img = p.CrashImage(CrashStrict, rand.New(rand.NewSource(1)))
	if got := img.ReadUint64(0); got != 2 {
		t.Fatalf("second flush round lost: got %d want 2", got)
	}
}

func TestTrackedCrashAllKeepsEverything(t *testing.T) {
	p := New(4096, Options{Tracked: true})
	p.WriteUint64(8, 77)
	img := p.CrashImage(CrashAll, rand.New(rand.NewSource(1)))
	if img.ReadUint64(8) != 77 {
		t.Fatal("CrashAll dropped a store")
	}
}

func TestTrackedCrashRandomSubsets(t *testing.T) {
	// With many independent lines and a random policy, some but (almost
	// surely) not all unfenced lines survive.
	p := New(1<<16, Options{Tracked: true})
	for i := uint64(0); i < 256; i++ {
		p.WriteUint64(i*LineSize, i+1)
	}
	img := p.CrashImage(CrashRandom, rand.New(rand.NewSource(42)))
	kept, lost := 0, 0
	for i := uint64(0); i < 256; i++ {
		if img.ReadUint64(i*LineSize) == i+1 {
			kept++
		} else {
			lost++
		}
	}
	if kept == 0 || lost == 0 {
		t.Fatalf("random crash not a strict subset mix: kept=%d lost=%d", kept, lost)
	}
}

func TestCrashImageIsIndependent(t *testing.T) {
	p := New(4096, Options{Tracked: true})
	p.WriteUint64(0, 5)
	p.PWBRange(0, 8)
	p.PFence()
	img := p.CrashImage(CrashStrict, rand.New(rand.NewSource(1)))
	p.WriteUint64(0, 9)
	p.PWB(0)
	p.PFence()
	if img.ReadUint64(0) != 5 {
		t.Fatal("crash image aliased live pool")
	}
}

func TestPWBRangeCoversSpanningLines(t *testing.T) {
	p := New(4096, Options{Tracked: true})
	// A 16-byte store spanning a line boundary.
	off := uint64(LineSize - 8)
	p.WriteBytes(off, bytes.Repeat([]byte{0xee}, 16))
	p.PWBRange(off, 16)
	p.PFence()
	img := p.CrashImage(CrashStrict, rand.New(rand.NewSource(1)))
	if !bytes.Equal(img.ReadBytes(off, 16), bytes.Repeat([]byte{0xee}, 16)) {
		t.Fatal("PWBRange missed a spanned line")
	}
}

func TestDurableEqualsData(t *testing.T) {
	p := New(4096, Options{Tracked: true})
	if !p.DurableEqualsData() {
		t.Fatal("fresh pool should be fully durable")
	}
	p.WriteUint64(0, 1)
	if p.DurableEqualsData() {
		t.Fatal("dirty pool reported durable")
	}
	p.PWBRange(0, 8)
	if p.DurableEqualsData() {
		t.Fatal("queued pool reported durable")
	}
	p.PSync()
	if !p.DurableEqualsData() {
		t.Fatal("synced pool not durable")
	}
}

// TestTrackedRecordsDrain: a tracked pool keeps records only for lines
// that are not durable as they read, so storing, flushing and fencing
// many distinct lines leaves none behind.
func TestTrackedRecordsDrain(t *testing.T) {
	const lines = 10000
	p := New(1<<20, Options{Tracked: true})
	for i := uint64(0); i < lines; i++ {
		off := i * LineSize
		p.WriteUint64(off, i+1)
		p.PWB(off)
		if i%7 == 0 {
			p.PFence()
		}
	}
	p.PFence()
	if !p.DurableEqualsData() {
		t.Fatal("fenced pool reports lines that are not durable")
	}
	cs := p.CaptureCrashState()
	if pend := cs.Pending(); len(pend) != 0 {
		t.Fatalf("%d pending lines after the last fence, want 0", len(pend))
	}
	img := cs.Image(nil)
	for i := uint64(0); i < lines; i++ {
		if got := img.ReadUint64(i * LineSize); got != i+1 {
			t.Fatalf("line %d: strict image holds %d, want %d", i, got, i+1)
		}
	}
}

func TestStatsCount(t *testing.T) {
	p := New(4096, Options{})
	p.WriteUint64(0, 1)
	p.WriteUint64(8, 2)
	p.PWB(0)
	p.PWBRange(0, 128) // two lines
	p.PFence()
	p.PSync()
	stores, flushes, fences := p.Stats()
	if stores != 2 || flushes != 3 || fences != 2 {
		t.Fatalf("stats = %d stores, %d flushes, %d fences", stores, flushes, fences)
	}
}

// Property: in tracked mode, any sequence of (write, pwb, fence) steps
// yields a strict crash image in which every fenced prefix store is visible
// and no never-flushed store is.
func TestQuickFencedStoresSurvive(t *testing.T) {
	f := func(vals []uint8, seed int64) bool {
		if len(vals) > 64 {
			vals = vals[:64]
		}
		p := New(1<<14, Options{Tracked: true})
		rng := rand.New(rand.NewSource(seed))
		fenced := map[uint64]byte{}
		for i, v := range vals {
			off := uint64(i) * LineSize
			p.WriteUint8(off, v)
			switch rng.Intn(3) {
			case 0: // fully persist
				p.PWB(off)
				p.PFence()
				fenced[off] = v
			case 1: // flush, no fence
				p.PWB(off)
			case 2: // nothing
			}
		}
		img := p.CrashImage(CrashStrict, rng)
		for off, v := range fenced {
			if img.ReadUint8(off) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFileBackedPoolPersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.img")
	p, err := OpenFile(path, 1<<16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.WriteUint64(128, 4242)
	p.PWBRange(128, 8)
	p.PSync()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenFile(path, 1<<16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.ReadUint64(128); got != 4242 {
		t.Fatalf("file pool lost data across reopen: got %d", got)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// TestFileBackedPoolCloseTwice: the second Close finds nothing left to
// release — before, it ran Munmap on the stale slice and closed a closed
// file, which is what gridserver's SIGTERM path did.
func TestFileBackedPoolCloseTwice(t *testing.T) {
	p, err := OpenFile(filepath.Join(t.TempDir(), "pool.img"), 1<<16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestFileBackedRejectsTracked(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFile(filepath.Join(dir, "x"), 4096, Options{Tracked: true}); err == nil {
		t.Fatal("tracked file pool should be rejected")
	}
}

func TestLatencyModelRuns(t *testing.T) {
	// Smoke test: the latency model must not hang or crash.
	p := New(4096, Options{FenceLatency: 50})
	p.WriteUint64(0, 1)
	p.PWB(0)
	p.PFence()
	p.PSync()
}
