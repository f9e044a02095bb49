package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/nvm"
)

// node is a fan-out test class: eight reference slots plus a payload
// word, so randomized graphs get shared subgraphs, diamonds and cycles.
type node struct{ *Object }

const (
	nodeRefs = 8
	nodeVal  = nodeRefs * 8
	nodeLen  = nodeVal + 8
)

func nodeClass() *Class {
	refs := make([]uint64, nodeRefs)
	for i := range refs {
		refs[i] = uint64(i * 8)
	}
	return &Class{
		Name:    "test.node",
		Factory: func(o *Object) PObject { return &node{Object: o} },
		Refs:    func(o *Object) []uint64 { return refs },
	}
}

// leaf is a pooled small immutable class (no refs), so the graphs also
// exercise chunk marking, slot masks and slot-list rebuilds.
func leafClass() *Class {
	return &Class{
		Name:    "test.leaf",
		Factory: func(o *Object) PObject { return &node{Object: o} },
	}
}

// buildRandomGraph fills the heap with a randomized object graph: block
// nodes with up to eight outgoing refs (sharing earlier nodes and pooled
// leaves), pooled leaves of random size classes, invalid-but-referenced
// objects (to exercise nullification), published roots, and freed
// garbage. Returns nothing: the interesting output is the pool image.
func buildRandomGraph(t *testing.T, rng *rand.Rand, h *Heap, ncls, lcls *Class) {
	t.Helper()
	var leaves []Ref
	var invalid []Ref // allocated, never validated
	for i := 0; i < 60; i++ {
		payload := uint64(8 + rng.Intn(72))
		po, err := h.AllocSmall(lcls, payload)
		if err != nil {
			t.Fatal(err)
		}
		o := po.Core()
		o.PWB()
		if rng.Intn(10) == 0 {
			invalid = append(invalid, o.Ref())
		} else {
			o.Validate()
			leaves = append(leaves, o.Ref())
		}
	}
	var nodes []*node
	referenced := make(map[Ref]bool)
	for i := 0; i < 150; i++ {
		po, err := h.Alloc(ncls, nodeLen)
		if err != nil {
			t.Fatal(err)
		}
		n := po.(*node)
		n.WriteInt64(nodeVal, int64(i))
		for slot := 0; slot < nodeRefs; slot++ {
			switch rng.Intn(5) {
			case 0: // share an earlier node
				if len(nodes) > 0 {
					target := nodes[rng.Intn(len(nodes))].Ref()
					n.WriteRef(uint64(slot*8), target)
					referenced[target] = true
				}
			case 1, 2: // share a pooled leaf
				if len(leaves) > 0 {
					n.WriteRef(uint64(slot*8), leaves[rng.Intn(len(leaves))])
				}
			case 3: // dangling ref to an invalid object -> nullified
				if len(invalid) > 0 {
					n.WriteRef(uint64(slot*8), invalid[rng.Intn(len(invalid))])
				}
			}
		}
		n.PWB()
		if rng.Intn(8) == 0 {
			invalid = append(invalid, n.Ref())
			continue // never validated: dead at recovery even if referenced
		}
		n.Validate()
		nodes = append(nodes, n)
	}
	// Publish about a third of the valid nodes; the rest are garbage
	// unless another published node reaches them.
	published := 0
	for i, n := range nodes {
		if rng.Intn(3) == 0 {
			if err := h.Root().Put(fmt.Sprintf("n%d", i), n); err != nil {
				t.Fatal(err)
			}
			referenced[n.Ref()] = true
			published++
		}
	}
	if published == 0 {
		if err := h.Root().Put("n0", nodes[0]); err != nil {
			t.Fatal(err)
		}
		referenced[nodes[0].Ref()] = true
	}
	// Free a few valid objects that nothing publishes or references: their
	// blocks carry stale-but-invalid headers the sweep must scrub. Freeing
	// a referenced one would leave a live reference to a reusable block.
	for i := 0; i < 10 && i < len(nodes); i++ {
		if rng.Intn(4) == 0 && !referenced[nodes[i].Ref()] {
			h.Mem().FreeObject(nodes[i].Ref())
		}
	}
	h.PSync()
}

// everySizeClass publishes one valid leaf of each pool size class behind
// one rooted node (buildRandomGraph's leaves stop at the 88-byte class),
// so every slot size has a live chunk at recovery.
func everySizeClass(t *testing.T, h *Heap, ncls, lcls *Class) {
	t.Helper()
	po, err := h.Alloc(ncls, nodeLen)
	if err != nil {
		t.Fatal(err)
	}
	n := po.(*node)
	for sc, size := range heap.SlotSizes {
		lp, err := h.AllocSmall(lcls, uint64(size-8))
		if err != nil {
			t.Fatal(err)
		}
		l := lp.Core()
		l.PWB()
		l.Validate()
		n.WriteRef(uint64(sc*8), l.Ref())
	}
	n.PWB()
	n.Validate()
	if err := h.Root().Put("classes", n); err != nil {
		t.Fatal(err)
	}
	h.PSync()
}

// capturePlane passively captures crash states at a fixed stride of
// ordering points while a workload runs — the explorer's observation
// hook, minus the plug-pull: capture is instantaneous and leaves the run
// undisturbed, so one build yields many mid-flight persistence states.
type capturePlane struct {
	pool   *nvm.Pool
	stride int
	count  int
	max    int
	states []*nvm.CrashState
}

func (c *capturePlane) OrderingPoint(nvm.FaultEvent) {
	c.count++
	if len(c.states) < c.max && c.count%c.stride == 0 {
		c.states = append(c.states, c.pool.CaptureCrashState())
	}
}

// recoveredLine recovers img and renders what the golden file pins: the
// SHA-256 of the whole recovered pool, the recovery statistics, the free
// queue's length, the bump, and the live pool chunks per size class — or
// the error of an image recovery refuses.
func recoveredLine(name string, img *nvm.Pool, skipGraph bool) string {
	cfg := testCfg(nodeClass(), leafClass())
	cfg.SkipGraphGC = skipGraph
	h, err := Open(img, cfg)
	if err != nil {
		return fmt.Sprintf("%s\terr=%v", name, err)
	}
	mem := h.Mem()
	var chunks [len(heap.SlotSizes)]int
	for idx := uint64(0); idx < mem.Bump(); idx++ {
		if id, valid, sc := heap.UnpackHeader(mem.Header(mem.BlockRef(idx))); id == heap.PoolChunkClass && valid {
			chunks[sc]++
		}
	}
	return fmt.Sprintf("%s\tsha256=%x\tstats=%+v\tfree=%d\tbump=%d\tchunks=%v",
		name, sha256.Sum256(img.View(0, img.Size())), h.RecoveryStats, mem.FreeBlocks(), mem.Bump(), chunks)
}

// recoveryGoldenLines builds the seeded pre-recovery images and recovers
// each: four randomized graphs (shared subgraphs, dangling refs to
// invalid objects, garbage, freed objects, a live chunk of every size
// class), the first of them once more by header scan (SkipGraphGC), and
// mid-flight crash states of two more builds, each as a dropped-line
// image and as a torn one.
func recoveryGoldenLines(t *testing.T) []string {
	var lines []string
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := nvm.New(1<<22, nvm.Options{})
		ncls, lcls := nodeClass(), leafClass()
		h, err := Open(pool, testCfg(ncls, lcls))
		if err != nil {
			t.Fatal(err)
		}
		buildRandomGraph(t, rng, h, ncls, lcls)
		everySizeClass(t, h, ncls, lcls)
		snapshot := pool.ReadBytes(0, pool.Size())
		image := func() *nvm.Pool {
			p := nvm.New(len(snapshot), nvm.Options{})
			p.WriteBytes(0, snapshot)
			return p
		}
		lines = append(lines, recoveredLine(fmt.Sprintf("graph/seed=%d", seed), image(), false))
		if seed == 0 {
			lines = append(lines, recoveredLine("scan/seed=0", image(), true))
		}
	}
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := nvm.New(1<<21, nvm.Options{Tracked: true})
		ncls, lcls := nodeClass(), leafClass()
		h, err := Open(pool, testCfg(ncls, lcls))
		if err != nil {
			t.Fatal(err)
		}
		cp := &capturePlane{pool: pool, stride: 101, max: 64}
		pool.SetFaultPlane(cp)
		buildRandomGraph(t, rng, h, ncls, lcls)
		pool.SetFaultPlane(nil)
		// The last eight states fall in the publish-and-free phase; the
		// earlier ones hold nothing rooted yet.
		for si, cs := range cp.states[len(cp.states)-8:] {
			for _, torn := range []bool{false, true} {
				policy := nvm.CrashRandom
				if torn {
					policy = nvm.CrashTorn
				}
				img := cs.Image(cs.Spec(policy, rand.New(rand.NewSource(seed*1000+int64(si)))))
				name := fmt.Sprintf("crash/seed=%d/state=%d/torn=%v", seed, si, torn)
				lines = append(lines, recoveredLine(name, img, false))
			}
		}
	}
	return lines
}

// TestRecoveryMatchesParentImage pins recovery's output byte for byte
// against testdata/recovery.golden, one line per image of
// recoveryGoldenLines. A crash/ line depends on the lines its captured
// state left pending as well, because the dropped-line and torn specs
// draw over exactly those lines: a build that leaves a different set
// pending (heap.Format persisting the metadata area it zeroes, say)
// rewrites those lines and no graph/ or scan/ line. Any change to what
// recovery writes — a header scrubbed or missed, a slot zeroed, a
// reference nullified, the bump — or to what it counts shows here.
func TestRecoveryMatchesParentImage(t *testing.T) {
	raw, err := os.ReadFile("testdata/recovery.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := recoveryGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d images, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("image %d differs\n got: %s\nwant: %s", i, got[i], want[i])
		}
		if !strings.HasPrefix(got[i], "graph/") {
			continue
		}
		_, chunks, _ := strings.Cut(got[i], "chunks=")
		if counts := strings.Fields(strings.Trim(chunks, "[]")); len(counts) != len(heap.SlotSizes) || slices.Contains(counts, "0") {
			t.Errorf("image %d lacks a live chunk of some size class: %s", i, got[i])
		}
	}
}

// TestRecoveryRejectsForeignReferences crafts images whose reachable
// objects hold a reference that names no object: past the arena, into
// the payload of a plain block at a word whose valid bit is set, to an
// object whose block chain loops, into a pool chunk off a slot boundary,
// and to a pool chunk's header. Recovery must refuse each with an error naming the referring
// object and the reference — not panic, loop or nullify it.
func TestRecoveryRejectsForeignReferences(t *testing.T) {
	cases := []struct {
		name string
		// craft returns the foreign reference, after corrupting whatever
		// else it needs.
		craft func(t *testing.T, h *Heap, ncls, lcls *Class) Ref
	}{
		{"past the end", func(t *testing.T, h *Heap, _, _ *Class) Ref {
			return h.Mem().BlockRef(h.Mem().NBlocks()-1) + heap.BlockSize
		}},
		{"inside a plain block", func(t *testing.T, h *Heap, ncls, _ *Class) Ref {
			po, err := h.Alloc(ncls, nodeLen)
			if err != nil {
				t.Fatal(err)
			}
			p := po.Core()
			p.WriteUint64(nodeVal, 1<<48) // a slot header's valid bit
			p.PWB()
			p.Validate()
			return p.Ref() + heap.HeaderSize + nodeVal
		}},
		{"cyclic chain", func(t *testing.T, h *Heap, ncls, _ *Class) Ref {
			po, err := h.Alloc(ncls, 2*heap.Payload)
			if err != nil {
				t.Fatal(err)
			}
			o := po.Core()
			o.PWB()
			o.Validate()
			mem := h.Mem()
			blocks := mem.Blocks(o.Ref())
			mem.WriteHeader(blocks[1], heap.PackHeader(0, false, mem.BlockIndex(blocks[0])+1))
			h.pool.PWB(blocks[1])
			return o.Ref()
		}},
		{"chunk interior", func(t *testing.T, h *Heap, _, lcls *Class) Ref {
			po, err := h.AllocSmall(lcls, 16)
			if err != nil {
				t.Fatal(err)
			}
			l := po.Core()
			l.PWB()
			l.Validate()
			return l.Ref() + 8
		}},
		{"chunk header", func(t *testing.T, h *Heap, _, lcls *Class) Ref {
			po, err := h.AllocSmall(lcls, 16)
			if err != nil {
				t.Fatal(err)
			}
			l := po.Core()
			l.PWB()
			l.Validate()
			return h.Mem().ContainingBlock(l.Ref())
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := nvm.New(1<<20, nvm.Options{})
			ncls, lcls := nodeClass(), leafClass()
			h, err := Open(pool, testCfg(ncls, lcls))
			if err != nil {
				t.Fatal(err)
			}
			po, err := h.Alloc(ncls, nodeLen)
			if err != nil {
				t.Fatal(err)
			}
			n := po.(*node)
			foreign := tc.craft(t, h, ncls, lcls)
			n.WriteRef(0, foreign)
			n.PWB()
			n.Validate()
			if err := h.Root().Put("n", n); err != nil {
				t.Fatal(err)
			}
			h.PSync()

			_, err = Open(pool, testCfg(nodeClass(), leafClass()))
			if err == nil {
				t.Fatalf("recovery accepted reference %#x", foreign)
			}
			for _, ref := range []Ref{n.Ref(), foreign} {
				if !strings.Contains(err.Error(), fmt.Sprintf("%#x", ref)) {
					t.Errorf("error does not name %#x: %v", ref, err)
				}
			}
		})
	}
}
