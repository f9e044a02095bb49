package nvm

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// recordPlane records every ordering point and can panic at a chosen one.
type recordPlane struct {
	events  []FaultEvent
	panicAt int // 1-based ordering point to panic at; 0 = never
}

type planeTrip struct{}

func (r *recordPlane) OrderingPoint(ev FaultEvent) {
	r.events = append(r.events, ev)
	if r.panicAt != 0 && len(r.events) == r.panicAt {
		panic(planeTrip{})
	}
}

// TestFaultPlaneEventSequence checks that the plane sees one event per
// primitive, in program order, with the documented kinds and offsets —
// including one FaultPWB per line of a PWBRange.
func TestFaultPlaneEventSequence(t *testing.T) {
	p := New(4096, Options{Tracked: true})
	fp := &recordPlane{}
	p.SetFaultPlane(fp)
	p.WriteUint64(0, 1)
	p.WriteUint8(100, 2)
	p.PWB(0)
	p.PWBRange(60, 16) // straddles lines 0 and 64
	p.PFence()
	p.PSync()
	p.SetFaultPlane(nil)
	p.WriteUint64(8, 3) // unobserved after removal

	want := []FaultEvent{
		{Kind: FaultStore, Off: 0, Len: 8},
		{Kind: FaultStore, Off: 100, Len: 1},
		{Kind: FaultPWB, Off: 0, Len: LineSize},
		{Kind: FaultPWB, Off: 0, Len: LineSize},
		{Kind: FaultPWB, Off: 64, Len: LineSize},
		{Kind: FaultPFence},
		{Kind: FaultPSync},
	}
	if len(fp.events) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(fp.events), len(want), fp.events)
	}
	for i, ev := range fp.events {
		if ev != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, ev, want[i])
		}
	}
}

// TestFaultPlanePanicPrecedesEffect checks the "crash at point k" reading:
// a plane that panics at an ordering point stops the primitive from taking
// effect, so a crash image from that instant does not contain it.
func TestFaultPlanePanicPrecedesEffect(t *testing.T) {
	p := New(4096, Options{Tracked: true})
	p.WriteUint64(0, 0xAA)
	p.PWB(0)
	p.PSync() // durable baseline

	// Panic at the PFence following a store+PWB: the fence never drains,
	// so strict recovery sees only the baseline.
	fp := &recordPlane{panicAt: 3} // store, pwb, pfence
	p.SetFaultPlane(fp)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("plane did not trip")
			}
		}()
		p.WriteUint64(0, 0xBB)
		p.PWB(0)
		p.PFence()
	}()
	p.SetFaultPlane(nil)
	img := p.CrashImage(CrashStrict, nil)
	if got := img.ReadUint64(0); got != 0xAA {
		t.Fatalf("strict image after pre-fence crash: got %#x, want 0xAA", got)
	}

	// Same program, panic at the PWB: the line is not even queued, so the
	// store can only survive as a dirty-line eviction, never as a queued
	// snapshot.
	p2 := New(4096, Options{Tracked: true})
	fp2 := &recordPlane{panicAt: 2}
	p2.SetFaultPlane(fp2)
	func() {
		defer func() { recover() }()
		p2.WriteUint64(0, 0xCC)
		p2.PWB(0)
	}()
	p2.SetFaultPlane(nil)
	cs := p2.CaptureCrashState()
	pend := cs.Pending()
	if len(pend) != 1 || pend[0].Queued || !pend[0].Dirty {
		t.Fatalf("pending after pre-PWB crash: %+v, want one dirty unqueued line", pend)
	}
}

// TestCaptureCrashStateImmutable checks that a captured state is immune to
// stores issued after capture — the property that lets crashmc check a
// crash state while the run it was captured from goes on.
func TestCaptureCrashStateImmutable(t *testing.T) {
	p := New(4096, Options{Tracked: true})
	p.WriteUint64(0, 1)
	p.PWB(0)
	cs := p.CaptureCrashState()
	p.WriteUint64(0, 2) // post-capture store must not leak into images
	p.PWB(0)
	p.PSync()
	img := cs.Image([]CrashLine{{Line: 0, Source: CrashFromSnapshot}})
	if got := img.ReadUint64(0); got != 1 {
		t.Fatalf("captured snapshot changed after later stores: got %d, want 1", got)
	}
	img = cs.Image([]CrashLine{{Line: 0, Source: CrashFromCurrent}})
	if got := img.ReadUint64(0); got != 1 {
		t.Fatalf("captured current content changed after later stores: got %d, want 1", got)
	}
}

// TestImageOverReusesBytes checks that an image minted over an earlier
// one equals a fresh image of its spec, whatever the earlier image's user
// wrote, and that the earlier image is dead.
func TestImageOverReusesBytes(t *testing.T) {
	p := New(4096, Options{Tracked: true})
	p.WriteUint64(0, 1)
	p.PWB(0)
	p.WriteUint64(128, 2)
	cs := p.CaptureCrashState()
	spec := []CrashLine{{Line: 0, Source: CrashFromSnapshot}}
	old := cs.Image(nil)
	old.WriteUint64(1024, 9) // the earlier user's own store
	img := cs.ImageOver(old, spec)
	if want := cs.Image(spec); !bytes.Equal(img.View(0, img.Size()), want.View(0, want.Size())) {
		t.Fatal("image minted over an earlier one differs from a fresh one")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("the earlier image is still usable")
		}
	}()
	old.ReadUint64(0)
}

// TestCrashImageQueuedThenRedirtied is the regression test for the old
// CrashImage: a line that is both queued (snapshot A awaiting its fence)
// and re-dirtied (newer content B) must be able to persist either state —
// and, torn, a word-aligned mix of the two. The old implementation could
// only ever apply one coin per map, so mixes were unreachable.
func TestCrashImageQueuedThenRedirtied(t *testing.T) {
	build := func() *Pool {
		p := New(4096, Options{Tracked: true})
		for w := uint64(0); w < 8; w++ {
			p.WriteUint64(w*8, 0xA0+w) // state A
		}
		p.PWB(0) // queue snapshot A
		for w := uint64(0); w < 8; w++ {
			p.WriteUint64(w*8, 0xB0+w) // redirty with state B
		}
		return p
	}

	classify := func(img *Pool) (sawA, sawB, sawOld bool) {
		for w := uint64(0); w < 8; w++ {
			switch v := img.ReadUint64(w * 8); {
			case v == 0xA0+w:
				sawA = true
			case v == 0xB0+w:
				sawB = true
			case v == 0:
				sawOld = true
			default:
				t.Fatalf("word %d mangled: %#x", w, v)
			}
		}
		return
	}

	// Explicit specs first: each pure state, then a composed tear.
	p := build()
	cs := p.CaptureCrashState()
	if pend := cs.Pending(); len(pend) != 1 || !pend[0].Queued || !pend[0].Dirty {
		t.Fatalf("pending: %+v, want one queued+dirty line", pend)
	}
	if a, b, _ := classify(cs.Image([]CrashLine{{Line: 0, Source: CrashFromSnapshot}})); !a || b {
		t.Fatal("snapshot image does not show pure state A")
	}
	if a, b, _ := classify(cs.Image([]CrashLine{{Line: 0, Source: CrashFromCurrent}})); a || !b {
		t.Fatal("current image does not show pure state B")
	}
	mixed := cs.Image([]CrashLine{
		{Line: 0, Source: CrashFromSnapshot},
		{Line: 0, Source: CrashFromCurrent, Split: 24, Tail: false},
	})
	for w := uint64(0); w < 8; w++ {
		want := 0xA0 + w
		if w < 3 {
			want = 0xB0 + w
		}
		if got := mixed.ReadUint64(w * 8); got != want {
			t.Fatalf("mixed image word %d: got %#x, want %#x", w, got, want)
		}
	}

	// Now the policy itself: over many seeds CrashRandom must reach state
	// A, state B, and at least one A/B mix within the line. CrashTorn must
	// produce tears (partial-line images) without ever mangling a word.
	var hitA, hitB, hitMix, hitTear bool
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b, old := classify(build().CrashImage(CrashRandom, rng))
		switch {
		case a && b:
			hitMix = true
		case a && !old:
			hitA = true
		case b && !old:
			hitB = true
		}
		if (a || b) && old {
			hitTear = true
		}
		trng := rand.New(rand.NewSource(seed))
		classify(build().CrashImage(CrashTorn, trng)) // word-mangling check inside
	}
	if !hitA || !hitB {
		t.Fatalf("CrashRandom never produced both pure states: A=%v B=%v", hitA, hitB)
	}
	if !hitMix {
		t.Fatal("CrashRandom never composed snapshot and redirtied content (old bug)")
	}
	if !hitTear {
		t.Fatal("CrashRandom never tore a line at a sub-line boundary (old bug)")
	}
}

// TestCrashTornWordAtomicity checks the torn-write model across arbitrary
// specs: every aligned 8-byte word of a torn image equals either the old
// or the new content in full — a tear never splits a word, matching x86
// aligned-store atomicity.
func TestCrashTornWordAtomicity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		p := New(1024, Options{Tracked: true})
		oldPat := make([]byte, LineSize)
		newPat := make([]byte, LineSize)
		rng.Read(oldPat)
		rng.Read(newPat)
		p.WriteBytes(64, oldPat)
		p.PWB(64)
		p.PSync()
		p.WriteBytes(64, newPat)
		p.PWB(64)
		img := p.CrashImage(CrashTorn, rng)
		line := img.ReadBytes(64, LineSize)
		for w := 0; w < LineSize/8; w++ {
			word := line[w*8 : w*8+8]
			if !bytes.Equal(word, oldPat[w*8:w*8+8]) && !bytes.Equal(word, newPat[w*8:w*8+8]) {
				t.Fatalf("iter %d: word %d split mid-word", iter, w)
			}
		}
	}
}

// TestSampleSpecDeterministic checks the reproducibility contract: the
// same CrashState, policy and seed yield the same spec and byte-identical
// images.
func TestSampleSpecDeterministic(t *testing.T) {
	p := New(8192, Options{Tracked: true})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		off := uint64(rng.Intn(8192-8)) &^ 7
		p.WriteUint64(off, rng.Uint64())
		if rng.Intn(3) == 0 {
			p.PWB(off)
		}
		if rng.Intn(8) == 0 {
			p.PFence()
		}
	}
	cs := p.CaptureCrashState()
	for _, policy := range []CrashPolicy{CrashRandom, CrashTorn} {
		for seed := int64(0); seed < 10; seed++ {
			sa := cs.Spec(policy, rand.New(rand.NewSource(seed)))
			sb := cs.Spec(policy, rand.New(rand.NewSource(seed)))
			if !slices.Equal(sa, sb) {
				t.Fatalf("policy %d seed %d: specs differ across identical rngs", policy, seed)
			}
			a, b := cs.Image(sa), cs.Image(sb)
			if !bytes.Equal(a.View(0, a.Size()), b.View(0, b.Size())) {
				t.Fatalf("policy %d seed %d: images differ across identical rngs", policy, seed)
			}
		}
	}
}
