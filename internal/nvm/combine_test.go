package nvm

import (
	"math/rand"
	"sync"
	"testing"
)

func TestCombinerSoloIssuesOneFence(t *testing.T) {
	p := New(1<<16, Options{})
	c := NewFenceCombiner()

	before := p.Obs().Snapshot()
	c.Fence(p)
	d := p.Obs().Snapshot().Sub(before)
	if d.PFences != 1 || d.PSyncs != 0 {
		t.Fatalf("solo Fence issued %d pfence, %d psync; want 1, 0", d.PFences, d.PSyncs)
	}

	if barriers, issued := c.Stats(); barriers != 1 || issued != 1 {
		t.Fatalf("stats = (%d, %d), want (1, 1)", barriers, issued)
	}
}

func TestCombinerCoversQueuedWrites(t *testing.T) {
	// In tracked mode a fence drains the whole write-pending queue; the
	// combiner's contract is that a caller's own PWBs — queued before it
	// entered the barrier — are persisted by the covering fence.
	p := New(1<<16, Options{Tracked: true})
	c := NewFenceCombiner()
	p.WriteUint64(0, 7)
	p.PWB(0)
	c.Fence(p)
	img := p.CrashImage(CrashStrict, rand.New(rand.NewSource(1)))
	if v := img.ReadUint64(0); v != 7 {
		t.Fatalf("write not durable after combined fence: strict crash reads %d", v)
	}
}

func TestCombinerConcurrentSharesBarriers(t *testing.T) {
	p := New(1<<20, Options{})
	c := NewFenceCombiner()
	const workers = 8
	const rounds = 200

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				off := uint64(w*rounds+i) * 8
				p.WriteUint64(off, uint64(i))
				p.PWB(off)
				c.Fence(p)
			}
		}(w)
	}
	wg.Wait()

	barriers, issued := c.Stats()
	if barriers != workers*rounds {
		t.Fatalf("barriers = %d, want %d", barriers, workers*rounds)
	}
	if issued > barriers {
		t.Fatalf("issued %d fences for %d barriers", issued, barriers)
	}
	if s := p.Obs().Snapshot(); s.PFences != issued {
		t.Fatalf("pool saw %d fences, combiner issued %d", s.PFences, issued)
	}
}
