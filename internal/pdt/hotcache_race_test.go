package pdt

import (
	"fmt"
	"sync"
	"testing"
)

// TestMapHotCacheDeleteRace pins the stale-reinsert race on the bounded
// proxy cache: Get used to insert into the cache after dropping the
// key's shard lock, so a concurrent Delete could run its mirror removal
// AND its cache eviction inside that window — the late put then parked a
// proxy to freed NVMM in the LRU, and every later Get served the deleted
// value. With the put held under the shard read lock, a cache hit after
// Delete returns is impossible.
func TestMapHotCacheDeleteRace(t *testing.T) {
	h, _, _ := openPDT(t, 1<<23, false)
	m := newTestMap(t, h, MirrorHash, "m")
	m.SetCacheHot(64)
	const iters = 300
	for i := 0; i < iters; i++ {
		key := fmt.Sprintf("k%03d", i%7)
		putStr(t, h, m, key, "v")
		start := make(chan struct{})
		done := make(chan struct{})
		go func() {
			close(start)
			for j := 0; j < 50; j++ {
				if _, err := m.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
			close(done)
		}()
		<-start
		m.Delete(key)
		<-done
		// The mirror says the key is gone; the cache must agree.
		if po, err := m.Get(key); err != nil {
			t.Fatal(err)
		} else if po != nil {
			t.Fatalf("iter %d: Get(%q) served a deleted value from the hot cache", i, key)
		}
	}
}

// TestMapHotCacheConcurrentChurn is the -race companion: writers churn
// disjoint key ranges while readers hammer Get/Contains through the
// bounded cache, checking the lock order (shard lock → cache mutex)
// introduced by the fix is consistent and data-race free.
func TestMapHotCacheConcurrentChurn(t *testing.T) {
	h, _, _ := openPDT(t, 1<<24, false)
	m := newTestMap(t, h, MirrorHash, "m")
	m.SetCacheHot(32) // smaller than the live key set: eviction is exercised
	const (
		writers = 4
		perKey  = 24
		rounds  = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < perKey; i++ {
					key := fmt.Sprintf("w%d-k%02d", w, i)
					v, err := NewBytes(h, []byte(fmt.Sprintf("r%d", r)))
					if err != nil {
						t.Error(err)
						return
					}
					if err := m.Put(key, v); err != nil {
						t.Error(err)
						return
					}
					if i%3 == 0 {
						m.Delete(key)
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-k%02d", (g+i)%writers, i%perKey)
				if _, err := m.Get(key); err != nil {
					t.Error(err)
					return
				}
				m.Contains(key)
				i++
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for w := 0; w < writers; w++ {
		for i := 0; i < perKey; i++ {
			key := fmt.Sprintf("w%d-k%02d", w, i)
			want := i%3 != 0
			if got := m.Contains(key); got != want {
				t.Fatalf("%s present=%v, want %v", key, got, want)
			}
			if want {
				if v, ok := getStr(t, m, key); !ok || v != fmt.Sprintf("r%d", rounds-1) {
					t.Fatalf("%s = %q %v", key, v, ok)
				}
			}
		}
	}
}

// TestMapReplaceVsGrowthAndGet is the -race test of value replacement on
// the shared array: one writer keeps replacing a key's value — a store
// into a word of the array, and a free of the previous value — while
// another inserts keys until the array has grown several times and
// readers Get the replaced key through the bounded cache. Replacement
// must exclude growth's copy (the new array would carry the freed value)
// and the key's readers (Get would resurrect the value being freed, or
// cache its proxy after the new one).
func TestMapReplaceVsGrowthAndGet(t *testing.T) {
	h, _, _ := openPDT(t, 1<<24, false)
	m := newTestMap(t, h, MirrorHash, "m")
	m.SetCacheHot(4)
	const (
		grown    = 40 * bindingsPerBlock // six doublings
		replaced = 3000
	)
	putStr(t, h, m, "hot", "r0")
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if po, err := m.Get("hot"); err != nil || po == nil {
					t.Errorf("Get(hot) = %v, %v", po, err)
					return
				}
				if m.GetRef("hot") == 0 {
					t.Error("GetRef(hot) = 0")
					return
				}
			}
		}()
	}
	put := func(key, val string) bool {
		v, err := NewBytes(h, []byte(val))
		if err == nil {
			err = m.Put(key, v)
		}
		if err != nil {
			t.Error(err)
		}
		return err == nil
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 1; i <= replaced && put("hot", fmt.Sprintf("r%d", i)); i++ {
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < grown && put(fmt.Sprintf("g%04d", i), "v"); i++ {
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	if v, ok := getStr(t, m, "hot"); !ok || v != fmt.Sprintf("r%d", replaced) {
		t.Fatalf("hot = %q %v, want r%d", v, ok, replaced)
	}
	if full, half, _ := ScanBindings(h, m.Ref()); full != grown+1 || half != 0 || m.Len() != grown+1 {
		t.Fatalf("%d full and %d half bindings in the array, %d keys in the mirror, want %d, 0, %d",
			full, half, m.Len(), grown+1, grown+1)
	}
}
