package container

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// orderedMap is the common interface of the two ordered mirrors, letting
// one oracle test cover both.
type orderedMap[V any] interface {
	Get(string) (V, bool)
	Put(string, V)
	Delete(string) bool
	Len() int
	Min() (string, V, bool)
	Ascend(string, func(string, V) bool)
}

func runOracle(t *testing.T, m orderedMap[int], seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	oracle := map[string]int{}
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%03d", rng.Intn(200))
		switch rng.Intn(3) {
		case 0, 1:
			m.Put(key, i)
			oracle[key] = i
		case 2:
			want := false
			if _, ok := oracle[key]; ok {
				want = true
			}
			if got := m.Delete(key); got != want {
				t.Fatalf("op %d: Delete(%s) = %v, want %v", i, key, got, want)
			}
			delete(oracle, key)
		}
		if m.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, oracle %d", i, m.Len(), len(oracle))
		}
	}
	for k, v := range oracle {
		got, ok := m.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%s) = %d,%v, want %d", k, got, ok, v)
		}
	}
	if _, ok := m.Get("missing-key"); ok {
		t.Fatal("Get of a missing key succeeded")
	}
	// Ordered iteration must match the sorted oracle keys.
	var want []string
	for k := range oracle {
		want = append(want, k)
	}
	sort.Strings(want)
	var got []string
	m.Ascend("", func(k string, _ int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Ascend yielded %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Ascend[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if len(want) > 0 {
		k, _, ok := m.Min()
		if !ok || k != want[0] {
			t.Fatalf("Min = %s, want %s", k, want[0])
		}
	}
}

func TestRBTreeOracle(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		tree := NewRBTree[int]()
		runOracle(t, tree, seed, 2000)
		if err := tree.checkInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSkipListOracle(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		runOracle(t, NewSkipList[int](seed+100), seed, 2000)
	}
}

func TestRBTreeInvariantsUnderChurn(t *testing.T) {
	tree := NewRBTree[int]()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("%04d", rng.Intn(500))
		if rng.Intn(2) == 0 {
			tree.Put(k, i)
		} else {
			tree.Delete(k)
		}
		if i%97 == 0 {
			if err := tree.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeMax(t *testing.T) {
	tree := NewRBTree[int]()
	if _, _, ok := tree.Max(); ok {
		t.Fatal("Max on empty tree")
	}
	for _, k := range []string{"m", "a", "z", "q"} {
		tree.Put(k, 1)
	}
	if k, _, _ := tree.Max(); k != "z" {
		t.Fatalf("Max = %s", k)
	}
	if k, _, _ := tree.Min(); k != "a" {
		t.Fatalf("Min = %s", k)
	}
}

func TestAscendFromMidpoint(t *testing.T) {
	builders := map[string]func() orderedMap[int]{
		"rbtree":   func() orderedMap[int] { return NewRBTree[int]() },
		"skiplist": func() orderedMap[int] { return NewSkipList[int](1) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			m := build()
			for i := 0; i < 100; i++ {
				m.Put(fmt.Sprintf("%03d", i), i)
			}
			var got []string
			m.Ascend("050", func(k string, _ int) bool {
				got = append(got, k)
				return len(got) < 10
			})
			if len(got) != 10 || got[0] != "050" || got[9] != "059" {
				t.Fatalf("scan from 050: %v", got)
			}
		})
	}
}

func TestQuickOrderedEquivalence(t *testing.T) {
	// Property: the two ordered maps agree with each other on any input.
	f := func(keys []string) bool {
		tree := NewRBTree[int]()
		list := NewSkipList[int](42)
		for i, k := range keys {
			tree.Put(k, i)
			list.Put(k, i)
		}
		if tree.Len() != list.Len() {
			return false
		}
		agree := true
		tree.Ascend("", func(k string, v int) bool {
			lv, ok := list.Get(k)
			if !ok || lv != v {
				agree = false
				return false
			}
			return true
		})
		return agree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	l := NewLRU[int](3)
	l.Put("a", 1)
	l.Put("b", 2)
	l.Put("c", 3)
	l.Get("a")    // refresh a
	l.Put("d", 4) // evicts b
	l.Put("e", 5) // evicts c
	for _, k := range []string{"b", "c"} {
		if _, ok := l.Get(k); ok {
			t.Fatalf("%s survived eviction", k)
		}
	}
	if _, ok := l.Get("a"); !ok {
		t.Fatal("refreshed entry evicted")
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestLRUUpdateAndRemove(t *testing.T) {
	l := NewLRU[int](2)
	l.Put("x", 1)
	l.Put("x", 2)
	if v, _ := l.Get("x"); v != 2 {
		t.Fatal("update lost")
	}
	if !l.Remove("x") || l.Remove("x") {
		t.Fatal("remove semantics")
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	l := NewLRU[int](0)
	l.Put("a", 1)
	if l.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestLRUStress(t *testing.T) {
	l := NewLRU[int](64)
	oracle := map[string]int{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(200))
		if rng.Intn(2) == 0 {
			l.Put(k, i)
			oracle[k] = i
		} else if v, ok := l.Get(k); ok {
			if oracle[k] != v {
				t.Fatalf("stale value for %s: %d vs %d", k, v, oracle[k])
			}
		}
		if l.Len() > 64 {
			t.Fatal("capacity exceeded")
		}
	}
}
