package container

// LRU is a fixed-capacity least-recently-used map, the volatile cache that
// the store puts in front of its persistence backends (the Infinispan
// cache whose ratio §5.3.1 sweeps). Zero capacity disables caching.
type LRU[V any] struct {
	cap   int
	items map[string]*lruNode[V]
	head  *lruNode[V] // most recent
	tail  *lruNode[V] // least recent
}

type lruNode[V any] struct {
	key        string
	val        V
	prev, next *lruNode[V]
}

// NewLRU creates a cache holding at most capacity entries.
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{cap: capacity, items: make(map[string]*lruNode[V])}
}

// Len returns the number of cached entries.
func (l *LRU[V]) Len() int { return len(l.items) }

func (l *LRU[V]) unlink(n *lruNode[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *LRU[V]) pushFront(n *lruNode[V]) {
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

// Get returns the cached value and refreshes its recency.
func (l *LRU[V]) Get(key string) (V, bool) {
	n, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	if l.head != n {
		l.unlink(n)
		l.pushFront(n)
	}
	return n.val, true
}

// Put inserts or refreshes a binding, evicting the least recent entry when
// over capacity.
func (l *LRU[V]) Put(key string, val V) {
	if l.cap <= 0 {
		return
	}
	if n, ok := l.items[key]; ok {
		n.val = val
		if l.head != n {
			l.unlink(n)
			l.pushFront(n)
		}
		return
	}
	n := &lruNode[V]{key: key, val: val}
	l.items[key] = n
	l.pushFront(n)
	if len(l.items) > l.cap {
		victim := l.tail
		l.unlink(victim)
		delete(l.items, victim.key)
	}
}

// Remove drops a binding; it reports whether the key was cached.
func (l *LRU[V]) Remove(key string) bool {
	n, ok := l.items[key]
	if !ok {
		return false
	}
	l.unlink(n)
	delete(l.items, key)
	return true
}
