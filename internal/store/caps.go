package store

import "strings"

// KeyLister is an optional backend capability: enumerate every stored key
// in a deterministic (sorted) order. The shard migrator uses it to walk a
// pool's records when the epoch table grows; all four J-NVM backends
// implement it.
type KeyLister interface {
	Keys() []string
}

// Caps is a backend's capability descriptor: the optional operations it
// supports beyond Backend, one interface-typed field each, nil meaning
// absent. It is the only way the grid and the shard layer learn what a
// backend can do — nothing type-asserts a Backend — so a wrapper that
// forwards a backend forwards exactly the capabilities its descriptor
// names, and a dropped one is an absent field instead of a silent slow
// path.
type Caps struct {
	Keys     KeyLister
	View     ViewReader
	LockFree LockFreeBackend
	Delta    DeltaAdder
	Scan     Scanner
}

// String lists the capabilities present, in field order ("keys,view").
// Two descriptors offer the same operations exactly when their strings
// match, which is how the shard layer checks that a pool fits its set.
func (c Caps) String() string {
	var names []string
	for _, f := range []struct {
		name    string
		present bool
	}{
		{"keys", c.Keys != nil},
		{"view", c.View != nil},
		{"lockfree", c.LockFree != nil},
		{"delta", c.Delta != nil},
		{"scan", c.Scan != nil},
	} {
		if f.present {
			names = append(names, f.name)
		}
	}
	return strings.Join(names, ",")
}
