package crashmc

import (
	"fmt"
	"sort"
	"strings"
)

// absent is the state of a key that holds nothing. Every other state is a
// rendered record ("{...}"), a vector ("[...]") or a number, so neither an
// empty value nor an empty record can be taken for a missing one.
const absent = "<absent>"

// render is the one canonical form of a record-shaped state: fields sorted
// by name, names and values quoted. A nil record is absent; an empty one
// is "{}".
func render(rec map[string]string) string {
	if rec == nil {
		return absent
	}
	names := make([]string, 0, len(rec))
	for n := range rec {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%q=%q", n, rec[n])
	}
	b.WriteByte('}')
	return b.String()
}

// oracle is every workload's crash oracle: per key, the states a recovery
// may show (DESIGN.md §13). A key nobody issued to is absent. Exec
// advances it with three events, check consults it.
type oracle map[string]*legal

// legal is one key's recoverable states: the latest, which the key holds
// in the model now, and every older state a crash may still expose.
type legal struct {
	latest string
	older  map[string]bool
	// folded: latest is a ledger fold that has not landed, so the next
	// fold replaces it instead of keeping it.
	folded bool
}

func (o oracle) at(key string) *legal {
	l := o[key]
	if l == nil {
		l = &legal{latest: absent}
		o[key] = l
	}
	return l
}

// issue records an operation that may land from now on: key moves to s,
// and every state key could already show stays legal.
func (o oracle) issue(key, s string) {
	l := o.at(key)
	l.keep()
	l.latest, l.folded = s, false
}

// fold records a delta folded into key's ledger entry. A ledger entry
// materializes whole, with the sum of its deltas, so the fold it replaces
// is never recoverable; the state before the first fold stays legal.
func (o oracle) fold(key, s string) {
	l := o.at(key)
	if !l.folded {
		l.keep()
	}
	l.latest, l.folded = s, true
}

func (l *legal) keep() {
	if l.older == nil {
		l.older = map[string]bool{}
	}
	l.older[l.latest] = true
}

// ack records that the named keys, or every key when none is named, are
// durable at their latest state: a per-Tx commit or a drain returned, or a
// fence covered them.
func (o oracle) ack(keys ...string) {
	if len(keys) == 0 {
		for _, l := range o {
			l.older, l.folded = nil, false
		}
	}
	for _, k := range keys {
		l := o.at(k)
		l.older, l.folded = nil, false
	}
}

// view reads key's states without adding the key.
func (o oracle) view(key string) legal {
	if l := o[key]; l != nil {
		return *l
	}
	return legal{latest: absent}
}

// latest is the state key holds in the model.
func (o oracle) latest(key string) string { return o.view(key).latest }

// check returns an error naming key, the recovered state got and the
// sorted legal states, unless got is one of them.
func (o oracle) check(key, got string) error {
	l := o.view(key)
	if got == l.latest || l.older[got] {
		return nil
	}
	states := []string{l.latest}
	for s := range l.older {
		if s != l.latest {
			states = append(states, s)
		}
	}
	sort.Strings(states)
	return fmt.Errorf("key %s: recovered %s, legal: %s", key, got, strings.Join(states, " | "))
}
