#!/bin/sh
# Structure gate (DESIGN.md §3): two decisions each live in one place, and
# this fails, printing file:line, when a second copy appears; and the
# package inventory of §3 is the tree's.
#
#  1. Stack assembly. A redo-log manager and a recovered object heap are
#     built together in internal/stack only. core.Open( or fa.NewManager()
#     anywhere else in non-test Go — outside internal/core, internal/fa and
#     bench/table3.go, whose raw heap has no manager — is a hand-rolled
#     stack.
#  2. Backend capabilities. What a store.Backend can do beyond the
#     interface is its Caps() descriptor (internal/store/caps.go). A type
#     assertion to one of the capability interfaces is a second opinion
#     that a wrapper can silently fail to forward. benchmarks/ is exempt:
#     it pins store.DeltaAdder and is edited by benchmark-only PRs.
#  3. Inventory. The directories under cmd/ and internal/ are exactly the
#     entries of the tree in DESIGN.md §3 (a 4-space-indented `name/` line
#     under the 2-space `cmd/` or `internal/` line).
#  4. One map representation. A binding is two words of the map's array
#     (DESIGN.md §3.2); the 16-byte pdt.pair object is gone. Its class
#     coming back — a ClassPair identifier anywhere, a pdt.pair name in
#     pdt's class table or constants, or either in §3's inventory (up to
#     §3.1) — is a
#     second representation. (map.go names "pdt.pair" once, in the list
#     of formats core.Open refuses.)
set -eu

fail=0

hits=$(grep -rn --include='*.go' -e 'core\.Open(' -e 'fa\.NewManager()' . |
    grep -v -e '_test\.go:' -e '^\./benchmarks/' -e '^\./internal/stack/' \
        -e '^\./internal/core/' -e '^\./internal/fa/' -e '^\./internal/bench/table3\.go:' || true)
if [ -n "$hits" ]; then
    echo "stack assembled outside internal/stack (use stack.Open):" >&2
    echo "$hits" >&2
    fail=1
fi

hits=$(grep -rnE --include='*.go' '\.\((store\.)?(KeyLister|ViewReader|LockFreeBackend|DeltaAdder|Scanner)\)' . |
    grep -v -e '^\./benchmarks/' -e '^\./internal/store/caps\.go:' || true)
if [ -n "$hits" ]; then
    echo "capability type assertion (read the backend's Caps() instead):" >&2
    echo "$hits" >&2
    fail=1
fi

listed=$(awk '/^## 3\. /{on=1; next} /^##/{on=0} !on{next}
    /^  [a-z]+\/( |$)/{top=$1} /^    [a-z]+\/( |$)/{print top $1}' DESIGN.md | grep -E '^(cmd|internal)/' || true)
for d in cmd/*/ internal/*/; do
    echo "$listed" | grep -qxF "$d" || {
        echo "DESIGN.md §3 does not name $d" >&2
        fail=1
    }
done
for d in $listed; do
    [ -d "$d" ] || {
        echo "DESIGN.md §3 names $d, which does not exist" >&2
        fail=1
    }
done

hits=$({
    grep -rn --include='*.go' -e 'ClassPair' . || true
    grep -n -e 'pdt\.pair' internal/pdt/classes.go internal/pdt/pstring.go || true
    awk '/^## 3\. /{on=1; next} /^##/{on=0} on && /pdt\.pair|ClassPair/{print "DESIGN.md:" NR ": " $0}' DESIGN.md
})
if [ -n "$hits" ]; then
    echo "the pair class is back (a binding is two words of the map's array):" >&2
    echo "$hits" >&2
    fail=1
fi

exit $fail
