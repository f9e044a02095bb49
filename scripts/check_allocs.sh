#!/bin/sh
# Gate the allocation-free read paths (DESIGN.md §14): the zero-copy grid
# read and the map GetRef/cached-Get fast paths must stay at 0 allocs/op,
# and every other grid read regime must stay within a small ceiling; and
# gate the wire server's per-request allocations (DESIGN.md §18). Runs the
# benchmarks once and parses the -benchmem column, so a stray allocation
# in a hot loop fails CI instead of silently costing GC.
#
# Usage: scripts/check_allocs.sh [bench output file]
# Without an argument the benchmarks are run here (short benchtime: the
# allocs/op column is exact per iteration, not a statistical estimate).
set -eu

out=${1:-}
if [ -z "$out" ]; then
    out=$(mktemp)
    trap 'rm -f "$out"' EXIT
    go test -run '^$' -bench 'MapGet|GridRead' -benchtime 100x -benchmem \
        ./internal/bench/ | tee "$out"
    # The server path (DESIGN.md §18): one op is one request of a 16-deep
    # pipeline window; enough iterations that one-off growth of a
    # connection's buffers rounds to nothing.
    go test -run '^$' -bench 'ServerWindow' -benchtime 4000x -benchmem \
        ./internal/wire/ | tee -a "$out"
fi

# ceiling <pattern> <max allocs/op>: every matching benchmark row must
# report at most max.
fail=0
ceiling() {
    pattern=$1
    max=$2
    rows=$(grep -E "^Benchmark.*${pattern}" "$out" || true)
    if [ -z "$rows" ]; then
        echo "check_allocs: no benchmark rows match ${pattern}" >&2
        fail=1
        return
    fi
    echo "$rows" | while read -r name _ _ _ _ _ allocs _; do
        if [ "$allocs" -gt "$max" ]; then
            echo "check_allocs: $name reports $allocs allocs/op (ceiling $max)" >&2
            exit 1
        fi
    done || fail=1
}

# ceiling_opt <pattern> <max allocs/op>: like ceiling, but a pattern with
# no matching rows only warns. Use for variants newer than the committed
# bench output a caller may replay this script against (old files predate
# the variant; a fresh in-script run always has the rows).
ceiling_opt() {
    if ! grep -qE "^Benchmark.*$1" "$out"; then
        echo "check_allocs: note: no rows match $1 (old bench output?); skipping" >&2
        return
    fi
    ceiling "$1" "$2"
}

# The tentpole invariants: the seqlock zero-copy read, the lock-free
# EBR-pinned read, the proxy-cached map Gets and the GetRef raw path are
# allocation-free.
ceiling 'GridRead/zerocopy' 0
ceiling_opt 'GridRead/lockfree' 0
ceiling 'MapGet/(hash|tree|skip)/(cached|eager)' 0
ceiling 'MapGet/(hash|tree|skip)/getref' 0
# The fallback and cache regimes copy by design but must stay bounded:
# the chained-value fallback pays a few allocations per field (ReadBlob
# copy + blob assembly), never superlinear garbage.
ceiling 'GridRead/copyfallback' 48
ceiling 'GridRead/cachehit' 4
ceiling 'GridRead/cachemiss' 40

# The server's pipeline window is a single pass with no per-field
# allocation: a READ request costs the key string plus Grid.Read's own
# few allocations however many fields the record has (the deep-copying
# window it replaced cost 33), and an UPDATE request at most two more than
# the same update through Grid.Update directly (the grid-update row).
if grep -qE '^Benchmark.*ServerWindow/grid-update' "$out"; then
    base=$(grep -E '^Benchmark.*ServerWindow/grid-update' "$out" | awk '{ print $7; exit }')
    ceiling 'ServerWindow/read' 5
    ceiling 'ServerWindow/update' $((base + 2))
    ceiling 'ServerWindow/adddelta' 5
else
    echo "check_allocs: note: no ServerWindow rows (old bench output?); skipping" >&2
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_allocs: all allocation ceilings hold"
