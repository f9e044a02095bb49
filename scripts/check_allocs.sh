#!/bin/sh
# Gate the allocation-free read paths (DESIGN.md §14): the zero-copy grid
# read and the map GetRef/cached-Get fast paths must stay at 0 allocs/op,
# and every other grid read regime must stay within a small ceiling; gate
# the wire server's per-request allocations and the wire client's
# per-reply ones (DESIGN.md §16); and gate the J-PFA commit (DESIGN.md
# §11) and the async epoch drain (DESIGN.md §15) at none. Runs the
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
    # The server and client paths (DESIGN.md §16): one op is one request
    # of a 16-deep pipeline window; enough iterations that one-off growth
    # of a connection's buffers rounds to nothing.
    go test -run '^$' -bench 'ServerWindow|ClientWindow' -benchtime 4000x -benchmem \
        ./internal/wire/ | tee -a "$out"
    go test -run '^$' -bench 'CommitSingleField' -benchtime 20000x -benchmem \
        ./internal/fa/ | tee -a "$out"
    go test -run '^$' -bench 'CommitParallel/async-await/committers=1$' -benchtime 2000x -benchmem \
        ./internal/fa/ | tee -a "$out"
    go test -run '^$' -bench 'DeltaEpoch' -benchtime 2000x -benchmem \
        ./internal/fa/ | tee -a "$out"
fi

# ceiling <pattern> <max allocs/op>: every matching benchmark row must
# report at most max. The count is the field before "allocs/op", wherever
# a benchmark's own metrics put it.
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
    echo "$rows" | awk -v max="$max" '{
        allocs = ""
        for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i - 1)
        if (allocs == "") { printf "check_allocs: %s reports no allocs/op (run with -benchmem)\n", $1; bad = 1 }
        else if (allocs + 0 > max + 0) { printf "check_allocs: %s reports %s allocs/op (ceiling %s)\n", $1, allocs, max; bad = 1 }
    } END { exit bad }' >&2 || fail=1
}

# The tentpole invariants: the seqlock zero-copy read, the proxy-cached
# map Gets and the GetRef raw path are allocation-free.
ceiling 'GridRead/zerocopy' 0
ceiling 'MapGet/(hash|tree|skip)/(cached|eager)' 0
ceiling 'MapGet/(hash|tree|skip)/getref' 0
# The fallback and cache regimes copy by design but must stay bounded:
# the chained-value fallback pays a few allocations per field (ReadBlob
# copy + blob assembly), never superlinear garbage.
ceiling 'GridRead/copyfallback' 48
ceiling 'GridRead/cachehit' 4
ceiling 'GridRead/cachemiss' 40

# The server's pipeline window is a single pass with no per-field
# allocation: a READ or ADDDELTA request costs its key string however
# many fields the record has (the deep-copying window it replaced cost
# 33), and an UPDATE request one more than the same update through
# Grid.Update directly (the grid-update row). That row allocates nothing:
# the record resolves into a core on the caller's stack, and the new
# value is allocated and the old one freed by reference, with no proxy.
if grep -qE '^Benchmark.*ServerWindow/grid-update' "$out"; then
    base=$(grep -E '^Benchmark.*ServerWindow/grid-update' "$out" | awk '{ print $7; exit }')
    ceiling 'ServerWindow/grid-update' 0
    ceiling 'ServerWindow/read' 1
    ceiling 'ServerWindow/update' $((base + 1))
    ceiling 'ServerWindow/adddelta' 1
else
    echo "check_allocs: note: no ServerWindow rows (old bench output?); skipping" >&2
fi

# The client decodes every reply in place (values alias its frame buffer,
# names and the field slice are reused) and encodes every request into
# one reused buffer, so a warm connection allocates nothing per request
# or reply, a 10-field READ and a request over 64 KiB included.
ceiling 'ClientWindow/(read|update|adddelta|bigupdate)' 0

# A warm one-word J-PFA commit reuses its Tx's write set, log slot and
# flush set, so it allocates nothing.
ceiling 'CommitSingleField' 0

# A warm async drain reuses the queue, the epoch's mates and the drained
# words: an awaited async commit, and a delta epoch, allocate nothing.
ceiling 'CommitParallel/async-await/committers=1(-[0-9]+)?[[:space:]]' 0
ceiling 'DeltaEpoch' 0

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_allocs: all allocation ceilings hold"
