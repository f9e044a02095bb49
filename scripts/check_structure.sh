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
#     coming back — a ClassPair or pdt.pair in Go (a rule-6 row) or
#     either in §3's inventory (up to §3.1) — is a second representation.
#  5. Section citations. Every "DESIGN.md §N" or "§N.M" cited in Go
#     (outside benchmarks/), the Makefile, scripts/, README.md or
#     EXPERIMENTS.md names a heading DESIGN.md has, so renumbering a
#     section cannot leave a citation pointing at its neighbour.
#  6. Retired names. Each row of the table at the end is a file scope
#     (go: Go files; all: Go, the Makefile, scripts and CI workflows; a
#     directory: its Go files; one file; or dirs), an ERE and what a match
#     brings back: the multi-pool heap (a heap is one pool), a third
#     commit protocol (DESIGN.md §15), the lock-free map (pdt.Map is the
#     map, DESIGN.md §3.2), the parallel recovery pipeline (DESIGN.md
#     §12), the extensions the paper does not run (YCSB-E scans, the
#     bounded hot-proxy cache and the reflection layout binder), and a
#     crashmc workload's own possible-state structure (one oracle type,
#     DESIGN.md §13), and a second refusal of old pools (the heap format
#     version is the one refusal), and crashmc replaying the workload per
#     crash point, and a command per figure (cmd/paper runs them all),
#     and a main outside cmd/ or a facade name that nothing calls.
#     benchmarks/ and this file are exempt. A dirs row matches the
#     directories under cmd/ and internal/ instead of file contents, a
#     root row the Go files at the repository root, and a !dir row the Go
#     files outside dir.
#  7. Documented counts. The "points (seed 1)" column of DESIGN.md §13's
#     workload table is the map TestOrderingPointCounts pins
#     (internal/crashmc/crashmc_test.go), row for row.
#  8. The server links only what it serves. cmd/gridserver builds its
#     stack with stack.OpenGrid; the paper harness (internal/bench, ycsb,
#     tpcb, gcsim) and Table 1's go/parser are not among its dependencies.
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

hits=$(grep -rnE --include='*.go' '\.\((store\.)?(ViewReader|DeltaAdder)\)' . |
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

hits=$(awk '/^## 3\. /{on=1; next} /^##/{on=0} on && /pdt\.pair|ClassPair/{print "DESIGN.md:" NR ": " $0}' DESIGN.md)
if [ -n "$hits" ]; then
    echo "the pair class is back (a binding is two words of the map's array):" >&2
    echo "$hits" >&2
    fail=1
fi

sections=$(awk '/^##+ [0-9]+(\.[0-9]+)?\.? / { s = $2; sub(/\.$/, "", s); print s }' DESIGN.md)
hits=$({ find . -path ./benchmarks -prune -o -name '*.go' -type f -print
    ls Makefile scripts/* README.md EXPERIMENTS.md; } |
    xargs awk -v secs="$sections" '
    BEGIN { n = split(secs, a, "\n"); for (i = 1; i <= n; i++) ok[a[i]] = 1 }
    FNR == 1 { carry = 0 }
    {
        line = $0
        # A citation broken after "DESIGN.md" continues on the next line.
        if (carry) {
            t = line
            sub(/^[ \t]*(\/\/|#)?[ \t]*/, "", t)
            if (t ~ /^§/) line = "DESIGN.md " t
        }
        carry = line ~ /DESIGN\.md$/
        while (match(line, /DESIGN\.md,? §[0-9]+(\.[0-9]+)?((, | and )§[0-9]+(\.[0-9]+)?)*/)) {
            cite = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            while (match(cite, /§[0-9]+(\.[0-9]+)?/)) {
                s = substr(cite, RSTART, RLENGTH)
                cite = substr(cite, RSTART + RLENGTH)
                sub(/§/, "", s)
                if (!(s in ok)) print FILENAME ":" FNR ": DESIGN.md §" s
            }
        }
    }')
if [ -n "$hits" ]; then
    echo "citation of a DESIGN.md section that does not exist:" >&2
    echo "$hits" >&2
    fail=1
fi

# Rule 7: §13's ordering-point column against the test's pinned counts.
hits=$(awk -F'|' '
    FNR == NR {
        if ($0 ~ /want := map\[string\]int\{/) on = 1
        if (!on) next
        line = $0
        while (match(line, /"[a-z]+": [0-9]+/)) {
            kv = substr(line, RSTART + 1, RLENGTH - 1)
            line = substr(line, RSTART + RLENGTH)
            split(kv, p, /": /)
            pin[p[1]] = p[2]
        }
        if ($0 ~ /^[ \t]*}/) on = 0
        next
    }
    /^## / { sec = ($0 ~ /^## 13\./); next }
    sec && /points \(seed 1\)/ {
        for (i = 2; i < NF; i++) if ($i ~ /points \(seed 1\)/) col = i
        next
    }
    sec && col && /^\| `/ {
        name = $2; gsub(/[ `]/, "", name)
        n = $col; gsub(/ /, "", n)
        seen[name] = 1
        if (!(name in pin)) print FILENAME ":" FNR ": " name " has no count in TestOrderingPointCounts"
        else if (n != pin[name]) print FILENAME ":" FNR ": " name " " n " points, TestOrderingPointCounts pins " pin[name]
    }
    END {
        if (!col) print "DESIGN.md: no \"points (seed 1)\" column in §13"
        for (name in pin) if (!(name in seen)) print "DESIGN.md: no §13 row for " name
    }' internal/crashmc/crashmc_test.go DESIGN.md)
if [ -n "$hits" ]; then
    echo "DESIGN.md §13's ordering-point counts differ from the pinned ones:" >&2
    echo "$hits" >&2
    fail=1
fi

# Rule 6: one row per retired feature — scope, ERE, what a match brings back.
while read -r scope pat what; do
    if [ "$scope" = dirs ]; then
        hits=$(find cmd internal -type d | grep -E -e "$pat" || true)
    else
        outside='^$'
        case $scope in
        go) set -- -r --include='*.go' . ;;
        all) set -- -r --include='*.go' --include=Makefile --include='*.sh' --include='*.yml' . ;;
        root) set -- -H ./*.go ;;
        !*) outside="^\./${scope#!}/"; set -- -r --include='*.go' . ;;
        *) if [ -d "$scope" ]; then set -- -r --include='*.go' "$scope"; else set -- -H "$scope"; fi ;;
        esac
        hits=$(grep -nE -e "$pat" "$@" |
            grep -v -e '^\./benchmarks/' -e '^\./scripts/check_structure\.sh:' -e "$outside" || true)
    fi
    if [ -n "$hits" ]; then
        echo "$what is back:" >&2
        echo "$hits" >&2
        fail=1
    fi
done <<'EOF'
go  \b(PoolIndex|PoolCount|JumpHash|CheckRoster)\b|"repro/internal/shard"|flag\.[A-Za-z]+\("pools"  the multi-pool heap (a heap is one pool)
go  \b(FenceCombiner|CommitGroup|commitGrouped)\b  a third commit protocol (per-Tx and async only)
internal/stack/stack.go  case[^:]*"group"  a third commit protocol (per-Tx and async only)
all  LFMap|LFSet|JPDTLF|J-PDT-LF|LockFreeBackend  the lock-free map (one persistent map: pdt.Map)
all  traverseParallel|SweepParallel|sweepConcurrent|rebuildParallel|RecoverParallelism|RecoverOptions  the parallel recovery pipeline (one recovery procedure)
all  (^|[^.[:alnum:]_])Scanner\b|ErrNoScan|ExtE|OpScan|ScanDB|CacheHot|SetCacheHot|hotCache|gen\.For  an extension the paper does not run (YCSB-E scans, the hot-proxy cache, the layout binder)
all  kindWrite|inflightFor|copyDirtyLines|TransientPool|wordsPerBlock|lineMask|InflightCopies|WriteAllFields  the in-flight block copy (a transactional store to a valid block logs words)
all  deltaTxChunk|deltaLedgerMax|leftoverMin|deltaYield|epochStage1|minTicket  a drain that cannot land the whole ledger (the ledger is capped at one log slot)
go  \bClassPair\b|pdt\.pair  the pair class (a binding is two words of the map's array)
all  \bSupersedes\b|mapSuperseded|classRecordV1|sbSet(Index|Count)|setEpochRoot|shard\.epoch  a second refusal of old pools (the heap version is the one refusal)
go  \btxCache\b|unreserveDeltaTx  a second home for a free log slot (a slot and its Tx live on the one freelist)
go  \bstructMu\b  a second lock for structural grid ops (the backend serializes inserts and deletes)
internal/nvm  \bnoteStore\b|p\.durable\b|p\.queued\b|p\.dirty\b  the full-pool durable mirror (a tracked pool records only its non-durable lines)
all  store\.Options|CacheStats|cacheShard|cachePatch|cache_hits|FlushLatency  a record cache inside the grid or a PWB latency knob (one record cache: store.Cached; pwb is free)
go  \b(SetProxyCache|ProxyCache)\b  a proxy-cache knob on the grid path (the J-NVM backends resolve records by reference; pdt.Map's cache modes serve its own callers)
go  \bCopyWithin(Atomic)?\b|\bInvalidate\(|\bOpTypes\b|\bSetRef\b|\bUnpublish\b|func[[:space:]]+\([^)]*\*Map\)[[:space:]]+Kind\(  an exported name nothing called (nvm.Pool.CopyWithinAtomic, nvm.Pool.CopyWithin, core.Object.Invalidate, ycsb.Result.OpTypes, pdt.PRefArray.SetRef, obs.Registry.Unpublish, pdt.Map.Kind)
go  \b(runTo|crashSignal)\b  crashmc replaying the workload per crash point (the check pass checks each point inside one run)
internal/wire  func[[:space:]]+Dial\(  a second wire client constructor (wire.DialTimeout is the one)
dirs  ^cmd/(ycsb|gcsweep|tpcb|datatypes|blockbw|delsites)$  a single-figure command (cmd/paper runs every table and figure)
internal/bench  type[[:space:]]+Env[[:space:]]+struct  a second environment type (bench.Env is stack.Stack)
go  NewGrid\([A-Za-z_.]*\.Backend\)  a grid built by hand over a stack's backend (stack.Open builds the one grid: st.Grid)
go  \b(TmpFSBackend|NullFSBackend|FSBackend)\b  an FS-family backend type (TmpFS, NullFS and FS are one marshalling backend over its files)
!internal/stack  store\.New(TmpFS|NullFS|FS)Backend\(  an FS-family backend built outside stack.OpenGrid (the one place one is built)
root  ^func[[:space:]]+Benchmark  a benchmark at the repository root (cmd/paper runs every experiment)
!cmd  ^package[[:space:]]+main\b  a main outside cmd/ that nothing runs (commands live under cmd/, the examples are root Example functions)
root  \b(FAManager|NVMPool|FenceLatencyNs)\b|Grid[[:space:]]*=[[:space:]]*store\.Grid  a facade name nothing calls (DB.FAManager, DB.NVMPool, Options.FenceLatencyNs, the Grid alias)
all  \bmicrobench\b  the microbench target (cmd/paper runs every experiment)
go  \b(freeShards|raiseBumpMirror|bumpMu|bumpMirror)\b  the sharded free queue or a second lock for the bump (one lock takes a block: heap.freeList's)
go  \b(hashShards|orderedStripes|slotStack|lruShard|rlockAll|lockAll)\b  multi-core striping of a volatile structure (one lock each: pdt.Map.mu, fa's slot freelist, store.Cached's LRU)
internal/crashmc  \b(absentState|stateNames|int64Keys|gridOp|poolOp|poolVal|sameVal|readVal|recPending|mapPoss|setPoss|arrPoss|recordReader|gridReader)\b|reflect\.DeepEqual  a workload's own possible-state oracle (crashmc has one oracle type)
EOF

# Rule 8: the server's dependencies.
hits=$(go list -deps ./cmd/gridserver | grep -xE 'repro/internal/(bench|ycsb|tpcb|gcsim)|go/parser' || true)
if [ -n "$hits" ]; then
    echo "cmd/gridserver links the paper harness (build its stack with stack.OpenGrid):" >&2
    echo "$hits" >&2
    fail=1
fi

exit $fail
