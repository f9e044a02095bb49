#!/bin/sh
# Fence mutants: crashmc must notice a missing fence. Each mutant deletes
# one fence from a fresh copy of HEAD (git archive), runs the bounded
# exploration with -max-failures 1 and compares the workloads that fail
# with the ones that must. The script fails when any mutant is caught by
# a different set of workloads, and when a patch no longer applies: then
# the fence moved, so move the patch with it rather than dropping the
# mutant. Run it from anywhere inside the repository:
#
#   ./scripts/crashmc_mutants.sh        # or: make crashmc-mutants
#
# The per-mutant line names each failing workload's first failing point;
# a weaker oracle shows there first, as a later point.
set -eu

GO=${GO:-go}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

# mutant NAME "EXPECTED WORKLOADS" < patch
mutant() {
    name=$1 want=$2
    dir=$tmp/$name
    mkdir "$dir"
    git -C "$root" archive HEAD | tar -x -C "$dir"
    if ! patch -s -F 0 -p1 -d "$dir" --no-backup-if-mismatch -r - >"$tmp/$name.patch.log" 2>&1; then
        echo "mutant $name: patch no longer applies:" >&2
        cat "$tmp/$name.patch.log" >&2
        fail=1
        return
    fi
    (cd "$dir" && $GO build -o "$tmp/$name.bin" ./cmd/crashmc) || {
        echo "mutant $name: does not build" >&2
        fail=1
        return
    }
    rc=0
    "$tmp/$name.bin" -workload all -points 200 -samples 4 -seed 1 -max-failures 1 >"$tmp/$name.out" 2>&1 || rc=$?
    if [ "$rc" -gt 1 ]; then
        echo "mutant $name: crashmc exited $rc:" >&2
        cat "$tmp/$name.out" >&2
        fail=1
        return
    fi
    got=$(sed -n 's/^FAIL \([a-z]*\) point=\([0-9]*\) .*/\1/p' "$tmp/$name.out" | sort -u | tr '\n' ' ' | sed 's/ $//')
    firsts=$(sed -n 's/^FAIL \([a-z]*\) point=\([0-9]*\) .*/\1 \2/p' "$tmp/$name.out" | tr '\n' ',' | sed 's/,$//; s/,/, /g')
    want=$(echo "$want" | tr ' ' '\n' | sort -u | tr '\n' ' ' | sed 's/ $//')
    if [ "$got" = "$want" ]; then
        echo "mutant $name: caught by $firsts"
    else
        echo "mutant $name: failing workloads are [$got], want [$want] ($firsts)" >&2
        fail=1
    fi
}

# pertx: the per-Tx commit's F0, which orders the log before its mark.
mutant pertx "bank grid gridinline pool retire" <<'EOF'
--- a/internal/fa/fa.go
+++ b/internal/fa/fa.go
@@ -1024,5 +1024,4 @@
 	tx.commitStage1Body()
 	fence := tx.m.retire.beginFence()
-	pool.PFence()
 	tx.commitSeq(fence)
 	tx.commitMarkBody()
EOF

# epoch: the async epoch's F0, which orders every log of the epoch before
# its marks.
mutant epoch "gridgroup griddelta gridinline" <<'EOF'
--- a/internal/fa/group.go
+++ b/internal/fa/group.go
@@ -386,5 +386,4 @@
 	epochStage1(batch)
 	fence := g.m.retire.beginFence()
-	pool.PFence() // F0
 	lead.commitSeq(fence)
 	for _, tx := range batch {
EOF

# mapput: Map.Put's publication fence, which makes the key and the value
# valid and durable before a binding word can name them.
mutant mapput "gridread pdt" <<'EOF'
--- a/internal/pdt/map.go
+++ b/internal/pdt/map.go
@@ -379,5 +379,4 @@
 		vref = val.Core().Ref()
 	}
-	h.PFence()
 	key = strings.Clone(key)
 	m.mir.lock(key)
EOF

exit $fail
