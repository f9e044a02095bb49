#!/bin/sh
# Ordering mutants: crashmc must notice a missing fence. Each mutant
# deletes one fence (or one write-back, or one drain) from a fresh copy
# of HEAD (git archive), runs the bounded
# exploration with -max-failures 1 and compares the workloads that fail
# with the ones that must. The script fails when any mutant is caught by
# a different set of workloads, and when a patch no longer applies: then
# the fence moved, so move the patch with it rather than dropping the
# mutant. Run it from anywhere inside the repository:
#
#   ./scripts/crashmc_mutants.sh        # or: make crashmc-mutants
#
# The per-mutant line names each failing workload's first failing point;
# a weaker oracle shows there first, as a later point. A mutant pinned to
# no workload records a gap of the explorer that a test elsewhere guards.
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
    if [ "$got" = "$want" ] && [ -z "$want" ]; then
        echo "mutant $name: caught by no workload, as pinned"
    elif [ "$got" = "$want" ]; then
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
@@ -403,5 +403,4 @@
 	pool := lead.h.Pool()
 	fence := g.m.retire.beginFence()
-	pool.PFence() // F0
 	lead.commitSeq(fence)
 	lead.eachInEpoch((*Tx).commitMarkBody)
EOF

# heldword: the word-granular drain of a transactional access, which
# keeps two commits of one epoch off one word. Let through, a Tx bases
# its store on a home word a queued commit is about to rewrite.
mutant heldword "gridgroup griddelta gridinline" <<'EOF'
--- a/internal/fa/group.go
+++ b/internal/fa/group.go
@@ -276,5 +276,5 @@
 	g.mu.Lock()
 	defer g.mu.Unlock()
-	for g.heldWords(orig)&words != 0 {
+	for false {
 		g.drainLocked(&g.m.stats.EpochsConflict)
 	}
EOF

# mapput: Map.Put's publication fence, which makes the key and the value
# valid and durable before a binding word can name them.
mutant mapput "gridread pdt" <<'EOF'
--- a/internal/pdt/map.go
+++ b/internal/pdt/map.go
@@ -383,5 +383,4 @@
 		vref = val.Core().Ref()
 	}
-	h.PFence()
 	key = strings.Clone(key)
 	m.mu.Lock()
EOF

# freeflip: the write-back of a free's invalidation at apply, which is a
# freed object's only one since reclaim stopped writing fa's frees. No
# workload catches it: each recovers by graph traversal, which sweeps an
# unreachable object whether or not its invalidation persisted. fa's
# TestFreedSlotStaysDeadAfterCrash, which also recovers by header scan,
# is its guard; a workload that starts catching it must be pinned here.
mutant freeflip "" <<'EOF'
--- a/internal/fa/fa.go
+++ b/internal/fa/fa.go
@@ -444,5 +444,5 @@
 			flips++
 		case kindFree:
-			mem.SetValid(a, false)
+			pool.WriteUint64(a, pool.ReadUint64(a)&^(1<<48))
 			flips++
 		case kindWord:
EOF

exit $fail
