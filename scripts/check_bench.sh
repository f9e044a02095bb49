#!/bin/sh
# Gate the full benchmark columns (DESIGN.md §14, §15, §17): re-run the
# baseline at the committed scale and fail if any row's pwb/op,
# pfence/op or allocs/op regressed beyond tolerance against
# results/BENCH_baseline.json, or if the shared-barrier group-commit
# rows stop beating per-Tx on fences at 8+ concurrent committers. Also
# compare throughput (Kops/s) for rows whose committed counterpart
# ran on a host with the same CPU count (num_cpu is recorded per row, so
# cross-host runs skip the throughput half instead of failing
# spuriously). The in-run sharding head-to-head (4 pools vs 1 at 8
# clients) is enforced on either path. Then the recovery gate: a small
# CI-sized recoverbench run whose deterministic work counters
# (live_objects, rebuild_entries, replayed_tx) must match the committed
# results/BENCH_recovery_ci.json exactly, with recovery wall-clock gated
# loosely on same-width hosts.
#
# Usage: scripts/check_bench.sh [baseline JSON] [tolerance]
set -eu

baseline=${1:-results/BENCH_baseline.json}
tol=${2:-0.15}
recovery_ci=results/BENCH_recovery_ci.json

if [ ! -f "$baseline" ]; then
    echo "check_bench: baseline $baseline not found" >&2
    exit 1
fi

# The per-row comparison in `baseline -check` skips rows absent from the
# committed file, so a baseline that silently lost its group/async rows
# would stop gating pfence/op on the fence-combining modes (DESIGN.md
# §13, §19) without any failure. Assert their presence up front: the
# group and async rows are exactly where delta folding and fence
# combining pay off, so they must stay under the regression gate.
for mode in group async; do
    n=$(grep -c "\"commit\": *\"$mode\"" "$baseline" || true)
    if [ "${n:-0}" -eq 0 ]; then
        echo "check_bench: baseline $baseline has no commit=$mode rows;" \
             "pfence/op on the combining modes would go ungated" >&2
        exit 1
    fi
done

go run ./cmd/baseline -check "$baseline" -check-kops -check-allocs -tol "$tol"

if [ -f "$recovery_ci" ]; then
    # Parameters must mirror the ones that generated the committed file
    # (see the `bench-recovery-ci` Make target): the counter comparison
    # is exact, so entries/structure/pools are part of the contract.
    go run ./cmd/recoverbench -entries 20000 -pool-mb 96 -workers 1,2 \
        -repeat 2 -check "$recovery_ci"
else
    echo "check_bench: note: $recovery_ci not committed; skipping recovery gate" >&2
fi
