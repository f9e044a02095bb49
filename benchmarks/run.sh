#!/usr/bin/env bash
# Builds the benchmark harness and the gridserver, then runs one workload:
#
#   bash benchmarks/run.sh --workload emb-a --seed 1 --seconds 15 --trace 0
#   bash benchmarks/run.sh --workload net-a --seed 7 --seconds 15 --trace 1
#   bash benchmarks/run.sh --workload emb-a --quick        # smoke, seconds not minutes
#   bash benchmarks/run.sh -selfcheck -sets 2 -runs 5      # noise report, see NOISE.md
#
# Both binaries are built before anything is timed. Everything the build
# and the run write stays under .bench_build/ in the checkout (Go's build
# cache included) except the span file of a traced run, benchmarks/out/.
# The pools themselves are anonymous memory files, see README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
work="$build/work/$$"
mkdir -p "$build/bin" "$build/tmp" "$work"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/bin/jbench" . && go build -o "$build/bin/gridserver" repro/cmd/gridserver)

# The harness kills its child server and removes its pools itself; the trap
# covers the case where the harness is killed first. Job control gives the
# harness its own process group, so the server can be reached through it.
set -m
cd "$root"
"$build/bin/jbench" -workdir "$work" -gridserver "$build/bin/gridserver" -tracedir "$here/out" "$@" &
pid=$!
trap 'kill -KILL -- "-$pid" 2>/dev/null || true; rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
wait "$pid"
