#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash bench/run.sh --workload serve_warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache, temporary
# files, the binary, on-disk state of the system under test, trace output —
# goes under .bench_build at the root of the checkout, which .gitignore
# names. Nothing is fetched: the benchmark and the repository it measures
# use the standard library only.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/raqobench" .)

# One core for the benchmark, the system inside it and the reference
# process it starts: the last one this shell may run on. Where taskset is
# missing the run is only single-threaded (GOMAXPROCS 1), not pinned.
pin=()
if command -v taskset >/dev/null 2>&1; then
    allowed=$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status 2>/dev/null || true)
    cpu=${allowed##*[-,]}
    if [[ "$cpu" =~ ^[0-9]+$ ]] && taskset -c "$cpu" true 2>/dev/null; then
        pin=(taskset -c "$cpu")
    fi
fi

cd "$root"
exec "${pin[@]}" "$build/raqobench" -scratch "$build" "$@"
