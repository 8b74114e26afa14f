#!/bin/sh
# Capture CPU and allocation profiles of the serving hot path: start
# `raqo serve` with its dedicated -pprof listener, drive a seeded storm
# of /v1/optimize and /v1/submit requests while the CPU profile records,
# then fetch the allocation profile. Profiles land in profiles/ as
# cpu_hotpath.pb.gz and allocs_hotpath.pb.gz, ready for `go tool pprof`.
#
#   PROFILE_SECONDS=10 sh scripts/profile_hotpath.sh
#
# Exits non-zero on any failure.
set -eu

SECONDS_CPU=${PROFILE_SECONDS:-10}
outdir=${PROFILE_DIR:-profiles}
. "$(dirname "$0")/smoke_lib.sh"
smoke_build profile-hotpath
out="$tmp/serve.out"

smoke_start "$out" -addr 127.0.0.1:0 -pprof 127.0.0.1:0
smoke_wait "$out"
# The pprof listener's line is printed before the ready line.
pprof=$(sed -n 's/^raqo serve: pprof on \([^ ]*\).*/\1/p' "$out")
[ -n "$pprof" ] || { echo "profile-hotpath: server never reported its pprof address:"; cat "$out"; exit 1; }

# Warm the caches so the profile shows steady state, not first-request
# model training and cache fills.
for q in Q12 Q3 Q2 All; do
    curl -fsS -o /dev/null -X POST "http://$addr/v1/optimize" -d "{\"query\":\"$q\"}"
done

# The submit storm: a deterministic round-robin over queries and
# policies, looping until the CPU profile window closes. Every request
# exercises planning (optimize) or arbitration + incremental
# re-optimization (submit).
storm() {
    i=0
    while :; do
        case $((i % 4)) in
            0) q=Q12 ;;
            1) q=Q3 ;;
            2) q=Q2 ;;
            3) q=All ;;
        esac
        case $((i % 3)) in
            0) curl -fsS -o /dev/null -X POST "http://$addr/v1/optimize" -d "{\"query\":\"$q\"}" || return 0 ;;
            1) curl -fsS -o /dev/null -X POST "http://$addr/v1/submit" -d "{\"query\":\"$q\"}" || return 0 ;;
            2) curl -fsS -o /dev/null -X POST "http://$addr/v1/submit" -d "{\"query\":\"$q\",\"policy\":\"wait\"}" || return 0 ;;
        esac
        i=$((i + 1))
    done
}
storm &
stormpid=$!
smoke_pids="$smoke_pids $stormpid"

mkdir -p "$outdir"
echo "profile-hotpath: recording ${SECONDS_CPU}s CPU profile under load ($addr)..."
curl -fsS -o "$outdir/cpu_hotpath.pb.gz" "http://$pprof/debug/pprof/profile?seconds=$SECONDS_CPU"
curl -fsS -o "$outdir/allocs_hotpath.pb.gz" "http://$pprof/debug/pprof/allocs"

kill "$stormpid" 2>/dev/null || true
wait "$stormpid" 2>/dev/null || true

smoke_stop "$pid"

for f in cpu_hotpath.pb.gz allocs_hotpath.pb.gz; do
    [ -s "$outdir/$f" ] || { echo "profile-hotpath: $outdir/$f is empty"; exit 1; }
done
echo "profile-hotpath: wrote $outdir/cpu_hotpath.pb.gz and $outdir/allocs_hotpath.pb.gz"
echo "profile-hotpath: inspect with: $GO tool pprof $outdir/cpu_hotpath.pb.gz"
