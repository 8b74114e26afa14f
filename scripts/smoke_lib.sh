# Sourced by scripts/smoke_*.sh and scripts/profile_hotpath.sh: the one
# copy of build -> start `raqo serve` -> wait for its ready line -> drain
# -> clean up. POSIX sh; the sourcing script has already `set -eu`.
#
#   smoke_build NAME      build ./cmd/raqo into a fresh $tmp (as $tmp/raqo),
#                         install the cleanup trap; NAME prefixes messages
#   smoke_start OUT ARGS  fork `raqo serve ARGS` with its output in OUT;
#                         sets $pid
#   smoke_wait OUT [PID]  wait (10 s) for OUT's ready line; sets $addr to
#                         the bound HOST:PORT; returns 1 with a diagnostic
#                         when PID (default $pid) dies or never gets there
#   smoke_stop PID...     SIGTERM each server and require it to drain
#                         within 10 s
#
# Every process started (and anything a script appends to $smoke_pids) is
# killed and $tmp removed however the script exits.

GO=${GO:-go}
smoke_name=smoke
smoke_pids=""
tmp=""
pid=""
addr=""

smoke_cleanup() {
    for p in $smoke_pids; do kill -9 "$p" 2>/dev/null || true; done
    [ -z "$tmp" ] || rm -rf "$tmp"
}

smoke_build() {
    smoke_name=$1
    tmp=$(mktemp -d)
    trap smoke_cleanup EXIT
    trap 'exit 1' INT TERM
    "$GO" build -o "$tmp/raqo" ./cmd/raqo
}

smoke_start() {
    smoke_out=$1
    shift
    "$tmp/raqo" serve "$@" >"$smoke_out" 2>&1 &
    pid=$!
    smoke_pids="$smoke_pids $pid"
}

# The ready line prints the bound address:
# "raqo serve: listening on HOST:PORT ...".
smoke_wait() {
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^raqo serve: listening on \([^ ]*\).*/\1/p' "$1")
        [ -n "$addr" ] && return 0
        kill -0 "${2:-$pid}" 2>/dev/null || { echo "$smoke_name: server died at startup:"; cat "$1"; return 1; }
        sleep 0.1
    done
    echo "$smoke_name: server never reported its address:"
    cat "$1"
    return 1
}

smoke_stop() {
    kill -TERM "$@"
    for smoke_p in "$@"; do
        smoke_i=0
        while kill -0 "$smoke_p" 2>/dev/null; do
            smoke_i=$((smoke_i + 1))
            [ "$smoke_i" -gt 100 ] && { echo "$smoke_name: server did not drain after SIGTERM"; exit 1; }
            sleep 0.1
        done
    done
}
