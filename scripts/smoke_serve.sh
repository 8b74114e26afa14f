#!/bin/sh
# Smoke test for `raqo serve`: build the CLI, start the service on an
# ephemeral port, hit /healthz and /v1/optimize twice (the identical
# second request must be a response-memo hit with the first one's bytes),
# then terminate and check the graceful drain. Exits non-zero on any
# failure.
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_build smoke
out="$tmp/serve.out"

smoke_start "$out" -addr 127.0.0.1:0 -trained=false
smoke_wait "$out"

health=$(curl -fsS "http://$addr/healthz")
echo "$health" | grep -q '"status": "ok"' || { echo "smoke: bad healthz: $health"; exit 1; }

opt=$(curl -fsS -X POST "http://$addr/v1/optimize" -d '{"query":"Q12"}')
echo "$opt" | grep -q '"query": "Q12"' || { echo "smoke: bad optimize response: $opt"; exit 1; }
echo "$opt" | grep -q '"plan": {' || { echo "smoke: optimize response missing plan: $opt"; exit 1; }

again=$(curl -fsS -X POST "http://$addr/v1/optimize" -d '{"query":"Q12"}')
[ "$again" = "$opt" ] || { echo "smoke: repeat optimize differs from the first answer: $again"; exit 1; }
metrics=$(curl -fsS "http://$addr/metrics")
echo "$metrics" | grep -q '^raqo_optimize_memo_hits_total 1$' || { echo "smoke: second identical optimize was not a memo hit"; exit 1; }
echo "$metrics" | grep -q '^raqo_optimize_memo_entries 1$' || { echo "smoke: memo does not report one live entry"; exit 1; }

smoke_stop "$pid"

echo "smoke: serve OK ($addr)"
