#!/bin/sh
# Smoke test for `raqo serve`: build the CLI, start the service on an
# ephemeral port, hit /healthz and one /v1/optimize, then terminate and
# check the graceful drain. Exits non-zero on any failure.
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

smoke_stop "$pid"

echo "smoke: serve OK ($addr)"
