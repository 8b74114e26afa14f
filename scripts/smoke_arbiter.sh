#!/bin/sh
# Smoke test for the workload arbiter's HTTP face: start `raqo serve`
# (trained models, default single tenant), submit queries through
# POST /v1/submit under the reoptimize and wait policies, verify the
# virtual cluster's occupancy via GET /v1/arbiter/stats, drain it with
# ?drain=1, check the arbiter metric families on /metrics, then shut
# down. Exits non-zero on any failure.
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_build smoke-arbiter
out="$tmp/serve.out"

smoke_start "$out" -addr 127.0.0.1:0
smoke_wait "$out"

# An idle virtual cluster: nothing admitted, the full pool free.
st=$(curl -fsS "http://$addr/v1/arbiter/stats")
echo "$st" | grep -q '"freeContainers": 100' || { echo "smoke-arbiter: pool should start idle: $st"; exit 1; }

# Submit under the default policy (adaptive reoptimize): the outcome must
# carry a plausible virtual execution and a held gang.
sub=$(curl -fsS -X POST "http://$addr/v1/submit" -d '{"query":"Q12"}')
echo "$sub" | grep -q '"policy": "reoptimize"' || { echo "smoke-arbiter: bad submit response: $sub"; exit 1; }
echo "$sub" | grep -q '"execSeconds": 0,' && { echo "smoke-arbiter: zero execution time: $sub"; exit 1; }

# A second submission under wait contends with the first gang.
sub2=$(curl -fsS -X POST "http://$addr/v1/submit" -d '{"query":"Q3","policy":"wait"}')
echo "$sub2" | grep -q '"policy": "wait"' || { echo "smoke-arbiter: bad wait submit: $sub2"; exit 1; }

# Validation failures are 400s, not arbitration errors.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/submit" -d '{"query":"Q99"}')
[ "$code" = "400" ] || { echo "smoke-arbiter: unknown query returned $code, want 400"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/submit" -d '{"query":"Q12","policy":"sometimes"}')
[ "$code" = "400" ] || { echo "smoke-arbiter: unknown policy returned $code, want 400"; exit 1; }

# The arbiter metric families ride the shared Prometheus exposition.
metrics=$(curl -fsS "http://$addr/metrics")
echo "$metrics" | grep -q 'raqo_arbiter_admissions_total{policy="reoptimize"}' \
    || { echo "smoke-arbiter: missing admissions metric"; exit 1; }
echo "$metrics" | grep -q 'raqo_arbiter_pool_containers_in_use' \
    || { echo "smoke-arbiter: missing occupancy metric"; exit 1; }

# Drain the virtual cluster: both gangs release, the pool returns to idle.
st=$(curl -fsS "http://$addr/v1/arbiter/stats?drain=1")
echo "$st" | grep -q '"completed": 2' || { echo "smoke-arbiter: drain should complete both queries: $st"; exit 1; }
echo "$st" | grep -q '"inFlight": 0' || { echo "smoke-arbiter: drain left work in flight: $st"; exit 1; }
echo "$st" | grep -q '"freeContainers": 100' || { echo "smoke-arbiter: drained pool not idle: $st"; exit 1; }

smoke_stop "$pid"

echo "smoke-arbiter: workload arbitration OK ($addr)"
