#!/bin/sh
# Smoke test for the cloud arbiter's HTTP face: start `raqo serve` with a
# seeded priced pool and the autoscaler on, submit a query through
# POST /v1/cloud/submit (it must land on the discounted spot tier), fire
# a spot-interruption storm via POST /v1/cloud/preempt, verify the query
# recovers with nothing lost via GET /v1/cloud/stats?drain=1, check the
# cloud metric families on /metrics, then shut down. Exits non-zero on
# any failure.
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_build smoke-cloud
out="$tmp/serve.out"

smoke_start "$out" -addr 127.0.0.1:0 -cloud-seed 7 -cloud-autoscale
smoke_wait "$out"

# An idle priced pool: the default two-tier market, nothing admitted.
st=$(curl -fsS "http://$addr/v1/cloud/stats")
echo "$st" | grep -q '"capacity_containers": 36' || { echo "smoke-cloud: pool should start at 12+24: $st"; exit 1; }
echo "$st" | grep -q '"in_flight": 0' || { echo "smoke-cloud: pool should start idle: $st"; exit 1; }

# Submit under the default recovery (reoptimize): an idle pool admits on
# the cheapest $/GB class, which is the discounted spot tier.
sub=$(curl -fsS -X POST "http://$addr/v1/cloud/submit" -d '{"query":"Q12"}')
echo "$sub" | grep -q '"recovery": "reoptimize"' || { echo "smoke-cloud: bad submit response: $sub"; exit 1; }
echo "$sub" | grep -q '"tier": "spot"' || { echo "smoke-cloud: idle pool should admit on spot: $sub"; exit 1; }
echo "$sub" | grep -q '"execSeconds": 0,' && { echo "smoke-cloud: zero execution time: $sub"; exit 1; }

# Validation failures are 400s, not arbitration errors.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/cloud/submit" -d '{"query":"Q99"}')
[ "$code" = "400" ] || { echo "smoke-cloud: unknown query returned $code, want 400"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/cloud/submit" -d '{"query":"Q12","recovery":"sometimes"}')
[ "$code" = "400" ] || { echo "smoke-cloud: unknown recovery returned $code, want 400"; exit 1; }

# A spot-interruption storm revokes the running gang; the recovery policy
# requeues it, nothing is lost.
storm=$(curl -fsS -X POST "http://$addr/v1/cloud/preempt" -d '{"fraction":1}')
echo "$storm" | grep -q '"revoked": 1' || { echo "smoke-cloud: storm should revoke the running gang: $storm"; exit 1; }
echo "$storm" | grep -q '"lost": 0' || { echo "smoke-cloud: storm lost a query: $storm"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/cloud/preempt" -d '{"fraction":2}')
[ "$code" = "400" ] || { echo "smoke-cloud: bad fraction returned $code, want 400"; exit 1; }

# The cloud metric families ride the shared Prometheus exposition.
metrics=$(curl -fsS "http://$addr/metrics")
echo "$metrics" | grep -q 'raqo_cloud_admissions_total{tier="spot"}' \
    || { echo "smoke-cloud: missing admissions metric"; exit 1; }
echo "$metrics" | grep -q 'raqo_cloud_preemptions_total' \
    || { echo "smoke-cloud: missing preemptions metric"; exit 1; }
echo "$metrics" | grep -q 'raqo_cloud_capacity_containers' \
    || { echo "smoke-cloud: missing capacity metric"; exit 1; }

# Drain the pool: the revoked query recovers and finishes, spend accrued.
st=$(curl -fsS "http://$addr/v1/cloud/stats?drain=1")
echo "$st" | grep -q '"completed": 1' || { echo "smoke-cloud: drain should complete the query: $st"; exit 1; }
echo "$st" | grep -q '"preemptions": 1' || { echo "smoke-cloud: drain should count the storm revocation: $st"; exit 1; }
echo "$st" | grep -q '"lost": 0' || { echo "smoke-cloud: drain lost a query: $st"; exit 1; }
echo "$st" | grep -q '"spend_usd": 0,' && { echo "smoke-cloud: no spend accrued: $st"; exit 1; }

smoke_stop "$pid"

echo "smoke-cloud: cloud economics OK ($addr)"
