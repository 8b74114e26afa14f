#!/bin/sh
# Smoke test for the optimizer fleet: build the CLI, start three `raqo
# serve` processes wired together with -peers/-node-id, then check the
# fleet contracts end to end — deterministic cross-node routing, model
# convergence after a recalibration on the journal-owning shard, degraded
# answers while a member is hard-killed, and a graceful drain. Exits
# non-zero on any failure.
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_build smoke-fleet
pids=""

# Three fixed localhost ports derived from the PID; if one is taken the
# whole trio is restarted a few slots up (membership must be agreed before
# any node starts, so ephemeral :0 ports cannot be used here).
base=$((20000 + $$ % 20000))
attempt=0
a1=""; a2=""; a3=""
while [ "$attempt" -lt 5 ]; do
    attempt=$((attempt + 1))
    p1=$base; p2=$((base + 1)); p3=$((base + 2))
    a1="127.0.0.1:$p1"; a2="127.0.0.1:$p2"; a3="127.0.0.1:$p3"
    pids=""
    i=0
    for a in "$a1" "$a2" "$a3"; do
        i=$((i + 1))
        peers=$(printf '%s,%s,%s' "$a1" "$a2" "$a3" | sed "s/$a//;s/,,/,/;s/^,//;s/,\$//")
        smoke_start "$tmp/node$i.log" -addr "$a" -node-id "$a" -peers "$peers" \
            -trained=false -drift-min-samples 4 -recal-interval 200ms \
            -journal "$tmp/journal$i.jsonl"
        pids="$pids $pid"
    done
    ok=1
    n=0
    for p in $pids; do
        n=$((n + 1))
        smoke_wait "$tmp/node$n.log" "$p" >/dev/null || { ok=""; break; }
    done
    [ -n "$ok" ] && break
    # A node failed to come up (port collision): kill the trio and retry.
    for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
    pids=""
    base=$((base + 7))
done
[ -n "$pids" ] || { echo "smoke-fleet: fleet never became ready"; cat "$tmp"/node*.log; exit 1; }

for a in "$a1" "$a2" "$a3"; do
    health=$(curl -fsS "http://$a/healthz")
    echo "$health" | grep -q '"status": "ok"' || { echo "smoke-fleet: bad healthz from $a: $health"; exit 1; }
done

# Deterministic routing: the same query entering at different nodes must be
# answered by the same owner, and every answer must carry a plan.
for q in Q12 Q3 Q2 All; do
    owner=""
    for a in "$a1" "$a2"; do
        body=$(curl -fsS -D "$tmp/hdr" -X POST "http://$a/v1/optimize" -d "{\"query\":\"$q\"}")
        echo "$body" | grep -q '"plan": {' || { echo "smoke-fleet: $q via $a missing plan: $body"; exit 1; }
        served=$(tr -d '\r' <"$tmp/hdr" | sed -n 's/^[Xx]-[Rr]aqo-[Ff]leet-[Nn]ode: //p')
        [ -n "$served" ] || { echo "smoke-fleet: $q via $a missing served-by header"; exit 1; }
        if [ -z "$owner" ]; then owner=$served
        elif [ "$owner" != "$served" ]; then
            echo "smoke-fleet: $q routed to $owner via $a1 but $served via $a2"; exit 1
        fi
    done
done

# Keep-alive reuse on the peer transport: submissions are never answered
# from a memo, so from a node that does not own the default tenant every
# one is a hop — forwards grow by five, dials do not (one is allowed to a
# health probe holding the pooled connection at that moment).
entry=$a1
curl -fsS -D "$tmp/hdr" -o /dev/null -X POST "http://$a1/v1/submit" -d '{"query":"Q12"}'
served=$(tr -d '\r' <"$tmp/hdr" | sed -n 's/^[Xx]-[Rr]aqo-[Ff]leet-[Nn]ode: //p')
[ "$served" = "$a1" ] && entry=$a2
curl -fsS -o /dev/null -X POST "http://$entry/v1/submit" -d '{"query":"Q12"}'
fleet_metric() { curl -fsS "http://$entry/metrics" | sed -n "s|^$1 ||p"; }
f0=$(fleet_metric 'raqo_fleet_forwards_total{endpoint="/v1/submit"}')
d0=$(fleet_metric raqo_fleet_peer_dials_total)
for _ in 1 2 3 4 5; do
    curl -fsS -o /dev/null -X POST "http://$entry/v1/submit" -d '{"query":"Q12"}'
done
f1=$(fleet_metric 'raqo_fleet_forwards_total{endpoint="/v1/submit"}')
d1=$(fleet_metric raqo_fleet_peer_dials_total)
idle=$(fleet_metric raqo_fleet_peer_conns_idle)
[ "$((f1 - f0))" -eq 5 ] && [ "$((d1 - d0))" -le 1 ] && [ "$idle" -ge 1 ] || {
    echo "smoke-fleet: five forwards from $entry: forwards $f0 -> $f1, dials $d0 -> $d1, idle $idle"; exit 1; }

# Stream drifting feedback into node 1; the fleet routes it to whichever
# shard owns the feedback journal, that node recalibrates (200ms loop) and
# publishes, and *every* node must converge on the new version. /v1/model
# is deliberately unrouted — it reports each node's local version.
obs=""
i=0
while [ "$i" -lt 24 ]; do
    i=$((i + 1))
    ss=$i
    cs=$((i % 5 + 2))
    nc=$((i % 7 + 4))
    pred=$((i * 10))
    o="{\"signature\":\"smoke-$i\",\"engine\":\"hive\",\"predictedSeconds\":$pred,\"observedSeconds\":$((pred * 4)),\"operators\":[{\"algo\":\"SMJ\",\"ssGB\":$ss,\"csGB\":$cs,\"nc\":$nc,\"predictedSeconds\":$pred,\"observedSeconds\":$((pred * 4))}]}"
    obs="$obs${obs:+,}$o"
done
fb=$(curl -fsS -X POST "http://$a1/v1/feedback" -d "{\"observations\":[$obs]}")
echo "$fb" | grep -q '"accepted": 24' || { echo "smoke-fleet: bad feedback response: $fb"; exit 1; }

for a in "$a1" "$a2" "$a3"; do
    version=""
    for _ in $(seq 1 100); do
        model=$(curl -fsS "http://$a/v1/model")
        version=$(echo "$model" | sed -n 's/^ *"version": \([0-9]*\).*/\1/p')
        [ -n "$version" ] && [ "$version" -ge 2 ] && break
        sleep 0.1
    done
    [ -n "$version" ] && [ "$version" -ge 2 ] || {
        echo "smoke-fleet: node $a never converged past the seed model: $model"
        cat "$tmp"/node*.log; exit 1; }
done

# The fleet telemetry families are on every node's /metrics.
metrics=$(curl -fsS "http://$a1/metrics")
for fam in raqo_fleet_forwards_total raqo_fleet_ring_nodes raqo_fleet_peers_healthy raqo_fleet_model_installs_total \
    raqo_fleet_peer_dials_total raqo_fleet_peer_conns_idle; do
    echo "$metrics" | grep -q "$fam" || { echo "smoke-fleet: /metrics missing $fam"; exit 1; }
done
echo "$metrics" | grep -q '^raqo_fleet_ring_nodes 3' || { echo "smoke-fleet: ring should have 3 nodes"; exit 1; }

# Hard-kill node 3 (a crash, not a drain): every query must still be
# answered through node 1 — the owner's shard degrades to local planning,
# never to an error.
p3=$(echo "$pids" | awk '{print $3}')
kill -9 "$p3"
for q in Q12 Q3 Q2 All; do
    body=$(curl -fsS -X POST "http://$a1/v1/optimize" -d "{\"query\":\"$q\"}") \
        || { echo "smoke-fleet: $q failed with a member down"; exit 1; }
    echo "$body" | grep -q '"plan": {' || { echo "smoke-fleet: degraded $q missing plan: $body"; exit 1; }
done

# Drain the survivors gracefully.
p1=$(echo "$pids" | awk '{print $1}')
p2=$(echo "$pids" | awk '{print $2}')
smoke_stop "$p1" "$p2"

echo "smoke-fleet: fleet OK ($a1 $a2 $a3)"
