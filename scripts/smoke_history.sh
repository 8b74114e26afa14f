#!/bin/sh
# Crash-safety smoke test for the embedded history store: start
# `raqo serve` with -history-dir, ingest feedback observations (each
# acknowledged POST is committed to the store before the 200), kill the
# server with SIGKILL — no drain, no flush — restart on the same
# directory, and verify every acknowledged point survived recovery and
# still answers range queries correctly. The server also journals: each
# batch is one journal write through the feedback codec, and the restart
# reopens the journal the kill left behind. Exits non-zero on any failure.
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_build smoke-history
out="$tmp/serve.out"
hist="$tmp/history"

# start_server OUT_FILE: fork `raqo serve` on the shared history dir with
# a fast gather tick, wait for the ready line and set $pid/$addr.
start_server() {
    smoke_start "$1" -addr 127.0.0.1:0 -trained=false -journal "$tmp/journal.jsonl" \
        -history-dir "$hist" -history-interval 100ms
    smoke_wait "$1"
}

# ingest_metrics: the batch posted to this process went through the codec
# and was one journal write.
ingest_metrics() {
    metrics=$(curl -fsS "http://$addr/metrics")
    echo "$metrics" | grep -q '^raqo_feedback_decode_fallback_total 0$' || { echo "smoke-history: a batch fell back to encoding/json"; exit 1; }
    echo "$metrics" | grep -q '^raqo_feedback_journal_writes_total 1$' || { echo "smoke-history: one batch should be one journal write"; exit 1; }
}

start_server "$out"

# Three observations, one per minute, each predicted 10s but observed 40s
# (relative error |10-40|/40 = 0.75). Explicit observedAt pins each to its bucket.
now=$(date +%s)
t0=$((now - 120))
obs=""
i=0
while [ "$i" -lt 3 ]; do
    o="{\"signature\":\"smoke-$i\",\"engine\":\"hive\",\"predictedSeconds\":10,\"observedSeconds\":40,\"observedAt\":$((t0 + i * 60))}"
    obs="$obs${obs:+,}$o"
    i=$((i + 1))
done
fb=$(curl -fsS -X POST "http://$addr/v1/feedback" -d "{\"observations\":[$obs]}")
echo "$fb" | grep -q '"accepted": 3' || { echo "smoke-history: bad feedback response: $fb"; exit 1; }
ingest_metrics

# The acknowledged points are already durable and queryable: the error
# series shows three one-point buckets with mean 0.75.
q="http://$addr/v1/history?series=feedback.relerr.hive.query&from=$t0&to=$((now + 1))&step=60"
resp=$(curl -fsS "$q")
count=$(echo "$resp" | grep -c '"count": 1') || true
[ "$count" -eq 3 ] || { echo "smoke-history: want 3 one-point buckets, got $count: $resp"; exit 1; }
means=$(echo "$resp" | grep -c '"mean": 0.75') || true
[ "$means" -eq 3 ] || { echo "smoke-history: want mean 0.75 in every bucket: $resp"; exit 1; }

# The gather loop (100ms tick) samples the server's own telemetry into
# the same store; wait until the self-metrics series shows up.
seen=""
for _ in $(seq 1 100); do
    list=$(curl -fsS "http://$addr/v1/history")
    if echo "$list" | grep -q 'raqo_history_points_total'; then seen=1; break; fi
    sleep 0.1
done
[ -n "$seen" ] || { echo "smoke-history: gather loop never recorded telemetry: $list"; exit 1; }

# Crash: SIGKILL, mid-gather with high probability — no drain, no Close,
# the active segment is cut wherever the last block write ended.
kill -9 "$pid"
wait "$pid" 2>/dev/null || true

# Restart on the same directory. Recovery truncates any torn tail and
# rebuilds the rollups; every acknowledged point must still be there.
start_server "$tmp/serve2.out"

resp2=$(curl -fsS "http://$addr/v1/history?series=feedback.relerr.hive.query&from=$t0&to=$((now + 1))&step=60")
count2=$(echo "$resp2" | grep -c '"count": 1') || true
[ "$count2" -eq 3 ] || { echo "smoke-history: feedback points lost in crash: $resp2"; exit 1; }
means2=$(echo "$resp2" | grep -c '"mean": 0.75') || true
[ "$means2" -eq 3 ] || { echo "smoke-history: aggregates corrupted by recovery: $resp2"; exit 1; }
list2=$(curl -fsS "http://$addr/v1/history")
echo "$list2" | grep -q 'raqo_history_points_total' || { echo "smoke-history: gathered telemetry lost in crash: $list2"; exit 1; }

# The recovered store keeps ingesting: one more observation lands in a
# fourth bucket.
fb2=$(curl -fsS -X POST "http://$addr/v1/feedback" \
    -d "{\"observations\":[{\"signature\":\"smoke-post\",\"engine\":\"hive\",\"predictedSeconds\":10,\"observedSeconds\":40,\"observedAt\":$((t0 + 180))}]}")
echo "$fb2" | grep -q '"accepted": 1' || { echo "smoke-history: restarted server rejected feedback: $fb2"; exit 1; }
ingest_metrics
resp3=$(curl -fsS "http://$addr/v1/history?series=feedback.relerr.hive.query&from=$t0&to=$((t0 + 240))&step=60")
count3=$(echo "$resp3" | grep -c '"count": 1') || true
[ "$count3" -eq 4 ] || { echo "smoke-history: post-recovery ingest broken, want 4 buckets: $resp3"; exit 1; }

smoke_stop "$pid"

echo "smoke-history: crash recovery OK ($addr, $count2 buckets survived kill -9)"
