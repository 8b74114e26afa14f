#!/bin/sh
# Smoke test for the execution-feedback loop: start `raqo serve` with a
# fast recalibration interval and a journal, stream a batch of drifting
# observations to /v1/feedback, wait for /v1/model to report the retrained
# version, check that the batch went through the feedback codec and into
# the journal with one write, post one batch only encoding/json can decode,
# drain the server, then replay the journal offline with `raqo calibrate`.
# Exits non-zero on any failure.
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_build smoke-feedback
out="$tmp/serve.out"
journal="$tmp/journal.jsonl"

smoke_start "$out" -addr 127.0.0.1:0 -trained=false \
    -journal "$journal" -drift-min-samples 4 -recal-interval 200ms
smoke_wait "$out"

model=$(curl -fsS "http://$addr/v1/model")
echo "$model" | grep -q '"version": 1' || { echo "smoke-feedback: seed model should be version 1: $model"; exit 1; }

# Stream 24 observations that all run 4x slower than predicted, with
# varied operator features so the retrain has a full-rank design matrix.
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
fb=$(curl -fsS -X POST "http://$addr/v1/feedback" -d "{\"observations\":[$obs]}")
echo "$fb" | grep -q '"accepted": 24' || { echo "smoke-feedback: bad feedback response: $fb"; exit 1; }
echo "$fb" | grep -q '"drifted": true' || { echo "smoke-feedback: drift should fire on 4x-off feedback: $fb"; exit 1; }

# The batch was in the codec's canonical shape and reached the journal
# with a single write.
metrics=$(curl -fsS "http://$addr/metrics")
echo "$metrics" | grep -q '^raqo_feedback_decode_fallback_total 0$' || { echo "smoke-feedback: the batch fell back to encoding/json"; exit 1; }
echo "$metrics" | grep -q '^raqo_feedback_journal_writes_total 1$' || { echo "smoke-feedback: one batch should be one journal write"; exit 1; }

# The background loop (200ms interval) must notice the drift, retrain and
# swap the model: version advances past the seed and the resource-plan
# cache generation is bumped.
version=""
for _ in $(seq 1 100); do
    model=$(curl -fsS "http://$addr/v1/model")
    version=$(echo "$model" | sed -n 's/^ *"version": \([0-9]*\).*/\1/p')
    [ -n "$version" ] && [ "$version" -ge 2 ] && break
    sleep 0.1
done
[ -n "$version" ] && [ "$version" -ge 2 ] || { echo "smoke-feedback: model never recalibrated: $model"; exit 1; }
echo "$model" | grep -q '"fb' || { echo "smoke-feedback: no recalibrated model name: $model"; exit 1; }
echo "$model" | grep -q '"cacheGeneration": 0' && { echo "smoke-feedback: cache generation never advanced: $model"; exit 1; }

# An escaped signature and a differently-cased key are outside the codec's
# shape: encoding/json takes the batch, the answer is still a 200.
fb=$(curl -fsS -X POST "http://$addr/v1/feedback" \
    -d '{"observations":[{"signature":"smoke-\"25\"","Engine":"hive","predictedSeconds":10,"observedSeconds":40}]}')
echo "$fb" | grep -q '"accepted": 1' || { echo "smoke-feedback: fallback batch refused: $fb"; exit 1; }
metrics=$(curl -fsS "http://$addr/metrics")
echo "$metrics" | grep -q '^raqo_feedback_decode_fallback_total 1$' || { echo "smoke-feedback: the escaped batch should count one fallback"; exit 1; }
echo "$metrics" | grep -q '^raqo_feedback_journal_writes_total 2$' || { echo "smoke-feedback: two batches should be two journal writes"; exit 1; }

smoke_stop "$pid"

# Every acknowledged observation is in the journal; the offline replay
# must reach the same retrained version.
cal=$("$tmp/raqo" calibrate -journal "$journal" -trained=false)
echo "$cal" | grep -q '25 observations' || { echo "smoke-feedback: journal incomplete:"; echo "$cal"; exit 1; }
echo "$cal" | grep -q 'version 2' || { echo "smoke-feedback: offline replay did not retrain:"; echo "$cal"; exit 1; }
echo "$cal" | grep -q 'mean abs rel error' || { echo "smoke-feedback: calibrate missing error summary:"; echo "$cal"; exit 1; }

echo "smoke-feedback: adaptivity OK ($addr, version $version)"
