# Tier-1 verification plus the race detector and short benchmarks.
# `make check` is the gate every change must pass.

GO ?= go

.PHONY: check fmt vet build test race fuzz bench-check bench alloc-check smoke lint lint-fix-check

check: fmt vet build lint lint-fix-check race fuzz alloc-check bench-check bench smoke

# Fail when any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-specific static analysis: determinism, virtual-clock, units,
# cancellation and telemetry-cardinality invariants. Prints per-analyzer
# wall time and fails on any unsuppressed finding.
lint:
	$(GO) run ./cmd/raqolint -C .

# Self-test of the analyzers against the golden testdata packages and
# their `// want` markers.
lint-fix-check:
	$(GO) run ./cmd/raqolint -golden internal/lint/testdata/src

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short native-fuzz pass: the join-graph index against the string-keyed
# reference kernel on schemas and subtrees decoded from arbitrary bytes,
# the resource-plan cache against a linear-scan reference on
# insert/probe/reset sequences decoded the same way, the history rollup
# block decoder on arbitrary bytes (no panic, bounded allocation, stable
# round trip), the dense-window sketch against the map-based reference
# on decoded Add/AddN/Merge sequences, the fleet's peer transport on
# arbitrary bytes as a peer's answer (no panic, no body over the bound, no
# connection pooled with bytes left in it, the next call gets its own
# answer) and the feedback codec against encoding/json: arbitrary bytes as
# a /v1/feedback body (what the codec takes, encoding/json decodes to the
# same observations; taken or declined, the handler answers as it did
# before the codec) and observations built from arbitrary strings and
# float bits (AppendJSON writes json.Marshal's bytes or returns its error,
# and reads back what it wrote), and the enumeration kernels on a join
# graph and a query decoded the same way, disconnected ones included (the
# random tree draws what the pair-by-pair scan drew, the Selinger DP asks
# the coster what the full mask sweep asked, in the same order), the
# seed-free math/rand source (fault draws, randomized restarts) against
# rand.NewSource on any seed and stream length, the response encoder against json.Encoder's SetIndent on
# anything encoding/json decodes plus arbitrary bytes as strings (the same
# bytes, the same error), and the /v1/history fixed-shape encoder against
# WriteResult on arbitrary series names and rows (the same status, headers
# and bytes, a non-finite value's 500 included), and a planning call's
# reuse of resource-plan cache answers against asking the cache every time
# on costing/reset/call-boundary scripts decoded from bytes (the same
# answers, bits, counts and cache stats), and the admission engine on
# decoded markets, faults, tenants and mixed-policy arrival streams (zero
# lost after a drain, no class below zero free containers at any event,
# arrival <= start <= finish, the same bytes on a second run). (The seed
# corpora already run under plain `go test`.)
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzJoinGraph -fuzztime=10s ./internal/plan
	$(GO) test -run '^$$' -fuzz FuzzCacheLookup -fuzztime=10s ./internal/resource
	$(GO) test -run '^$$' -fuzz FuzzRollupBlock -fuzztime=10s ./internal/history
	$(GO) test -run '^$$' -fuzz FuzzSketch -fuzztime=10s ./internal/history
	$(GO) test -run '^$$' -fuzz FuzzPeerResponse -fuzztime=10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzObservationDecode -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzObservationAppend -fuzztime=10s ./internal/feedback
	$(GO) test -run '^$$' -fuzz FuzzEnumeration -fuzztime=10s ./internal/optimizer
	$(GO) test -run '^$$' -fuzz FuzzRegressionCost -fuzztime=10s ./internal/cost
	$(GO) test -run '^$$' -fuzz FuzzDrawSource -fuzztime=10s ./internal/randsrc
	$(GO) test -run '^$$' -fuzz FuzzWriteJSON -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzHistoryJSON -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzCosterReuse -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzAdmission -fuzztime=10s ./internal/cloud

# Allocation gate: hard AllocsPerRun ceilings on the planning hot paths
# (pooled DP state, arena plans, structural plan equality, exact memo).
# A per-candidate allocation regression fails `make check` here.
alloc-check:
	$(GO) test -run TestHotPathAllocCeilings .

# The repository's benchmark is a module of its own (bench/, `replace raqo
# => ../`) that the root build and tests do not see: vet and test it here,
# so a change to a constructor or type it compiles against fails the gate.
bench-check:
	$(GO) -C bench vet .
	$(GO) -C bench test ./...

# Short benchmark pass over the concurrency-sensitive paths (the batch API
# and the resource-plan cache), on one and two procs so the cache's shared
# lock is exercised across threads, plus the
# history read path (the store query and one GET /v1/history through the
# handler), the fleet hop, the feedback journal's two ends,
# cold planning on a 100-table schema (Selinger-12 and randomized-30 over
# an empty resource-plan cache and, -passwarm, over one cache kept across
# runs as in a plan_scale pass; one random tree, the enumeration kernels),
# one cost-model evaluation, and the
# submit path's kernels (a
# cloud SubmitWait, one fault draw, the response encoder); failures here
# are correctness failures (the benchmarks assert planner errors, the shape
# of history answers, a ten-bucket 200 from the history handler, a 200
# through the peer transport, a 200 for a feedback batch, a full journal
# replay, admissions and encodes).
bench:
	$(GO) test -run xxx -bench 'OptimizeBatch|CacheContention|HistoryQueryRollup|HistoryQuantileRange|HistoryGET|FleetForward|FeedbackIngest|HotPathCold|RandomTree|RegressionCost|CloudSubmitWait|InjectorDraw|WriteJSON' -benchtime=0.2s -benchmem -cpu 1,2 .

# End-to-end smoke tests, each a scripts/smoke_<name>.sh over the shared
# scripts/smoke_lib.sh (build, start `raqo serve` on an ephemeral port,
# wait for the ready line, SIGTERM drain, cleanup). `make smoke` runs all
# six, `make smoke-<name>` one:
#   serve     /healthz and /v1/optimize, then the drain
#   feedback  fast recalibration loop: stream drifting feedback (through
#             the codec, one journal write), wait for the model version
#             to advance, force one encoding/json fallback, replay the
#             journal offline with `raqo calibrate`
#   arbiter   submit under the reoptimize and wait policies, verify
#             stats/drain/metrics
#   history   -history-dir and -journal: ingest feedback, kill -9, restart
#             on the same files, the acknowledged points survived and
#             query correctly
#   fleet     three processes with static -peers: deterministic routing,
#             model convergence after a recalibration on the journal
#             shard, degraded answers under a hard kill, the drain
#   cloud     seeded priced pool with the autoscaler on: submit onto spot,
#             fire a preemption storm, zero-loss recovery on drain
SMOKES = serve feedback arbiter history fleet cloud

smoke: $(SMOKES:%=smoke-%)

smoke-%:
	sh scripts/smoke_$*.sh
