# Tier-1 verification plus the race detector and short benchmarks.
# `make check` is the gate every change must pass.

GO ?= go

.PHONY: check fmt vet build test race fuzz fuzz-targets bench-check bench alloc-check lint

check: fmt vet build lint race fuzz alloc-check bench-check bench

# Fail when any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-specific static analysis, kept to the bug classes no test catches
# (DESIGN.md §9). Prints per-analyzer wall time and fails on any
# unsuppressed finding. The analyzers' own self-test against the golden
# packages under internal/lint/testdata is `go test ./internal/lint`, which
# `race` runs.
lint:
	$(GO) run ./cmd/raqolint -C .

build:
	$(GO) build ./...

# `test` and `race` include the process tests of cmd/raqo (TestProcess*),
# which build the raqo binary and drive real `raqo serve` processes
# (DESIGN.md §7, "End-to-end process tests"); -short skips them.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short native-fuzz pass, 10 s per target; the seed corpora already run
# under plain `go test`. Minimizing a new input is capped at 100 calls
# (-fuzzminimizetime=100x): Go's default, 60 s, applies to inputs that only
# widen coverage too, and a 10 s slot that queues one never gets back to
# fuzzing. A crasher is still reported; only its shrinking is capped.
# `make fuzz` prints each target's last progress line, its executions,
# and every line of a failing run. One line per target, what it holds:
#   FuzzJoinGraph          join-graph index == the string-keyed reference kernel
#   FuzzCacheLookup        resource-plan cache == a linear-scan reference
#   FuzzRollupBlock        rollup block decoder: no panic, bounded allocation, stable round trip
#   FuzzSketch             dense-window sketch == the map-based reference
#   FuzzRecovery           history Open after any appends, reopens and crashes == re-rolling every segment
#   FuzzPeerResponse       fleet peer transport on a peer's arbitrary answer: bounded, never pooled dirty
#   FuzzPeerAnswer         peer answer reader == net/http's response reader: bounded, nothing taken that net/http refuses
#   FuzzObservationDecode  /v1/feedback codec == encoding/json, handler answers as before the codec; history clock and model version bounded
#   FuzzObservationAppend  json.Marshal's journal line reads back, through the codec when canonical
#   FuzzEnumeration        random tree and Selinger DP == the pair scan and the full mask sweep, call for call: candidate stats and relations; scripted refusals, one Query through scratch, published and reused form
#   FuzzRegressionCost     unrolled cost model == Predict
#   FuzzDrawSource         seed-free math/rand source == rand.NewSource
#   FuzzWriteJSON          pooled response encoder == a fresh json.Encoder with SetIndent, value after value
#   FuzzHistoryJSON        /v1/history fixed-shape encoder == WriteResult
#   FuzzCosterReuse        the tree-pricing calls' answer table == asking the cache every time
#   FuzzSelingerReuse      the Selinger DP's kept answers == asking the cache every time, scripted drift included
#   FuzzAdmission          admission engine: zero lost, sane pools, byte-identical reruns
#   FuzzPoolMatchesReference  market pool == the per-class pools, token maps and merge sort it replaced
#   FuzzSubmitDecode       submit scanner == encoding/json, both handlers answer as before it; nothing lost after a drain
#   FuzzRoutingKeys        fleet routing keys == json.Unmarshal's
#   FuzzServedOrder        served /v1/optimize answers == a fresh optimizer's, any request order; model version never goes back
#   FuzzLogRecover         append log: recovery keeps the longest whole-record prefix, appends read back
#   FuzzModelWire          a peer's model set: decoding never panics, a decoded set re-encodes to its entries
#   FuzzOptimizeBodies     any /v1/optimize or /v1/batch body: no panic, documented statuses, valid plans
#   FuzzHistoryQuery       any GET /v1/history series/from/to/step: 200/400/404, increasing buckets, store untouched
#   FuzzConnRequests       any bytes as one connection: no panic, closed in time, answers parse, no 2xx where net/http says 4xx
#   FuzzFloat              canonjson.Float == Number + strconv.ParseFloat: value bits, end index, rejections
fuzz:
	@{ $(MAKE) --no-print-directory fuzz-targets 2>&1; echo "fuzz-status $$?"; } | awk '\
		/^fuzz-status / { exit $$2 } \
		/ -fuzz Fuzz/ { match($$0, /-fuzz Fuzz[A-Za-z0-9_]*/); name = substr($$0, RSTART + 6, RLENGTH - 6); next } \
		/^fuzz: elapsed: .*execs: / { last = $$0; next } \
		/^fuzz: elapsed: / || /^PASS$$/ { next } \
		/^ok / { printf "%-26s %s\n", name, last; next } \
		/^--- FAIL/ { print name, last } \
		{ print }'

fuzz-targets:
	$(GO) test -run '^$$' -fuzz FuzzJoinGraph -fuzztime=10s -fuzzminimizetime=100x ./internal/plan
	$(GO) test -run '^$$' -fuzz FuzzCacheLookup -fuzztime=10s -fuzzminimizetime=100x ./internal/resource
	$(GO) test -run '^$$' -fuzz FuzzRollupBlock -fuzztime=10s -fuzzminimizetime=100x ./internal/history
	$(GO) test -run '^$$' -fuzz FuzzSketch -fuzztime=10s -fuzzminimizetime=100x ./internal/history
	$(GO) test -run '^$$' -fuzz FuzzRecovery -fuzztime=10s -fuzzminimizetime=100x ./internal/history
	$(GO) test -run '^$$' -fuzz FuzzPeerResponse -fuzztime=10s -fuzzminimizetime=100x ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzPeerAnswer -fuzztime=10s -fuzzminimizetime=100x ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzObservationDecode -fuzztime=10s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzObservationAppend -fuzztime=10s -fuzzminimizetime=100x ./internal/feedback
	$(GO) test -run '^$$' -fuzz FuzzEnumeration -fuzztime=10s -fuzzminimizetime=100x ./internal/optimizer
	$(GO) test -run '^$$' -fuzz FuzzRegressionCost -fuzztime=10s -fuzzminimizetime=100x ./internal/cost
	$(GO) test -run '^$$' -fuzz FuzzDrawSource -fuzztime=10s -fuzzminimizetime=100x ./internal/randsrc
	$(GO) test -run '^$$' -fuzz FuzzWriteJSON -fuzztime=10s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzHistoryJSON -fuzztime=10s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzCosterReuse -fuzztime=10s -fuzzminimizetime=100x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSelingerReuse -fuzztime=10s -fuzzminimizetime=100x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzAdmission -fuzztime=10s -fuzzminimizetime=100x ./internal/cloud
	$(GO) test -run '^$$' -fuzz FuzzPoolMatchesReference -fuzztime=10s -fuzzminimizetime=100x ./internal/cloud
	$(GO) test -run '^$$' -fuzz FuzzSubmitDecode -fuzztime=10s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzRoutingKeys -fuzztime=10s -fuzzminimizetime=100x ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzServedOrder -fuzztime=10s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzLogRecover -fuzztime=10s -fuzzminimizetime=100x ./internal/applog
	$(GO) test -run '^$$' -fuzz FuzzModelWire -fuzztime=10s -fuzzminimizetime=100x ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzOptimizeBodies -fuzztime=10s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzHistoryQuery -fuzztime=10s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzConnRequests -fuzztime=10s -fuzzminimizetime=100x ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzFloat -fuzztime=10s -fuzzminimizetime=100x ./internal/canonjson

# Allocation gates: hard AllocsPerRun ceilings on the planning, serving and
# history hot paths (pooled DP and search state, arena plans, structural plan
# equality, the resource-plan cache probe, sketches, the warm history
# append). `race` skips them, because the race detector adds allocations, so
# this is the only target that runs them.
alloc-check:
	$(GO) test -run '^Test(HotPathAllocCeilings|HistoryAppendAllocFree)$$' .

# The repository's benchmark is a module of its own (bench/, `replace raqo
# => ../`) that the root build and tests do not see: vet and test it here,
# so a change to a constructor or type it compiles against fails the gate.
bench-check:
	$(GO) -C bench vet .
	$(GO) -C bench test ./...

# Short benchmark pass on one proc, since no family here measures
# contention between goroutines: the history read path (the store
# query and one GET /v1/history through the handler), the history store's
# restart (Open on the feedback_rw state, after a Close and after a crash
# that left the active segment unsealed), the fleet hop, the
# feedback journal's two ends, cold planning on a 100-table schema
# (Selinger-12 and randomized-30 over an empty resource-plan cache and,
# -passwarm, over one cache kept across runs as in a plan_scale pass; one
# random tree, the enumeration kernels), one cost-model evaluation, and the
# submit path's kernels (a cloud SubmitWait, one fault draw); failures here
# are correctness failures (the benchmarks assert planner errors, the shape
# of history answers, a ten-bucket 200 from the history handler, a reopened
# store holding its points, a 200 through the peer transport, a 200 for a
# feedback batch, a full journal replay and admissions).
bench:
	$(GO) test -run xxx -bench 'HistoryQueryRollup|HistoryQuantileRange|HistoryGET|HistoryOpen|FleetForward|FeedbackIngest|HotPathCold|RandomTree|RegressionCost|CloudSubmitWait|InjectorDraw' -benchtime=0.2s -benchmem -cpu 1 .
