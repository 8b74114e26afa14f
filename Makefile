# Tier-1 verification plus the race detector and short benchmarks.
# `make check` is the gate every change must pass.

GO ?= go

.PHONY: check fmt vet build test race fuzz bench-check bench alloc-check lint

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
# seed-free math/rand source (fault draws, randomized searches) against
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
# arrival <= start <= finish, the same bytes on a second run), the submit
# codec on arbitrary bytes as both submit bodies (what the canonical scanner
# takes, encoding/json decodes to the same request; taken or declined, each
# handler answers with the status, headers and bytes it gave before the
# scanner) and the fleet router's submit and optimize keys on arbitrary
# bytes (the keys json.Unmarshal gave), and /v1/optimize request sequences
# decoded from bytes, with model installs between them, through a new
# server's handler (every answer's modelled time, plan and resources equal
# a fresh optimizer's under the live models, whatever came before). (The
# seed corpora already run under plain `go test`.)
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
	$(GO) test -run '^$$' -fuzz FuzzSubmitDecode -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzRoutingKeys -fuzztime=10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzServedOrder -fuzztime=10s ./internal/server

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
