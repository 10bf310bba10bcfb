GO ?= go

RACE_PKGS = . ./internal/core/ ./internal/stream/ ./internal/relay/ ./internal/analysis/ ./internal/faultinject/ ./internal/live/ ./internal/shm/ ./internal/fed/ ./internal/store/ ./internal/diff/ ./internal/daemon/ ./cmd/ktrace/

# Per-target budget for `make fuzz` (matches the CI job).
FUZZTIME ?= 30s

# Where `make bench` leaves its `go test -bench` output.
BENCH_TXT ?= BENCH.txt

# `make bench-e2e` runs the repository benchmark (BENCHMARK.json) the way
# the driver does: each workload untraced for run_seconds. The full output
# goes to BENCH_E2E; the six gated metrics of each workload are printed.
BENCH_SECONDS ?= $(shell sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
BENCH_WORKLOADS ?= log_hot pipeline_ingest offline_analysis store_query
BENCH_E2E ?= BENCH_E2E.txt

# The packages whose fan-outs promise the same bytes for any worker count
# — and the collector, where the core count decides how far a connection's
# reader runs ahead of its worker, and so which word buffers are recycled
# under which blocks, the daemons composed in one process, where it
# decides who runs while a test polls, the federation, where it decides
# how a shard kill races the heartbeats, the expiry on read and the
# producers' redials in the chaos soak and the rebalance tests, and the
# logger, whose per-P batch shards are sized from GOMAXPROCS — and the core
# counts `make test-cores` runs them at.
CORES_PKGS = ./internal/core/ ./internal/stream/ ./internal/analysis/ ./internal/store/ ./internal/live/ ./internal/fed/ ./internal/daemon/ ./cmd/ktrace/
CORES ?= 1 4

# `make stress` repeats, under the race detector and at each of these core
# counts, the tests whose outcome a schedule can change: the store's queries
# against ingest, compaction and GC (a segment stays pinned through the whole
# merge), the store's pulled chains — which draw in step with the merge, but
# whose tests at four workers race the parallel scan against it, and whose
# one-scratch pin holds a first query to the same bytes at one worker and
# four whatever the scheduler does — the merge's pulled sources — a
# whole-file read's chains over a disordered file among them — the pages whose capped merge abandons those chains mid-walk, the
# collector's one word buffer a connection, which a wedged apply must not
# let it read past (TestCollectorBuffersBounded), the reliable sender held
# at the socket by that wedge, whose every delivered block must reach the
# spill (TestWedgedApplyLosesNoBlock), its drain of a sender that has just
# exited and its CPU slot reuse, where a drained producer's handler gives
# its slice back while new producers register (TestAdmissionControl,
# TestSnapshotUnderChurn), the digest scans whose scratch is a chunk on any
# core count, the daemons composed in one process (collector, federation,
# store), the federation's mask fan-down, which races the heartbeat period
# against the expiry on read and the producers' redials
# (TestRebalanceMaskHandoff, TestFederatedOverviewParity), the federation
# chaos soak, where heartbeats, ring reads and expiry race on the one
# membership lock (TestChaosSoakFederation), the per-P
# logging path's parked batches against mask flips, quiescence and a
# blocked logger, and the one stuck seal: a writer wrapping onto a stuck
# buffer, alone or behind another logger in flight (TestScheduledReclaim,
# TestReclaimRequiresSoleInflight), and racing a polling consumer for it
# (TestStuckSealRace), and the clients killed by SIGKILL, where the kill
# lands wherever the child's schedule has it while the agent's reap races
# its drain (TestCrossProcessGarbleDetection, TestCrossProcessBatchKill).
# Three repeats take about 4.5 min on a 2-core host (internal/fed about 18 s of each core
# count), so that is the default; CI's stress job runs STRESS_COUNT=10.
STRESS_PKGS = ./internal/core/ ./internal/store/ ./internal/stream/ ./internal/live/ ./internal/fed/ ./internal/daemon/
STRESS_RUN = TestHammerQueriesVsMutation|TestGCRacingCompaction|TestConcurrentCompactionConserves|TestOverlappingUploadsAnswerInMergeOrder|TestRottedBlockIsSortedWhereItLies|TestBrokenChainFailsTheQuery|TestPulledChainHoldsOneScratch$$|TestMergeByTimeIsTheStableSort|TestPageAllocatesAPage|TestCursorWalksThroughTies|TestRecyclingIsInvisible|TestCollectorKeepsNoEvents|TestCollectorBuffersBounded$$|TestWedgedApplyLosesNoBlock$$|TestDrainReadsAFinishedSender$$|TestAdmissionControl$$|TestSnapshotUnderChurn$$|TestDigestScratchIsAChunk$$|TestDisorderedFileReadsAsTheStableSort|TestLive$$|TestFed$$|TestStore$$|TestPLogConcurrent$$|TestParkedBatchYieldsToBlockedLogger$$|TestQuiesceClosesParkedBatches$$|TestRebalanceMaskHandoff$$|TestFederatedOverviewParity$$|TestChaosSoakFederation$$|TestScheduledReclaim$$|TestReclaimRequiresSoleInflight$$|TestStuckSealRace$$|TestCrossProcessGarbleDetection$$|TestCrossProcessBatchKill$$
STRESS_CORES ?= 1 2 4
STRESS_COUNT ?= 3

.PHONY: check fmt build vet test compiled-out test-cores race stress bench bench-e2e fuzz

check: fmt vet build test compiled-out race

# Fails, listing them, when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The compile-out switch: with -tags ktrace_off everything still vets, and
# the root package's tests pass with CompiledIn false.
compiled-out:
	$(GO) vet -tags ktrace_off ./...
	$(GO) test -tags ktrace_off .

# The read-side fan-outs (block decode, store scan, per-CPU analysis) and
# the collector's live ≡ offline parity at more than one core count: a test
# run sees one GOMAXPROCS, and the worker defaults follow it. -count=1,
# because the test cache does not key on it.
test-cores:
	@for n in $(CORES); do echo "GOMAXPROCS=$$n"; GOMAXPROCS=$$n $(GO) test -count=1 $(CORES_PKGS) || exit 1; done

# Race-check the concurrent layers: the lockless logger, the block-parallel
# decode pipeline, the TCP relay, the per-CPU analysis fan-out, and the
# injectors that stress all of them — the ktrace verbs, which decode on
# eight workers in-process, and the daemons, which the internal/daemon
# tests start together in one process beside the shm clients they kill —
# and the root package, whose facade tests and TestBatchStreamParity drive
# the logging handle through its plain, Batch and per-P receivers.
race:
	$(GO) test -race $(RACE_PKGS)

# A failing test is named by go test's own "--- FAIL" line; the line after
# it names the core count to rerun it at.
stress:
	@for n in $(STRESS_CORES); do echo "GOMAXPROCS=$$n -race -count=$(STRESS_COUNT)"; \
		GOMAXPROCS=$$n $(GO) test -race -count=$(STRESS_COUNT) -run '^($(STRESS_RUN))' $(STRESS_PKGS) \
			|| { echo "stress: failed at GOMAXPROCS=$$n"; exit 1; }; done

# Fuzz the decoders — block, trace file and index sidecar — the event
# renderer and the daemons' flag parsing: the seed corpus lives under each
# package's testdata/fuzz (regenerate with go test <pkg> -updatefuzzseeds)
# or, for the sidecar and the daemon flags, in the target's f.Add calls. Go
# only allows one fuzz target per invocation, hence one line per target.
fuzz:
	$(GO) test ./internal/core/ -fuzz='^FuzzDecodeBlock$$' -fuzztime=$(FUZZTIME) -run '^$$'
	$(GO) test ./internal/event/ -fuzz='^FuzzAppendText$$' -fuzztime=$(FUZZTIME) -run '^$$'
	$(GO) test ./internal/stream/ -fuzz='^FuzzReadStream$$' -fuzztime=$(FUZZTIME) -run '^$$'
	$(GO) test ./internal/stream/ -fuzz='^FuzzSalvage$$' -fuzztime=$(FUZZTIME) -run '^$$'
	$(GO) test ./internal/stream/ -fuzz='^FuzzDecodeIndex$$' -fuzztime=$(FUZZTIME) -run '^$$'
	$(GO) test ./internal/store/ -fuzz='^FuzzQueryParams$$' -fuzztime=$(FUZZTIME) -run '^$$'
	$(GO) test ./internal/daemon/ -fuzz='^FuzzDaemonFlags$$' -fuzztime=$(FUZZTIME) -run '^$$'

# The layer microbenchmarks — the offline suite at the repo root plus the
# live-ingest, federation-ingest, and store-query benchmarks — as plain
# `go test -bench` text (the store rows carry events/query, and
# StoreQuery/wholerange's B/op is the uncached answer built once). Printed and uploaded by CI, gated by
# nothing: bench-e2e is the gate, and it repeats.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem . ./internal/live/ ./internal/fed/ ./internal/store/ | tee $(BENCH_TXT)

# The end-to-end benchmark: four workloads over log → relay → collect →
# store → query → analyse, eight end-to-end metrics each, six of them
# gated. A workload with a failed op exits non-zero and stops the run.
bench-e2e:
	@rm -f $(BENCH_E2E)
	@for w in $(BENCH_WORKLOADS); do \
		$(GO) run ./bench --workload $$w --seconds $(BENCH_SECONDS) --trace 0 >> $(BENCH_E2E) || { cat $(BENCH_E2E); exit 1; }; \
	done
	@grep -E '^(workload |attempted |  (setup_s|op_alloc_mb|op2_alloc_mb|op_allocs_k|op2_allocs_k|peak_rss_mb) )' $(BENCH_E2E)
