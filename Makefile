GO ?= go

.PHONY: build test ci bench bench-json bench-engine fuzz vet lint lint-fix race soak verify-smoke adaptive-smoke sm-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs ibvet: the standard go vet passes plus the repo's own
# determinism and pooling analyzers (internal/lint). CI passes
# LINT_FLAGS=-json so findings come out as JSON lines the registered
# .github/problem-matcher.json turns into file annotations.
LINT_FLAGS ?=
lint:
	$(GO) run ./cmd/ibvet $(LINT_FLAGS) ./...

# lint-fix has no auto-fixer; it reruns ibvet so the findings to address are
# the last thing on screen. Fix each by sorting map keys / moving the access,
# or suppress a deliberate one with a reasoned "//lint:ignore <analyzer> why".
lint-fix: lint

# race runs the race detector over the packages with internal concurrency
# (the experiment worker pools, which run many simulations at once over
# shared read-only subnets) and the packages the determinism analyzers guard
# (sim, sm, core), whose order-sensitive paths the race pass exercises twice
# via the determinism regression tests. The sim suite includes the
# determinism matrix (both scheduler paths under faults and the reliable
# transport), the fault-injection paths (link death, SM traps, staged table
# updates, reselection) and the quick recovery study.
race:
	$(GO) test -race ./internal/sim/... ./internal/experiment/... ./internal/sm/... ./internal/core/...

# soak runs the deterministic chaos campaigns: two seeds of link-flap
# schedules with the reliable transport on, each executed twice per scheduler
# path (calendar and heap-only) and diffed bit for bit, with packet
# conservation (generated = delivered + failed + in-flight) asserted inside
# every campaign.
soak:
	$(GO) test -run 'TestChaosSoakDeterminism' -count=1 ./internal/experiment/

# verify-smoke proves the static guarantees on every golden fabric: ibverify
# must find zero error-severity findings (reachability, per-VL deadlock
# freedom, addressing) for both schemes on the four paper networks, and on an
# SM-repaired FT(8,2) carrying a two-link fault plan — dead-link warnings
# are expected there, errors never. MLID on FT(16,3) is the deliberate
# negative: the LID plan overflows the 16-bit space, so ibverify must exit
# non-zero with the addressing finding; so must a lane count past the IBA's
# 15 data VLs. ibtopo -deadlock then runs the facade's deadlock check
# (mlid.CheckDeadlockFree, the verifier's deadlock analyzer) on FT(8,3)
# under both schemes.
verify-smoke:
	$(GO) run ./cmd/ibverify -m 4 -n 4 -scheme MLID -vls 4
	$(GO) run ./cmd/ibverify -m 4 -n 4 -scheme SLID -vls 4
	$(GO) run ./cmd/ibverify -m 8 -n 3 -scheme MLID -vls 2
	$(GO) run ./cmd/ibverify -m 8 -n 3 -scheme SLID -vls 2
	$(GO) run ./cmd/ibverify -m 16 -n 2 -scheme MLID -vls 2
	$(GO) run ./cmd/ibverify -m 16 -n 2 -scheme SLID -vls 2
	$(GO) run ./cmd/ibverify -m 32 -n 2 -scheme MLID -vls 1
	$(GO) run ./cmd/ibverify -m 32 -n 2 -scheme SLID -vls 1
	$(GO) run ./cmd/ibverify -m 8 -n 2 -scheme MLID -vls 2 -fault 2:2,9:3
	! $(GO) run ./cmd/ibverify -m 16 -n 3 -scheme MLID
	! $(GO) run ./cmd/ibverify -m 8 -n 2 -vls 16
	$(GO) run ./cmd/ibtopo -m 8 -n 3 -scheme MLID -deadlock
	$(GO) run ./cmd/ibtopo -m 8 -n 3 -scheme SLID -deadlock

# adaptive-smoke runs the reduced path-selection family study: every
# pluggable selector (rank, random, flowspray, adaptive, pktspray) over the
# same MLID fabric on the policy-separating workloads, quiet and degraded,
# with packet conservation asserted inside every run.
adaptive-smoke:
	$(GO) run ./cmd/ibsweep -adaptive -quick

# sm-smoke exercises the in-band subnet-management model: the regression
# suite (lost-trap edge, sweep-only recovery, failover determinism across
# repeated runs and both scheduler paths, exact oracle equivalence when the
# feature is off), then the reduced FT(4,2) campaign, whose invariants —
# exact packet conservation, one failover per in-band run, sweep-recovered
# trap loss — are asserted inside every run.
sm-smoke:
	$(GO) test -run 'TestInBandSM' -count=1 ./internal/sim/
	$(GO) run ./cmd/ibsweep -smstudy -quick

# ci is the gate for every change: tier-1 tests plus vet, ibvet, the race
# pass, the chaos soak, the static verification smoke, the path-selection
# family smoke and the in-band SM smoke.
ci: build vet lint test race soak verify-smoke adaptive-smoke sm-smoke

# BENCH_TIME / BENCH_COUNT tune the figure benchmarks: the committed defaults
# (one iteration, run once) keep `make ci` cheap, but single-iteration numbers
# are noisy — override both for comparable measurements, e.g.
#   make bench-json BENCH_TIME=3x BENCH_COUNT=5
BENCH_TIME ?= 1x
BENCH_COUNT ?= 1

# bench regenerates the figure-level benchmarks with allocation counts, plus
# the control-plane benchmarks: incremental repair, SM recovery, subnet
# bring-up and static verification.
BENCH_PATTERN = 'BenchmarkFig|BenchmarkRepairIncremental|BenchmarkSMRecovery|BenchmarkSubnetConfigure|BenchmarkVerifyRun'
bench:
	$(GO) test -run xxx -bench $(BENCH_PATTERN) -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) .

# ENGINE_BENCH_PATTERN names internal/sim's scheduler benchmarks: raw
# schedule+pop cycles per window shape (BenchmarkEngineSchedule) and one
# small whole run (BenchmarkRunSmall), both reporting ns/event. They run for
# go test's default one-second benchtime, not BENCH_TIME's single iteration:
# one schedule+pop cycle measures nothing.
ENGINE_BENCH_PATTERN = 'BenchmarkEngineSchedule|BenchmarkRunSmall'

# bench-json runs the same benchmarks plus the engine benchmarks and records
# ns/op and allocs/op as committed JSON (BENCH_$(BENCH_PR).json), so perf
# gates diff against a file instead of a number in a commit message. The JSON
# records GOMAXPROCS and the package per entry, so files are comparable
# across machines. The raw text lands in bench.out for inspection; only the
# JSON is meant to be committed.
BENCH_PR ?= 10
bench-json:
	$(GO) test -run xxx -bench $(BENCH_PATTERN) -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) . | tee bench.out
	$(GO) test -run xxx -bench $(ENGINE_BENCH_PATTERN) -benchmem -count $(BENCH_COUNT) ./internal/sim | tee -a bench.out
	$(GO) run ./cmd/benchjson < bench.out > BENCH_$(BENCH_PR).json
	@rm -f bench.out
	@echo wrote BENCH_$(BENCH_PR).json

# bench-engine runs the scheduler micro-benchmarks (ns/event, allocs/op).
bench-engine:
	$(GO) test -run xxx -bench $(ENGINE_BENCH_PATTERN) -benchmem ./internal/sim/

# fuzz runs each fuzz target for 30 seconds. It is not part of `make ci`:
# tier-1 `go test` already replays every committed corpus under
# testdata/fuzz. Commit any crasher it finds there, with the fix.
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzEngineOrder$$' -fuzztime 30s ./internal/sim/
