# Standard checks for this repository. `make check` is what CI (and you,
# before sending a change) should run.

GO ?= go

.PHONY: check build vet lint test race fmt bench bench-obs bench-smoke fuzz-smoke examples profile

check: fmt vet build lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism, float-identity, goroutine, and hot-path allocation
# contracts (DESIGN.md §9, §14). Exits nonzero on findings; suppress
# individual lines with `//altlint:ignore <rule> <reason>`. New escapes in
# //altlint:hotpath functions diff against lint_baseline.json; rewrite the
# baseline deliberately with `BASELINE_UPDATE=1 make lint` — refused under
# CI so the sanctioned set only changes by a reviewed commit.
lint:
ifeq ($(BASELINE_UPDATE),1)
	@if [ -n "$$CI" ]; then \
		echo "BASELINE_UPDATE is refused in CI: commit the regenerated lint_baseline.json instead"; exit 1; \
	fi
	$(GO) run ./cmd/altlint -baseline lint_baseline.json -update-baseline ./...
else
	$(GO) run ./cmd/altlint -baseline lint_baseline.json ./...
endif

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt -l prints nonconforming files; fail if there are any.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Simulation-core and experiment-engine throughput guards (see
# BENCH_sim.json and BENCH_par.json for the recorded before/after numbers;
# update them from this output when the core or the engine changes).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRunCalls|BenchmarkRunMetroCalls|BenchmarkEq15Search|BenchmarkFixedPoint|BenchmarkBlockingSweep' -benchmem -count 3 .

# Fast regression tripwire for CI: short benchmarks checked by
# cmd/benchguard against the recorded baselines in BENCH_sim.json. Fails on
# a >30% calls/sec drop; short -benchtime keeps it cheap (and noisy, hence
# the generous threshold).
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkRunCalls -benchtime 0.3s -count 3 . | $(GO) run ./cmd/benchguard -baseline BENCH_sim.json -max-regress 0.30
	$(GO) test -run '^$$' -bench BenchmarkRunMetroCalls -benchtime 0.3s -count 3 . | $(GO) run ./cmd/benchguard -baseline BENCH_sim.json -metric metro
	$(GO) test -run '^$$' -bench BenchmarkTraceGenerationNSFNet -benchtime 0.3s -count 3 . | $(GO) run ./cmd/benchguard -baseline BENCH_sim.json -metric gentrace

# CPU+heap profile of the hot path via BenchmarkRunCalls (replay = event
# loop only). Inspect with `go tool pprof cpu.out`. For profiling a real
# experiment run instead, altsim has matching -cpuprofile/-memprofile
# flags: `go run ./cmd/altsim nsfnet -window 0 -cpuprofile cpu.out`.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkRunCalls/replay' -benchtime 2s -cpuprofile cpu.out -memprofile mem.out .
	@echo "profiles written: cpu.out mem.out (go tool pprof cpu.out)"

# Observability overhead guard (see BENCH_obs.json for recorded numbers).
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkRun(Bare|Instrumented|Timeseries)$$' -benchtime 1s -count 6 .

# Control-plane decision throughput: the altd client swarm against the
# serialized decision loop, direct and over HTTP (see BENCH_altd.json).
bench-altd:
	$(GO) test -run '^$$' -bench BenchmarkAltdDecisions -benchmem -count 3 -benchtime 2s ./internal/ctrl/

# The daemon smoke: boot altd from a scenario file, replay a deterministic
# request swarm over HTTP, cross-check counters against an offline sim.Run,
# and shut down gracefully (the CI altd job).
altd-smoke:
	$(GO) test -v -run TestDaemonSmoke ./cmd/altd/
	$(GO) test -run 'TestReplayEquivalence|TestServerHTTPWire|TestServerConcurrentSwarmSerializes' ./internal/ctrl/

# Short fuzz pass over the Erlang-B / Equation-15 invariants, the
# trace-file reader, the failure-plan reader, materialized trace
# generation, the scenario reader and the altd engine's compiled vs
# interpreted admissions under link failures (CI smoke; the checked-in
# corpora under internal/{erlang,sim,netio,ctrl}/testdata/fuzz always run
# in plain `go test`).
fuzz-smoke:
	$(GO) test ./internal/erlang/ -run '^$$' -fuzz FuzzErlangB -fuzztime 10s
	$(GO) test ./internal/erlang/ -run '^$$' -fuzz FuzzProtectionLevel -fuzztime 10s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzReadTrace -fuzztime 10s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzFailurePlanJSON -fuzztime 10s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzGenerateTrace -fuzztime 10s
	$(GO) test ./internal/netio/ -run '^$$' -fuzz FuzzScenario -fuzztime 10s
	$(GO) test ./internal/ctrl/ -run '^$$' -fuzz FuzzEngineOps -fuzztime 10s

# Run every example end to end with reduced horizons (the CI examples
# smoke job). Output goes to /dev/null; a non-zero exit is the signal.
examples:
	$(GO) run ./examples/quickstart -seeds 1 -horizon 25 >/dev/null
	$(GO) run ./examples/nsfnet -seeds 1 -horizon 25 >/dev/null
	$(GO) run ./examples/failures -seeds 1 -horizon 30 >/dev/null
	$(GO) run ./examples/adaptive -seeds 1 -horizon 30 >/dev/null
	$(GO) run ./examples/cellular -seeds 1 -horizon 25 >/dev/null
	$(GO) run ./examples/exactcheck -quick >/dev/null
