GO ?= go

.PHONY: check build vet test test-race test-timeout fuzz-smoke serve-smoke conformance bench bench-compare bench-paper bench-kernel bench-lower bench-blaze bench-observe

# check is the tier-1 verification: the build, go vet, and the full test
# suite must all pass.
check: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test order so hidden inter-test state
# dependencies surface in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

# test-race runs the concurrency-exposed suites under the race detector:
# the root package (session farm, 16 concurrent sessions per backend over
# one frozen design — including 16 blaze sessions sharing one compiled
# instruction stream, cross-checked against a serial interpreter
# reference — concurrent VCD writers, the fault-injection matrix with its
# in-coroutine svsim panic recovery), the kernel, the reference
# interpreter, svsim (coroutine handoff), and llhd-sim (the -j sweep's
# sessions display into one stdout writer). val and blaze ride along for
# a different reason: -race turns on checkptr, the only check there is on
# val's unsafe payload views, and blaze is their heaviest user (the call
# depth bound is exercised there too, on race-sized stack frames).
test-race:
	$(GO) test -race -run 'TestConcurrent|TestFarm|TestSession|TestConstruction|TestFault|TestGovernance|TestPoisoned' .
	$(GO) test -race ./internal/engine ./internal/sim ./internal/svsim ./internal/val ./internal/blaze/... ./cmd/llhd-sim

# test-timeout is the hang guard: the whole suite must finish inside a
# hard wall-clock budget, so a containment or governance regression that
# turns a failure into a livelock fails CI instead of stalling it.
test-timeout:
	$(GO) test -timeout 120s ./...

# fuzz-smoke is the CI-sized differential fuzzing run: a fixed seed and a
# bounded design count, so it is deterministic and time-boxed. Each design
# runs four legs — {interp, blaze} × {unlowered, lowered} — so blaze is
# fuzzed against the reference interpreter on every seed. The second leg
# fuzzes the pass pipeline itself: per seed a random pass ordering,
# checked after every
# pass application, so any divergence is bisected to the first divergent
# pass (named in the repro header and on the report line). Failing designs
# are shrunk into fuzz-failures/ (uploaded as a CI artifact) and fail the
# target. The full acceptance run is -n 1000 for both legs. The last three
# legs are Go-native fuzz targets on the byte-level boundaries:
# SystemVerilog source into the Moore parser (a file or an error, soon),
# bitcode read back from the disk cache (a module or an error, never a
# panic, allocation in proportion to the input; a module goes on through
# ir.CheckShape, and one that passes must print and re-encode), and the
# NDJSON delta line on its way out (the bytes json.Marshal gives, whatever
# the signal is called). A crasher is written
# under the package's testdata/fuzz/ — commit it: it replays in every
# plain `go test` from then on — and fails the target. The minimizer is
# capped because its default (60 s per interesting input) would eat the
# whole 10 s on the first multi-kilobyte seed.
fuzz-smoke:
	$(GO) run ./cmd/llhd-fuzz -seed 1 -n 300 -corpus fuzz-failures
	$(GO) run ./cmd/llhd-fuzz -pipeline -seed 1 -n 150 -corpus fuzz-failures
	$(GO) test -run xxx -fuzz FuzzMooreParse -fuzztime 10s -fuzzminimizetime 1s ./internal/moore
	$(GO) test -run xxx -fuzz FuzzBitcodeDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/bitcode
	$(GO) test -run xxx -fuzz FuzzAppendDelta -fuzztime 10s -fuzzminimizetime 1s ./internal/simserver

# conformance runs the RV32I conformance suite explicitly and verbosely:
# every image under testdata/rv32i assembled, executed on the reference
# ISS, and cross-checked on all three engines (see conformance_test.go).
# Engine step limits and the ISS step budget keep a wedged core a fast
# deterministic failure; failing runs leave VCD + trace artifacts under
# conformance-failures/ for CI to upload.
conformance:
	$(GO) test -run TestRV32IConformance -count=1 -v .

# serve-smoke is the simulation server's end-to-end self-test: boot
# llhd-serve on an ephemeral port, stream rr_arbiter and byte-diff the
# NDJSON deltas against a serial TraceObserver reference, resubmit to
# check the content-addressed cache hit (identical stream, no recompile),
# and assert that a tiny step budget is rejected with HTTP 429 and the
# "step-limit" failure slug.
serve-smoke:
	$(GO) run ./cmd/llhd-serve -smoke

# bench runs the repository benchmark (benchmark/README.md): four
# workloads, every metric printed by name, every op checked (ISS dump
# streams, expected.json pins); exits non-zero on any failed op. Each run
# appends its record to benchmark/out/results-<seed>.json.
bench:
	$(GO) run ./benchmark

# bench-compare prints two result sets metric by metric — the required
# before/after table of a change that claims a gain or claims to cost
# nothing. BASE and HEAD are result-set files written by `make bench`
# (or `go run ./benchmark -out FILE`) at the two commits.
bench-compare:
	$(GO) run ./benchmark -compare $(BASE) $(HEAD)

# bench-paper runs the go test benchmarks over the paper's evaluation
# (Table 4 serialization, Figure 5 lowering, Moore compile).
bench-paper:
	$(GO) test -bench . -benchmem -run xxx .

# bench-kernel runs the event-kernel microbenchmarks (drive storm, wake
# fan-out at 64 and 1024 subscribers, idle sensitivity, delta cascade);
# all must report 0 allocs/op at steady state, and the cost per woken
# subscriber must be the same at both fan-outs.
bench-kernel:
	$(GO) test -bench BenchmarkEngineKernel -benchmem -run xxx ./internal/engine/

# bench-lower times llhd.Lower per design (the ten Table 2 designs and the
# RV32I core; ns/op and allocs/op, module built outside the timer). It is
# the builder's inner loop for the lowering passes; a claim rests on the
# lower_ms metric of `make bench`, not on this.
bench-lower:
	$(GO) test -bench BenchmarkLower -benchmem -run xxx .

# bench-blaze times llhd.CompileBlaze per design (the ten Table 2 designs
# and the RV32I core, behavioural and lowered; ns/op and allocs/op, module
# decoded outside the timer). It is the builder's inner loop for the
# bytecode lowering and its forwarding plan; a claim rests on
# blaze_cycles_per_s / cold_start_ms of `make bench`, not on this.
bench-blaze:
	$(GO) test -bench BenchmarkBlazeCompile -benchmem -run xxx .

# bench-observe times the two change renderers per streamed change (VCD
# into a discarding writer, NDJSON into a discarding response; a 1-bit, a
# 32-bit and a logic signal each; ns/op and allocs/op, which must read 0).
# It is the builder's inner loop for the observer path; a claim rests on
# blaze_vcd_cycles_per_s / serve_stream_mb_per_s of `make bench`, not on
# this.
bench-observe:
	$(GO) test -bench 'BenchmarkVCDChange|BenchmarkStreamDelta' -benchmem -run xxx ./internal/vcd ./internal/simserver
