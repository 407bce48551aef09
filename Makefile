GO ?= go

.PHONY: check build vet test test-race test-timeout fuzz-smoke conformance bench bench-compare bench-paper bench-kernel bench-lower bench-blaze bench-frontend bench-observe bench-interp bench-svsim

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
# reference, and 16 svsim sessions sharing one svsim.Design through a
# farm — concurrent VCD writers, the fault-injection matrix with a
# panic raised while a process runs, on every engine), the kernel, the
# reference interpreter, svsim (every process resumed from its saved pc
# on the kernel goroutine, and sessions abandoned without Finish that
# leave no goroutine behind), llhd-sim (the -j sweep's sessions display into one stdout writer) and
# ir (the process-global type table, which sessions, the frontends and the
# decoders intern into from any goroutine: TestTypeInterning builds the
# same types on sixteen at once). val and blaze ride along for a different
# reason: -race turns on checkptr, the only check there is on val's unsafe
# payload views, and blaze is their heaviest user (the call depth bound is
# exercised there too, on race-sized stack frames).
test-race:
	$(GO) test -race -run 'TestConcurrent|TestFarm|TestSession|TestConstruction|TestFault|TestGovernance|TestPoisoned' .
	$(GO) test -race ./internal/engine ./internal/sim ./internal/svsim ./internal/ir ./internal/val ./internal/blaze/... ./cmd/llhd-sim

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
# target. The full acceptance run is -n 1000 for both legs. The last four
# legs are Go-native fuzz targets on the byte-level boundaries:
# SystemVerilog source into the Moore parser (a file or an error, soon),
# LLHD assembly through parse-print-parse-print (what parses prints to a
# fixpoint), bitcode read back from the disk cache (a module or an error,
# never a panic, allocation in proportion to the input; a module goes on through
# ir.CheckShape — shapes, types, slice bounds, branch targets and callees,
# without a panic on whatever decoded — and one that passes must print and
# re-encode), and the
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
	$(GO) test -run xxx -fuzz FuzzAssemblyRoundTrip -fuzztime 10s -fuzzminimizetime 1s ./internal/assembly
	$(GO) test -run xxx -fuzz FuzzBitcodeDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/bitcode
	$(GO) test -run xxx -fuzz FuzzAppendDelta -fuzztime 10s -fuzzminimizetime 1s ./internal/simserver

# conformance runs the RV32I conformance suite explicitly and verbosely:
# every image under testdata/rv32i assembled, executed on the reference
# ISS, and run through the differential oracle on five legs — {interp,
# blaze} x {unlowered, lowered} and svsim — each leg held to the ISS's
# tohost verdict and dump stream (see conformance_test.go). Engine step
# limits and the ISS step budget keep a wedged core a fast deterministic
# failure; failing runs leave one trace per leg under
# conformance-failures/ for CI to upload.
conformance:
	$(GO) test -run TestRV32IConformance -count=1 -v .

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

# bench-kernel runs the seven event-kernel microbenchmarks (drive storm,
# wake fan-out at 64 and 1024 subscribers, idle sensitivity, delta
# cascade, and the two wide instants: 256 changes per instant, and 40
# changes spread over 64 k signals, the span-bound case of the ID-order
# bitmap scan); all must report 0 allocs/op at steady state, and the cost
# per woken subscriber must be the same at both fan-outs.
bench-kernel:
	$(GO) test -bench BenchmarkEngineKernel -benchmem -run xxx ./internal/engine/

# bench-lower times llhd.Lower per design (the ten Table 2 designs and the
# RV32I core; ns/op and allocs/op, module built outside the timer). It is
# the builder's inner loop for the lowering passes; a claim rests on the
# lower_ms metric of `make bench`, not on this. It runs on one P, as `make
# bench` does, so the garbage collector's work lands on the clock here as
# it does in lower_ms (with a second P, rv32i reads some 10-20 % faster).
bench-lower:
	$(GO) test -bench BenchmarkLower -benchmem -cpu 1 -run xxx .

# bench-blaze times Blaze per design (the ten Table 2 designs and the
# RV32I core, behavioural and lowered; ns/op and allocs/op): llhd.CompileBlaze
# (BenchmarkBlazeCompile, module decoded outside the timer) and one session
# from the precompiled design run to the end (BenchmarkBlazeRun, compiled
# outside the timer), which also runs testdata/fabric_4x40.sv, the
# fabric_wide workload's kernel-bound shape at 4 lanes and 40 cycles. It is the builder's inner loop for the bytecode
# lowering, its forwarding plan and the dispatch loop; a claim rests on
# blaze_cycles_per_s / blaze_lowered_cycles_per_s / cold_start_ms of `make
# bench`, not on this. It runs on one P, as `make bench` does.
bench-blaze:
	$(GO) test -bench 'BenchmarkBlaze(Compile|Run)' -benchmem -cpu 1 -run xxx .

# bench-frontend times moore.Compile per Table 2 design, source text to
# Behavioural LLHD (ns/op and allocs/op). It is the builder's inner loop
# for the lexer, the parser, Moore's code generator and the type table; a
# claim rests on cold_start_ms of `make bench`, not on this, and the
# allocation limit is TestMooreCompileAllocRatchet in the suite. It runs
# on one P, as `make bench` does.
bench-frontend:
	$(GO) test -bench BenchmarkMooreCompile -benchmem -cpu 1 -run xxx .

# bench-observe times the two change renderers per streamed change (VCD
# into a discarding writer, NDJSON into a discarding response; a 1-bit, a
# 32-bit and a logic signal each; ns/op and allocs/op, which must read 0).
# It is the builder's inner loop for the observer path; a claim rests on
# blaze_vcd_cycles_per_s / serve_stream_mb_per_s of `make bench`, not on
# this.
bench-observe:
	$(GO) test -bench 'BenchmarkVCDChange|BenchmarkStreamDelta' -benchmem -run xxx ./internal/vcd ./internal/simserver

# bench-interp times the reference interpreter per Table 2 design: one
# session elaborated and run to the end per op (ns/op and allocs/op, the
# design compiled once outside the timer). It is the builder's inner loop
# for the interpreter and engine.EvalPure, the one evaluator of pure
# instructions; a claim rests on interp_cycles_per_s of `make bench`, not
# on this. It runs on one P, as `make bench` does.
bench-interp:
	$(GO) test -bench BenchmarkInterp -benchmem -cpu 1 -run xxx .

# bench-svsim times the AST-level simulator per Table 2 design: one
# session from source text (svsim.Compile, elaboration), run to the end
# and finished per op (ns/op and allocs/op). It is the builder's inner
# loop for SVSim; a claim rests on svsim_cycles_per_s of `make bench`, not
# on this. It runs on one P, as `make bench` does.
bench-svsim:
	$(GO) test -bench BenchmarkSVSim -benchmem -cpu 1 -run xxx .
