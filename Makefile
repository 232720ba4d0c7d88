GO ?= go

.PHONY: build test-short test-race run-campaignd bench-kernels bench-eval bench-train bench-online bench-module bench-campaign bench-offline bench-serve check-bench vet loc golden

build:
	$(GO) build ./...

## test-short: fast suite — pure-logic tests plus one cached training run.
## The full-fat suite (victim training in core/baselines/defense and the
## public-API end-to-end test) is plain `go test ./...`; see EXPERIMENTS.md.
test-short:
	$(GO) test -short ./...

## test-race: race detector over the packages with the concurrent kernels
## (worker pool, buffer pool, batch-parallel conv/batchnorm, int8 engine
## incl. the epoch hot-swap flip-storm test and the suffix scorer's
## concurrent candidate fan-out in internal/quant, parallel metric
## evaluation, the batched serving engine in internal/serve, the
## trainer's concurrent two-term pair incl. the RunOffline short-mode
## determinism and suffix-refinement tests in internal/core, the
## parallel templating engine: profile, sidechan, memsys, the
## fault-injection pass counters in internal/dram, and the campaign
## engine plus the campaignd daemon core — cancellation unwind,
## single-flight abort/re-election, and the kill/resume checkpoint
## test — in internal/campaign{,/server}).
test-race:
	$(GO) test -race -short ./internal/tensor ./internal/nn ./internal/quant ./internal/metrics ./internal/serve ./internal/core ./internal/profile ./internal/sidechan ./internal/memsys ./internal/dram ./internal/campaign ./internal/campaign/server

## run-campaignd: campaignd smoke run — boots the daemon core, submits
## the built-in two-SKU demo fleet through the real HTTP stack, streams
## its results, and exits non-zero unless every campaign succeeds.
run-campaignd:
	$(GO) run ./cmd/campaignd -demo

## bench-kernels: blocked-GEMM and conv hot-path benchmarks with
## allocation counts. Naive twins run alongside for the speedup ratio.
bench-kernels:
	$(GO) test -run xxx -bench 'MatMul|Conv|GemmI8' -benchmem ./internal/tensor/... ./internal/nn/...

## bench-eval: the attack/defense evaluation-loop benchmarks (int8 engine
## vs fp32 graph, single-thread and parallel), serialized to
## BENCH_eval.json with ns/op and allocs/op per entry.
bench-eval:
	$(GO) test -run xxx -bench 'EvalTAASR|QuantForward|FloatForward' -benchmem \
		./internal/metrics/ ./internal/quant/ | $(GO) run ./cmd/benchjson -o BENCH_eval.json

## bench-train: training-engine benchmarks — batch-32 ResNet-20
## forward+backward on the direct path and one CFT+BR iteration's two
## gradient terms through the trainer (as a pair, as two sequential
## calls, and as a pair on the trained victim), with allocation counts —
## serialized to BENCH_train.json. The full RunOffline wall-clock lives
## in BENCH_offline.json (make bench-offline). Add
## `-cpuprofile cpu.out` to the benchjson invocation for a profile.
bench-train:
	$(GO) run ./cmd/benchjson -bench 'TrainStep' -pkg ./internal/core -o BENCH_train.json

## bench-online: online templating-engine benchmarks — the full
## ExecuteOnline buffer-size sweep (32768 → 262144 pages at 1/2/4
## workers) plus the profiling, faulty re-sweep (ReprofileUnion at 1/2
## workers), placement, flip-index build and side-channel micro
## benchmarks — merged with the committed
## pre-optimization baseline (BENCH_online_baseline.json, *PrePR
## entries) into BENCH_online.json.
bench-online:
	$(GO) run ./cmd/benchjson -bench 'ExecuteOnline|ProfileBuffer|ReprofileUnion|PlanPlacement|PrimeIndex|SpoilerSweep|ClusterByBank' \
		-pkg ./internal/core,./internal/profile,./internal/sidechan -benchtime 1x \
		-merge BENCH_online_baseline.json -o BENCH_online.json

## bench-module: multi-GB module benchmarks — the sparse-storage hammer
## hot loop, anonymous mmap at scale, and end-to-end buffer templating
## up to the full 16 GB (4M-page) module — merged with the committed
## pre-rewrite dense baseline (BENCH_module_baseline.json, *PrePR
## entries) into BENCH_module.json.
bench-module:
	$(GO) run ./cmd/benchjson -bench 'HammerSteady|MmapAnon|ProfileModule' \
		-pkg ./internal/dram,./internal/memsys,./internal/profile -benchtime 1x \
		-merge BENCH_module_baseline.json -o BENCH_module.json

## bench-campaign: fleet campaign-engine benchmarks — the 16-campaign /
## 4-SKU sweep as a serial loop, pipelined at 1/2/4 workers, and
## pipelined with the cross-campaign profile cache — merged with the
## committed serial baseline (BENCH_campaign_baseline.json) into
## BENCH_campaign.json.
bench-campaign:
	$(GO) run ./cmd/benchjson -bench 'FleetSweep/Pipelined' \
		-pkg ./internal/campaign -benchtime 1x \
		-merge BENCH_campaign_baseline.json -o BENCH_campaign.json

## bench-offline: offline-attack refinement benchmarks — one constraint
## enforcement step with full-forward scoring vs the incremental suffix
## scorer (tensor.MaxWorkers 1 and 4) plus the end-to-end RunOffline
## wall-clock (tensor.MaxWorkers 1 and 4) —
## merged with the committed pre-scorer baseline
## (BENCH_offline_baseline.json, *PrePR entries) into BENCH_offline.json.
bench-offline:
	$(GO) run ./cmd/benchjson -bench 'Refinement|OfflineAttack' \
		-pkg ./internal/core -benchtime 3x \
		-merge BENCH_offline_baseline.json -o BENCH_offline.json

## bench-serve: serving-engine benchmarks — the unbatched single-request
## loop, batched micro-batching QPS at 1/2/4 executor workers and the
## flip-storm vs quiescent hot-swap degradation — merged with the
## committed pre-PR unbatched baseline (BENCH_serve_baseline.json,
## *PrePR entry) into BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/benchjson -bench 'ServeQPS/serial|ServeQPS/batched|ServeFlipStorm' \
		-pkg ./internal/serve -benchtime 2s \
		-merge BENCH_serve_baseline.json -o BENCH_serve.json

## golden: every byte-identity gate, checked without -update — the
## trained-victim and gradient digests and the int8 golden logits
## (internal/pretrain), the fleet digest (internal/campaign) and the
## Table 2 QuickScale digest (internal/experiments), all against
## testdata/golden/digests.txt. A refactor shows byte identity with this
## one command (about 40 s on 2 vCPUs).
golden:
	$(GO) test -count=1 -run 'TestGoldenDigests|TestGoldenQuantForward' ./internal/pretrain
	$(GO) test -count=1 -run TestGoldenFleetDigest ./internal/campaign
	$(GO) test -count=1 -run TestTable2ResNet20 ./internal/experiments

## loc: the non-test Go line count (perfbench, a separate module,
## excluded) — the measure ROADMAP's line targets use.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' | xargs cat | wc -l

## check-bench: validate every committed benchjson report against the
## schema (strict fields, non-empty, sane values) and its *_baseline.json
## — fails on perf-history drift such as renamed or dropped benchmarks.
check-bench:
	$(GO) run ./cmd/benchjson -check BENCH_*.json

## vet: a gofmt check (fails when `gofmt -l .` lists any file), static
## checks (also over perfbench, a separate module that root `go vet`
## never compiles, whose tests then run), plus a cross-compile of the portable (non-AVX2) code paths — the
## asm files are amd64-gated, so arm64 must build pure Go — plus the
## committed-benchmark schema check and the race suite over the concurrent
## engines. On an AVX2 host it also reruns the elementwise and int8
## data-path kernel identity tests, the int8 lowering grid and the int8
## golden logits built with GOAMD64=v3, where the compiler may use FMA:
## they fail if it ever fuses a portable twin's multiply and add
## (DESIGN §12, §13). Last, it reruns the serving batch-policy tests
## (forced coalescing, drain on Close, panic isolation) ten times under
## the race detector, so a timing-dependent regression shows (DESIGN §14),
## and does the same for the DRAM module's lock-free weak-cell table and
## atomic fault pass counters (DESIGN §6 item 5).
V3_TESTS = Elementwise|BNAffine|BNSums|BatchNormMatches|Int8Path|QuantizePlanes|ConvI8|GoldenQuantForward
SERVE_POLICY_TESTS = TestServeCoalescedBatchExact|TestServeCloseDrains|TestServeEnginePanic
DRAM_TABLE_TESTS = TestSparseDenseWeakCellIdentity|TestWeakTableCapBoundsResidency|TestConcurrentFaultyHammerMatchesSerial

vet: check-bench test-race
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	GOARCH=arm64 $(GO) build ./...
	@if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then \
		echo "GOAMD64=v3 $(GO) test -run '$(V3_TESTS)' ./internal/tensor ./internal/nn ./internal/pretrain"; \
		GOAMD64=v3 $(GO) test -count=1 -run '$(V3_TESTS)' ./internal/tensor ./internal/nn ./internal/pretrain; \
	else echo "vet: no AVX2 CPU, skipping the GOAMD64=v3 kernel identity tests"; fi
	$(GO) test -race -count=10 -run '$(SERVE_POLICY_TESTS)' ./internal/serve
	$(GO) test -race -count=10 -run '$(DRAM_TABLE_TESTS)' ./internal/dram
