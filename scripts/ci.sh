#!/usr/bin/env bash
# Tier-1 CI gate: the default build + full test suite, then the same suite
# under ThreadSanitizer (the collective engine, FSDP runtime, loader, and
# trace recorder are all concurrency-heavy — TSan is the real reviewer).
#
# Usage:  scripts/ci.sh [--skip-tsan]
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: default build + ctest =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure

echo "== benchmark: perfbench/ builds against the current headers =="
# Build-only: perfbench/ is the repository benchmark's standalone build
# (library + geofm_perfbench, no GTest). A change to a public config
# struct or API it uses fails here, not in the benchmark run.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j "$JOBS"

echo "== kernel engine: scalar-oracle cross-check =="
# The default build above ran everything under the SIMD kernel engine
# (GEOFM_KERNELS default). Re-run the kernel-facing suites against the
# scalar oracle so both sides of the dispatch seam stay green, plus the
# parity suite which compares the two implementations directly.
GEOFM_KERNELS=scalar ./build/tests/geofm_tests \
    --gtest_filter='Kernel*:Ops.*:Linear.*:LayerNorm.*:Attention.*:Mlp.*:TransformerBlock.*:PatchEmbed.*:AdamW.*:Sgd.*:Lars.*:Mae.*:ViT.*'

echo "== kernel engine: SIMD tanh against libm on all 2^32 inputs =="
# The vectorized GELU is bitwise equal to the scalar oracle only while its
# tanh reproduces the libm tanhf the build links (DESIGN §5). The parity
# suite samples that; this disabled-by-default test checks every input
# (~30 s on 4 cores), so a libm that computes tanhf differently is named
# here.
./build/tests/geofm_tests --gtest_also_run_disabled_tests \
    --gtest_filter='*SimdTanhExhaustive'

echo "== trace-span budget gate =="
# Structural perf tripwires: comm wait, unshard, loader fetch, the exposed
# checkpoint-snapshot cost, the elastic-recovery path (recover.*, including
# grow-back readmission), and the uploader's publish-side hook
# (upload.exposed) as fractions of step time (budgets in
# scripts/span_budgets.txt).
./build/bench/bench_span_budget_gate scripts/span_budgets.txt

echo "== fault matrix: every FaultPlan kind x sharding strategy =="
# Each deterministic fault kind (kill, stall, slow-rank, corruption, and
# the storage-path injections) under both DDP (NO_SHARD) and FULL_SHARD,
# plus the shrink-and-continue and grow-back recovery scenarios and the
# retrying uploader, as their own pass so a fault-layer regression is
# named here rather than buried in the full suite. FaultTrace is the
# JSON record/replay contract for realized fault schedules.
./build/tests/geofm_tests \
    --gtest_filter='*ElasticFaultMatrix*:ElasticRecovery.*:*ElasticGrowBack*:Fault.*:FaultTrace.*:Uploader.*:StorageFaults.*:Chaos*'

echo "== observability: postmortem bundles + sampler + health report =="
# Flight-recorder contract over the elastic fault matrix: every
# fault-injected recovery (kill, watchdog-diagnosed stall, slow rank past
# the deadline) must leave exactly one postmortem bundle whose
# kind/diagnosis/suspects match the abort path's, written atomically (the
# torn-write seam proves no partial bundle can surface), and replayed
# fault plans must reproduce the bundle structure. Telemetry.* covers the
# background sampler's JSONL series; HealthReport.* the end-of-run
# aggregation and Prometheus exposition.
./build/tests/geofm_tests \
    --gtest_filter='Postmortem.*:Telemetry.*:HealthReport.*'
# Overhead anchor: BENCH_obs.json records trace-scope, flight-capture,
# and sampler cost (the budget gate above enforces telemetry.sample).
GEOFM_BENCH_QUICK=1 GEOFM_BENCH_CACHE=/tmp/geofm_ci_bench_cache \
    ./build/bench/bench_obs_overhead

echo "== serving tier: hot-reload, batching, cache, heads =="
# The frozen-encoder embedding service: batcher coalescing + bitwise
# batched-vs-single parity, cache LRU/epoch semantics, per-tenant head
# hot-swap, reload robustness under storage faults (torn write, unreadable
# shard -> keep serving old weights), and the E2E hot-swap-under-load
# contract (no mixed weights, post-swap embeddings match a direct
# forward, cache hits skip the encoder). The full suite already ran in
# ctest above; this pass names a serving regression directly.
./build/tests/geofm_tests --gtest_filter='Serve*'
# Overload phase: load beyond capacity against a bounded admission queue
# must serve some requests with bounded latency, shed the excess with
# typed errors, and resolve every future (no hangs) — the suite asserts
# all three. Failover/breaker/cache-only degradation runs in the same
# filter (ServeFailover.*, ServeBreaker.*, ServeShutdown.*).
./build/tests/geofm_tests \
    --gtest_filter='ServeOverload.*:ServeShutdown.*:ServeFailover.*:ServeBreaker.*'
# Latency/throughput anchor: closed-loop sweep over (max_batch,
# max_delay_us), p50/p99 per config, plus the overload phase's shed rate
# and admitted-request p50/p99, into BENCH_serve.json.
GEOFM_BENCH_QUICK=1 GEOFM_BENCH_CACHE=/tmp/geofm_ci_bench_cache \
    ./build/bench/bench_serve

echo "== chaos soak: seeded campaigns + invariant audit =="
# Full-stack failure drill: generated campaigns land correlated comm +
# storage + loader faults on an elastic run with a checkpoint mirror,
# flood the serving tier, then audit the system invariants (futures
# conserved, publications atomic, recovery bounded AND bitwise,
# postmortems present/replayable). Fixed seed so CI is deterministic;
# the wall-clock budget bounds the leg, and any violation exits nonzero
# with the offending campaign's seed and kept roots. Longer soaks:
# scripts/soak.sh <seconds>.
./build/bench/soak_chaos --seconds 45 --campaigns 8 --seed 806661

echo "== kernel engine: parity suite under AddressSanitizer =="
# The SIMD kernels do tail-masked loads/stores and packed-panel staging,
# and the fused attention kernel reads Q/K/V at 3C strides and stores at
# head column offsets; ASan catches off-by-one lane and stride
# handling, so the layers that call the fused kernels run here too.
# Tests-only target — the full ASan ctest pass is not in tier-1 budget.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGEOFM_SANITIZE=address
cmake --build build-asan -j "$JOBS" --target geofm_tests
./build-asan/tests/geofm_tests \
    --gtest_filter='Kernel*:ThreadPool.*:Attention.*:Mlp.*:TransformerBlock.*'
GEOFM_KERNELS=scalar ./build-asan/tests/geofm_tests \
    --gtest_filter='Kernel*:Attention.*:Mlp.*:TransformerBlock.*'

echo "== kernel engine: parity suite under UndefinedBehaviorSanitizer =="
# Signed overflow, oversized shifts, misaligned or null accesses in the
# kernels and the layers that call them, in both dispatch modes. GCC does
# not instrument vector-extension arithmetic, so the vector tanh keeps its
# discarded lanes in range by construction (clamped conversions, masked
# shifts) rather than relying on this leg. Tests-only target; any report
# aborts the run.
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGEOFM_SANITIZE=undefined
cmake --build build-ubsan -j "$JOBS" --target geofm_tests
./build-ubsan/tests/geofm_tests \
    --gtest_filter='Kernel*:Ops.*:Mlp.*:TransformerBlock.*'
GEOFM_KERNELS=scalar ./build-ubsan/tests/geofm_tests \
    --gtest_filter='Kernel*:Ops.*:Mlp.*:TransformerBlock.*'

if [[ "$SKIP_TSAN" == "0" ]]; then
  echo "== tier-1: ThreadSanitizer build + ctest =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGEOFM_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure
  echo "== TSan: kernel parity suite =="
  # The kernel engine parallelizes over the pool with grain hints and
  # thread-local packing buffers; run the parity suite under TSan in both
  # dispatch modes.
  ./build-tsan/tests/geofm_tests --gtest_filter='Kernel*:ThreadPool.*'
  GEOFM_KERNELS=scalar ./build-tsan/tests/geofm_tests --gtest_filter='Kernel*'
  echo "== TSan: compute shares + loader across epoch boundaries =="
  # Rank threads install per-rank compute shares (inline, or a private
  # pool) and loader workers render ahead across the epoch boundary while
  # the consumer adopts or discards; both dispatch modes, since the kernel
  # regions the shares run differ between them.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='ThreadPool.*:ComputeShare.*:DataLoader*:ChaosLoader.*'
  GEOFM_KERNELS=scalar ./build-tsan/tests/geofm_tests \
      --gtest_filter='ThreadPool.*:ComputeShare.*:DataLoader*:ChaosLoader.*'
  echo "== TSan: fault-injected restart, extra schedules =="
  # The abort -> unwind -> async-writer-drain -> resume path is the most
  # concurrency-dense sequence in the repo; ctest above ran it once, this
  # repeats it for schedule diversity under TSan.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='FaultTolerance.*' --gtest_repeat=3
  echo "== TSan: in-run elastic recovery, extra schedules =="
  # Kill-triggered and watchdog-triggered recovery race the supervisor,
  # the dying rank, survivors, the watchdog thread, and checkpoint I/O;
  # repeat for schedule diversity.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='ElasticRecovery.KillMidStepShrinksAndContinues:ElasticRecovery.StallQuarantinedByWatchdog' \
      --gtest_repeat=2
  echo "== TSan: uploader vs retention GC, extra schedules =="
  # The background uploader races checkpoint publication (enqueue from the
  # publishing rank) and the retention GC (anchor protection); repeat so
  # the slow-copy/GC interleaving sees multiple schedules.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='Uploader.*' --gtest_repeat=3
  echo "== TSan: serving hot-swap under load, extra schedules =="
  # The serving tier races the batch worker (pinning + cache inserts), the
  # reload poller (restore + atomic swap + cache invalidation), and client
  # threads (submit/futures); repeat the reload and E2E suites for
  # schedule diversity.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='ServeE2E.*:ServeReload.*' --gtest_repeat=2
  echo "== TSan: serving overload + failover, extra schedules =="
  # Admission control races submitters against the worker's drain and
  # the shed paths (expiry sweeps, displacement, shutdown completion);
  # failover/breaker race the poller's source scan against serving.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='ServeOverload.*:ServeShutdown.*:ServeFailover.*:ServeBreaker.*' \
      --gtest_repeat=2
  echo "== TSan: mixed chaos campaign, extra schedules =="
  # One mixed comm+storage+loader campaign under TSan: the campaign layers
  # loader worker kills/respawns and watchdog takeovers on top of the
  # elastic recovery and uploader races above — the densest cross-subsystem
  # interleaving the repo has. Fixed seed; repeated via --campaigns for
  # schedule diversity.
  cmake --build build-tsan -j "$JOBS" --target soak_chaos
  ./build-tsan/bench/soak_chaos --seconds 120 --campaigns 2 --seed 806662
  echo "== TSan: grow-back at a checkpoint boundary, extra schedules =="
  # Shrink -> probationary rendezvous -> re-formed communicator layers the
  # probe group, the supervisor pad rank, the watchdog, and a fresh
  # restore on top of the recovery machinery above.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='Strategies/ElasticGrowBack.ShrinkThenGrowBackBitwise/full_shard' \
      --gtest_repeat=2
fi

echo "== ci.sh: all suites passed =="
