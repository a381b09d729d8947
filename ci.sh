#!/bin/sh
# ci.sh — tier-1 verification, perf baselines, and the concurrency race
# gate, one command.
#
#   1. Release-ish build of everything + the full test suite (including the
#      incremental edit-oracle, golden-trace and artifact-cache suites).
#   2. Perf baselines: the observability-overhead bench (evaluator family
#      timings, tracing off vs on), the batch-throughput bench (whose
#      merged-scaling sweep self-gates twice: the shape-merged SoA engine
#      must beat the per-tree batch engine by >=1.5x at the 100k-tree
#      point, and — when a host C++ compiler exists — the compiled SoA
#      kernels must beat the interpreted visits by >=1.5x on the resident
#      MergedBatchSession at the same point, exiting nonzero otherwise), the
#      generator-scaling bench (cascade: naive vs worklist fixpoint); and
#      the incremental-scaling bench (edit-log replay against 1k/10k/
#      100k-node trees; the bench exits nonzero unless median per-edit work
#      stays proportional to the affected region — not the tree — and every
#      session, including the 100k-node one, saves and resumes
#      bit-identically); and the native-speedup bench (the dlopen()ed
#      specialization of the compiled plan must beat the interpreted
#      CompiledPlan by the per-workload floors — >=3x desk, >=2x repmin —
#      and a warm start over a populated cache must bind the cached shared
#      object with zero compiler invocations, exiting nonzero otherwise;
#      machines without a host C++ compiler skip with empty results);
#      and the service-traffic bench (1/4/8 closed-loop clients replaying
#      seeded mixed request streams against one fnc2d daemon over five
#      resident grammars; the bench exits nonzero if any response is
#      non-Ok, if concurrent registrations fail to collapse to one
#      generation per grammar, or if the 8-client p99 latency exceeds its
#      floor). Their JSON outputs are copied to BENCH_evaluators.json,
#      BENCH_batch.json, BENCH_generator.json, BENCH_incremental.json,
#      BENCH_native.json and BENCH_service.json at the repo root on every
#      run.
#   3. bench_check: the fresh bench JSONs are diffed against the committed
#      baselines; any shared data point worse than its metric's tolerance
#      fails the run (bench/bench_check.py — per-metric tolerances,
#      tolerant to added/removed points).
#   4. AddressSanitizer+UBSan build (-DFNC2_SANITIZE=address,undefined) of
#      the serialization, artifact-cache and edit-log/session suites: every
#      corruption-injection case (byte flips, truncations, version bumps,
#      stale keys — on artifacts, edit logs and persisted sessions alike)
#      must be rejected without touching invalid memory; the shape-merged
#      batch suite also runs here so the SoA lane indexing and the
#      scatter-back paths are exercised under ASan, and the native-backend
#      suite runs its dlopen lifecycle (load, evaluate, unload, reload from
#      cache, tampered-artifact repair) with the emitted objects themselves
#      compiled under the same sanitizers; the service suite runs its wire
#      protocol byte-flip/truncation fuzz and the concurrent soak here too;
#      the storage suite (lifetime analysis, grouping, storage evaluator and
#      the storage-assignment golden) runs here so the space optimizer's
#      word-indexed bit rows are checked for out-of-range access; the molga
#      front-end and grammar suites run here so the tokens' views of the
#      source, the parser's token references and the derived occurrence
#      ids are checked for dangling or out-of-range access; the tree suite
#      runs here so the term reader's integer lexemes are checked for
#      signed overflow at the int64 bounds; the molga interpreter suite runs
#      here so its depth bound is shown to stop a runaway recursion within
#      the stack. The bound is sized for optimized frames (about 2.3 MiB
#      at the bound); ASan's frames are about 14x larger, so this step runs
#      with a 64 MiB stack limit.
#   5. ThreadSanitizer build (-DFNC2_SANITIZE=thread) + the concurrency,
#      differential, interning, trace, oracle, parallel-cascade,
#      artifact-cache, multi-session and native-backend race tests, which
#      exercise the shared-plan read path, the string-interning pool, the
#      per-thread trace buffers, the fixpoint engine's parallel rounds,
#      racing cache store/load, many incremental sessions editing
#      concurrently over one immutable compiled plan, concurrent
#      evaluation sessions sharing one dlopen()ed native module, and the
#      fnc2d soak (8+ client threads through the daemon's admission queue
#      sharing one resident CompiledArtifact, responses bit-identical to a
#      serial oracle replay).
#
# Usage: ./ci.sh [jobs]
set -eu

JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"
SRC="$(cd "$(dirname "$0")" && pwd)"

echo "== [1/5] RelWithDebInfo build + full ctest =="
cmake -B "$SRC/build" -S "$SRC" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$SRC/build" -j "$JOBS"
ctest --test-dir "$SRC/build" --output-on-failure -j "$JOBS"

echo "== [2/5] perf baselines (observability + batch + generator + incremental + native + service) =="
cmake --build "$SRC/build" -j "$JOBS" \
      --target observability_overhead batch_throughput generator_scaling \
               incremental_scaling native_speedup service_traffic
(cd "$SRC/build/bench" && ./observability_overhead)
# batch_throughput's merged-scaling sweep doubles as the shape-merging
# gate: merged must reach >=1.5x the per-tree batch rate at 100k small
# trees, and the compiled SoA kernels >=1.5x the interpreted visits on the
# resident session at the same point, or the bench exits 1.
(cd "$SRC/build/bench" && ./batch_throughput --trees 10000 --trees 100000 \
                                             --benchmark_min_time=0.05s)
(cd "$SRC/build/bench" && ./generator_scaling)
# incremental_scaling self-gates: median per-edit reevaluation must stay
# proportional to the bounded edit region from 1k to 100k nodes, beat a
# from-scratch pass by >=4x at every point, and every session must save
# and resume bit-identically (the 100k point stresses serialization).
(cd "$SRC/build/bench" && ./incremental_scaling)
# native_speedup self-gates: the dlopen()ed specialization must beat the
# interpreted CompiledPlan by >=3x on desk and >=2x on repmin, and a warm
# start must bind the cached object with zero compiler invocations and a
# nonzero codegen.native.compile_skipped counter, else it exits 1. Without
# a host C++ compiler it writes empty results and exits 0.
(cd "$SRC/build/bench" && ./native_speedup)
# service_traffic self-gates: every response over the admission queue must
# be Ok, concurrent registrations must collapse to one generation per
# grammar, and the 8-client p99 latency must stay under its floor — a
# lost wakeup or per-request recompile fails here, not in production.
(cd "$SRC/build/bench" && ./service_traffic)

echo "== [3/5] bench_check against committed baselines =="
if [ -f "$SRC/BENCH_evaluators.json" ]; then
  python3 "$SRC/bench/bench_check.py" "$SRC/BENCH_evaluators.json" \
          "$SRC/build/bench/evaluator_baselines.json"
fi
if [ -f "$SRC/BENCH_batch.json" ]; then
  python3 "$SRC/bench/bench_check.py" "$SRC/BENCH_batch.json" \
          "$SRC/build/bench/batch_throughput.json"
fi
if [ -f "$SRC/BENCH_generator.json" ]; then
  python3 "$SRC/bench/bench_check.py" "$SRC/BENCH_generator.json" \
          "$SRC/build/bench/generator_scaling.json"
fi
if [ -f "$SRC/BENCH_incremental.json" ]; then
  python3 "$SRC/bench/bench_check.py" "$SRC/BENCH_incremental.json" \
          "$SRC/build/bench/incremental_scaling.json"
fi
if [ -f "$SRC/BENCH_native.json" ]; then
  python3 "$SRC/bench/bench_check.py" "$SRC/BENCH_native.json" \
          "$SRC/build/bench/native_speedup.json"
fi
if [ -f "$SRC/BENCH_service.json" ]; then
  python3 "$SRC/bench/bench_check.py" "$SRC/BENCH_service.json" \
          "$SRC/build/bench/service_traffic.json"
fi
cp "$SRC/build/bench/evaluator_baselines.json" "$SRC/BENCH_evaluators.json"
cp "$SRC/build/bench/batch_throughput.json" "$SRC/BENCH_batch.json"
cp "$SRC/build/bench/generator_scaling.json" "$SRC/BENCH_generator.json"
cp "$SRC/build/bench/incremental_scaling.json" "$SRC/BENCH_incremental.json"
cp "$SRC/build/bench/native_speedup.json" "$SRC/BENCH_native.json"
cp "$SRC/build/bench/service_traffic.json" "$SRC/BENCH_service.json"
echo "wrote BENCH_evaluators.json, BENCH_batch.json, BENCH_generator.json," \
     "BENCH_incremental.json, BENCH_native.json, BENCH_service.json"

echo "== [4/5] ASan+UBSan build + serialization/corruption gate =="
cmake -B "$SRC/build-asan" -S "$SRC" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFNC2_SANITIZE=address,undefined
cmake --build "$SRC/build-asan" -j "$JOBS" \
      --target serialize_test artifact_cache_test edit_log_test \
               merged_batch_test native_backend_test native_merged_test \
               service_test service_soak_test storage_test olga_test \
               grammar_test tree_test
(ulimit -s 65536 &&
 ctest --test-dir "$SRC/build-asan" --output-on-failure -j "$JOBS" \
      -R 'Serialize|ArtifactFile|Artifact|EditLog|Session|ValueCodec|SubtreeCodec|MergedBatch|SoAFrame|Native|Service|Lifetime|Storage|Grouping|Lexer|Parser|Sema|Driver|Optimizer|Grammar|WellFormedness|AutoCopy|ProductionInfo|OccName|TreeTest|ExprEval')

echo "== [5/5] ThreadSanitizer build + race gate =="
cmake -B "$SRC/build-tsan" -S "$SRC" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFNC2_SANITIZE=thread
cmake --build "$SRC/build-tsan" -j "$JOBS" \
      --target concurrency_test differential_test value_intern_test \
               trace_test incremental_oracle_test analysis_test \
               artifact_cache_test edit_log_test merged_batch_test \
               native_backend_test native_merged_test service_soak_test
ctest --test-dir "$SRC/build-tsan" --output-on-failure -j "$JOBS" \
      -R 'ThreadPool|Concurrency|Differential|ValueIntern|Trace|Oracle|Cascade|Artifact|EditLogConcurrency|SessionFuzz|MergedBatch|Native|ServiceSoak'

echo "ci.sh: all green"
