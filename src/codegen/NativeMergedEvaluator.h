//===- codegen/NativeMergedEvaluator.h - Batch via compiled SoA -*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The eighth engine: shape-merged cohort evaluation driven by the native
/// backend's compiled SoA kernels. The merged pipeline
/// (eval/MergedBatchSession.h) keeps doing everything structural — cohort
/// formation, lane layout, lexeme and root-inherited fill, sharding over
/// the thread pool, scatter-back with idempotent-store elision, the
/// per-tree fallback for sub-threshold shape groups — while each merged
/// shard's visit loop runs through the `fnc2_native_soa_run` entry point
/// codegen/SoAEmitter emitted: one specialized member-loop function per
/// (production, visit), no per-member dispatch anywhere. Install a
/// NativeCohortKernel with setKernel() on a MergedBatchEvaluator (one-shot)
/// or a MergedBatchSession (resident); attributions, diagnostics and
/// folded counters stay bit-identical (the engine-family suites pin this).
///
/// Concurrent shards over one shared NativeModule are safe because each
/// kernel run carries its own SoaRunCtx and position table.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_CODEGEN_NATIVEMERGEDEVALUATOR_H
#define FNC2_CODEGEN_NATIVEMERGEDEVALUATOR_H

#include "codegen/NativeBackend.h"
#include "eval/MergedBatchEvaluator.h"

namespace fnc2 {

/// The CohortKernel bridging a merged shard to the compiled entry point:
/// builds the level-order SoaPos table over the shard's laid-out lanes,
/// runs fnc2_native_soa_run, folds its counters and rephrases its failure
/// report as the interpreted diagnostics. Thread-safe (one run() per
/// shard, thread-local position table).
class NativeCohortKernel : public CohortKernel {
public:
  /// \p CP must be the live plan \p M was bound against; both must outlive
  /// the kernel.
  NativeCohortKernel(const CompiledPlan &CP,
                     std::shared_ptr<const NativeModule> M)
      : CP(CP), Module(std::move(M)) {}
  bool run(const Shard &S, MergedStats &WS, std::string &FailMsg) override;

private:
  const CompiledPlan &CP;
  std::shared_ptr<const NativeModule> Module;
};

} // namespace fnc2

#endif // FNC2_CODEGEN_NATIVEMERGEDEVALUATOR_H
