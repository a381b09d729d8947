//===- eval/BatchEvaluator.h - Parallel batch evaluation --------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel batch engine: evaluates a vector of independent attributed
/// trees concurrently against one shared immutable CompiledPlan (see the
/// immutability contract in visitseq/VisitSequence.h), borrowed read-only
/// by a fresh Evaluator per tree. The driver (per-tree
/// diagnostics, per-worker stats merged on join) is eval/BatchDriver.h,
/// shared with the storage-optimized batch engine. The trees must be
/// pairwise disjoint (no shared nodes); beyond that no coordination is
/// needed because evaluation only writes tree-resident state.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_EVAL_BATCHEVALUATOR_H
#define FNC2_EVAL_BATCHEVALUATOR_H

#include "eval/BatchDriver.h"
#include "eval/Evaluator.h"

namespace fnc2 {

/// The join of one batch of the exhaustive evaluator (and of the merged
/// engines, which report through the same counters).
using BatchResult = BatchJoin<EvalStats>;

/// Evaluates batches of trees of one grammar over a shared plan.
class BatchEvaluator : public PerTreeBatch<Evaluator, EvalStats> {
public:
  /// Borrows the compiled plan every worker's evaluator shares; \p CP must
  /// outlive the batch engine.
  BatchEvaluator(const CompiledPlan &CP, ThreadPool &Pool)
      : CP(CP), Pool(Pool) {}
  /// Kept only for perfbench/ until the next benchmark change: compiles
  /// \p Plan privately.
  BatchEvaluator(const EvaluationPlan &Plan, ThreadPool &Pool)
      : Owned(std::make_unique<const CompiledPlan>(Plan)), CP(*Owned),
        Pool(Pool) {}

  /// Evaluates every tree of \p Trees (which must be pairwise disjoint),
  /// distributing them over the pool. Trees carry their attribute values on
  /// return exactly as under the sequential Evaluator; outcome I describes
  /// Trees[I].
  BatchResult evaluate(std::vector<Tree> &Trees);

private:
  /// Set only by the perfbench/ forward.
  std::unique_ptr<const CompiledPlan> Owned;
  const CompiledPlan &CP;
  ThreadPool &Pool;
};

} // namespace fnc2

#endif // FNC2_EVAL_BATCHEVALUATOR_H
