//===- eval/MergedBatchEvaluator.h - One-shot merged batches ----*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-shot entry point of the shape-merged batch pipeline
/// (eval/MergedBatchSession.h): evaluate() binds the trees to a private
/// session, runs one evaluation, flushes the attribution into the trees
/// and releases them, answering with the per-tree BatchResult the other
/// batch engines give. The session's lane arenas and flat buffers survive
/// from call to call, so evaluating a batch every round re-faults no lane
/// storage; no pointer to the trees survives a call.
///
/// Outcomes match the sequential Evaluator's: a fallback tree carries the
/// classic engine's diagnostics, a failed cohort tree the same message as
/// an error, and is reset rather than left partially attributed.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_EVAL_MERGEDBATCHEVALUATOR_H
#define FNC2_EVAL_MERGEDBATCHEVALUATOR_H

#include "eval/MergedBatchSession.h"

namespace fnc2 {

/// Evaluates batches of trees of one grammar over a shared plan, merging
/// same-shape trees into SoA cohorts.
class MergedBatchEvaluator {
public:
  /// Compiles the plan privately.
  MergedBatchEvaluator(const EvaluationPlan &Plan, ThreadPool &Pool)
      : S(Plan, Pool) {}
  /// Borrows an already-compiled plan (e.g. out of the artifact cache);
  /// \p Compiled must outlive the evaluator and match \p Plan.
  MergedBatchEvaluator(const EvaluationPlan &Plan, const CompiledPlan &Compiled,
                       ThreadPool &Pool)
      : S(Plan, Compiled, Pool) {}

  /// Root inherited attributes applied to every tree of the batch.
  void setRootInherited(AttrId A, Value V) {
    S.setRootInherited(A, std::move(V));
  }

  /// The session's formation knobs (see MergedBatchSession).
  void setCohortThreshold(unsigned T) { S.setCohortThreshold(T); }
  unsigned cohortThreshold() const { return S.cohortThreshold(); }
  void setShardMaxMembers(unsigned M) { S.setShardMaxMembers(M); }
  unsigned shardMaxMembers() const { return S.shardMaxMembers(); }

  /// Installs (or, with null, removes) a cohort kernel that replaces the
  /// interpreted visit loop of every merged shard. Borrowed: \p K must
  /// outlive the evaluator. The per-tree fallback path is unaffected.
  void setKernel(CohortKernel *K) { S.setKernel(K); }
  CohortKernel *kernel() const { return S.kernel(); }

  /// Groups \p Trees into cohorts without evaluating (exposed for the
  /// cohort-formation unit tests; evaluate() forms internally).
  /// Populates the formation counters of mergedStats().
  CohortSet formCohorts(std::vector<Tree> &Trees);

  /// Evaluates every tree of \p Trees (pairwise disjoint), distributing
  /// cohort shards and fallback chunks over the pool. Outcome I describes
  /// Trees[I]; BatchResult::Stats carries the folded EvalStats mirror.
  BatchResult evaluate(std::vector<Tree> &Trees);

  /// Counters of the most recent evaluate() (or formCohorts()) call.
  const MergedStats &mergedStats() const { return S.mergedStats(); }

  const CompiledPlan &compiled() const { return S.compiled(); }

private:
  MergedBatchSession S;
};

} // namespace fnc2

#endif // FNC2_EVAL_MERGEDBATCHEVALUATOR_H
