//===- storage/BatchStorageEvaluator.h - Batched storage eval ---*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-tree batch driver of eval/BatchDriver.h over the storage-
/// optimized evaluator, so the space-optimization ablation also runs
/// batched. The plan and the StorageAssignment are shared read-only; the
/// global variables and stacks the assignment prescribes are *per-worker
/// interpreter state* (one StorageEvaluator instance per tree), since cell
/// contents are meaningful only within one tree's evaluation.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_STORAGE_BATCHSTORAGEEVALUATOR_H
#define FNC2_STORAGE_BATCHSTORAGEEVALUATOR_H

#include "eval/BatchEvaluator.h"
#include "storage/StorageEvaluator.h"

namespace fnc2 {

/// The join of one storage-evaluated batch.
using BatchStorageResult = BatchJoin<StorageStats>;

/// Evaluates batches of disjoint trees under a shared plan + storage
/// assignment.
class BatchStorageEvaluator
    : public PerTreeBatch<StorageEvaluator, StorageStats> {
public:
  BatchStorageEvaluator(const EvaluationPlan &Plan,
                        const StorageAssignment &SA, ThreadPool &Pool)
      : Plan(Plan), SA(SA), Pool(Pool), Compiled(Plan),
        CompiledSA(Compiled, SA) {}

  /// Mirrors every write into the tree slots (differential testing).
  void setMirrorToTree(bool On) { MirrorToTree = On; }

  BatchStorageResult evaluate(std::vector<Tree> &Trees);

private:
  const EvaluationPlan &Plan;
  const StorageAssignment &SA;
  ThreadPool &Pool;
  /// Compiled once; shared read-only by every worker's evaluator.
  CompiledPlan Compiled;
  CompiledStorage CompiledSA;
  bool MirrorToTree = false;
};

} // namespace fnc2

#endif // FNC2_STORAGE_BATCHSTORAGEEVALUATOR_H
