//===- storage/BatchStorageEvaluator.h - Batched storage eval ---*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-tree batch driver of eval/BatchDriver.h over the storage-
/// optimized evaluator, so the space-optimization ablation also runs
/// batched. The compiled plan and storage side table are shared read-only;
/// the global variables and stacks the assignment prescribes are *per-worker
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
  /// Borrows the compiled plan and storage side table every worker's
  /// evaluator shares; both must outlive the batch engine.
  BatchStorageEvaluator(const CompiledPlan &CP, const CompiledStorage &CS,
                        ThreadPool &Pool)
      : CP(CP), CS(CS), Pool(Pool) {}

  /// Mirrors every write into the tree slots (differential testing).
  void setMirrorToTree(bool On) { MirrorToTree = On; }

  BatchStorageResult evaluate(std::vector<Tree> &Trees);

private:
  const CompiledPlan &CP;
  const CompiledStorage &CS;
  ThreadPool &Pool;
  bool MirrorToTree = false;
};

} // namespace fnc2

#endif // FNC2_STORAGE_BATCHSTORAGEEVALUATOR_H
