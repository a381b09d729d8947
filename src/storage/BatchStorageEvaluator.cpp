//===- storage/BatchStorageEvaluator.cpp ----------------------------------===//

#include "storage/BatchStorageEvaluator.h"

using namespace fnc2;

BatchStorageResult BatchStorageEvaluator::evaluate(std::vector<Tree> &Trees) {
  FNC2_SPAN("batch.storage.evaluate");
  // A fresh evaluator per tree over the shared compiled state: the
  // assignment's variables and stacks are run-local cell banks, so sharing
  // an instance across concurrent trees would be meaningless as well as
  // racy.
  return run(Pool, Trees, "batch.storage.tree", [this] {
    StorageEvaluator E(CP, CS);
    E.setMirrorToTree(MirrorToTree);
    return E;
  });
}
