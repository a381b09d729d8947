//===- eval/BatchEvaluator.cpp --------------------------------------------===//

#include "eval/BatchEvaluator.h"

using namespace fnc2;

BatchResult BatchEvaluator::evaluate(std::vector<Tree> &Trees) {
  FNC2_SPAN("batch.evaluate");
  // A fresh evaluator per tree over the shared compiled plan: it is a few
  // references plus buffers, and it keeps tree failures fully isolated.
  return run(Pool, Trees, "batch.tree",
             [this] { return Evaluator(CP); });
}
