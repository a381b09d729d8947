//===- eval/MergedBatchEvaluator.cpp --------------------------------------===//

#include "eval/MergedBatchEvaluator.h"

#include "support/Trace.h"

using namespace fnc2;

CohortSet MergedBatchEvaluator::formCohorts(std::vector<Tree> &Trees) {
  CohortSet Set;
  S.form(Trees, Set);
  return Set;
}

BatchResult MergedBatchEvaluator::evaluate(std::vector<Tree> &Trees) {
  FNC2_SPAN("merged.evaluate");
  BatchResult Result;
  Result.Outcomes.resize(Trees.size());
  S.bind(Trees);
  const SessionResult R = S.run(&Result.Outcomes);
  S.flush();
  S.release();

  size_t I = 0;
  for (BatchTreeOutcome &Out : Result.Outcomes)
    Out.Success = S.succeeded(I++);
  Result.NumSucceeded = R.NumSucceeded;
  Result.Stats = R.Stats;
  return Result;
}
