//===- eval/BatchDriver.h - Shared per-tree batch driver --------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one driver behind both per-tree batch engines, BatchEvaluator and
/// BatchStorageEvaluator. It keeps the root-inherited values every tree
/// receives, spreads the trees over a ThreadPool with a fresh engine per
/// tree, gives each tree its own DiagnosticEngine so a failing tree cannot
/// poison the batch, and folds per-worker stats and the success count after
/// the join. The engines differ only in what they compile once and how they
/// build the per-tree engine from it. Its root-inherited list type is also
/// what DemandEvaluator, MergedBatchSession and IncrementalSession keep.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_EVAL_BATCHDRIVER_H
#define FNC2_EVAL_BATCHDRIVER_H

#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "tree/Tree.h"

#include <deque>

namespace fnc2 {

/// Per-tree outcome of a batch run. Lives in a deque because the engine
/// (and its embedded mutex) is not movable.
struct BatchTreeOutcome {
  bool Success = false;
  DiagnosticEngine Diags;
};

/// The join of one batch: per-tree outcomes plus merged dynamic counters.
template <typename StatsT> struct BatchJoin {
  std::deque<BatchTreeOutcome> Outcomes;
  StatsT Stats;
  unsigned NumSucceeded = 0;

  bool allSucceeded() const { return NumSucceeded == Outcomes.size(); }
};

/// Root inherited attribute values, one per attribute: setting an
/// attribute again replaces its value. Iterates as (AttrId, Value) pairs.
class RootInheritedList {
public:
  void set(AttrId A, Value V) {
    for (auto &[Attr, Val] : Vals)
      if (Attr == A) {
        Val = std::move(V);
        return;
      }
    Vals.emplace_back(A, std::move(V));
  }
  auto begin() const { return Vals.begin(); }
  auto end() const { return Vals.end(); }
  size_t size() const { return Vals.size(); }

private:
  std::vector<std::pair<AttrId, Value>> Vals;
};

/// Batch driver over a per-tree engine \p EngineT (anything with
/// setRootInherited(), evaluate(Tree &, DiagnosticEngine &) and stats())
/// whose counters are \p StatsT.
template <typename EngineT, typename StatsT> class PerTreeBatch {
public:
  /// Root inherited attributes applied to every tree of the batch.
  void setRootInherited(AttrId A, Value V) { RootInh.set(A, std::move(V)); }

protected:
  /// Evaluates every tree of \p Trees (which must be pairwise disjoint) on
  /// \p Pool, each under a span named \p TreeSpan on the engine \p Make()
  /// returns. Outcome I describes Trees[I].
  template <typename MakeEngineT>
  BatchJoin<StatsT> run(ThreadPool &Pool, std::vector<Tree> &Trees,
                        [[maybe_unused]] const char *TreeSpan,
                        MakeEngineT Make) const {
    BatchJoin<StatsT> Result;
    Result.Outcomes.resize(Trees.size());

    // One stats accumulator per worker; merged after the join so the hot
    // loop never contends.
    std::vector<StatsT> WorkerStats(Pool.numThreads());

    Pool.parallelFor(Trees.size(), [&](size_t I, unsigned Worker) {
      // Each worker's trace events land in that thread's own buffer; the
      // spans nested under this one reconstruct the per-worker timeline.
      FNC2_SPAN(TreeSpan);
      EngineT E = Make();
      for (const auto &[Attr, Val] : RootInh)
        E.setRootInherited(Attr, Val);
      BatchTreeOutcome &Out = Result.Outcomes[I];
      Out.Success = E.evaluate(Trees[I], Out.Diags);
      WorkerStats[Worker].merge(E.stats());
    });

    for (const StatsT &S : WorkerStats)
      Result.Stats.merge(S);
    for (const BatchTreeOutcome &Out : Result.Outcomes)
      Result.NumSucceeded += Out.Success;
    return Result;
  }

private:
  RootInheritedList RootInh;
};

} // namespace fnc2

#endif // FNC2_EVAL_BATCHDRIVER_H
