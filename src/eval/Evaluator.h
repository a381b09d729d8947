//===- eval/Evaluator.h - Exhaustive visit-sequence evaluator ---*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exhaustive evaluator (paper section 2.1.1). On VISIT i,j it fetches
/// the applied production at the j-th son and executes that son's sequence
/// body for visit i until the matching LEAVE. Attributes are tree-resident
/// (frame slots) in this evaluator; the storage-optimized variant lives in
/// src/storage.
///
/// The evaluator runs the CompiledPlan instruction stream (flat opcodes,
/// pre-resolved slots, reusable argument buffer) through the visit driver
/// the storage, incremental and merged engines share (eval/VisitDriver.h).
/// The DemandEvaluator, which interprets the grammar's rules directly, is
/// the independent reference the differential tests hold it to.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_EVAL_EVALUATOR_H
#define FNC2_EVAL_EVALUATOR_H

#include "eval/CompiledPlan.h"
#include "support/Metrics.h"
#include "tree/Tree.h"
#include "visitseq/VisitSequence.h"

namespace fnc2 {

/// Dynamic counters the benches report. Reset/merge/export semantics are
/// derived from schema() (support/Metrics.h), shared with the other
/// evaluators' stats structs.
struct EvalStats {
  uint64_t RulesEvaluated = 0;
  uint64_t VisitsPerformed = 0;
  uint64_t InstructionsExecuted = 0;

  /// Names and merge kinds of every counter above.
  static std::span<const CounterField<EvalStats>> schema();

  void reset() { statsReset(*this); }

  /// Accumulates another worker's counters (batch join).
  void merge(const EvalStats &O) { statsMerge(*this, O); }

  /// Publishes every counter into \p R under its "eval.*" schema name.
  void exportTo(MetricsRegistry &R) const { statsExport(*this, R); }
};

/// Evaluates an EvaluationPlan over trees of its grammar.
class Evaluator {
public:
  /// Borrows the compiled plan (the generator's bundle, shared by every
  /// engine and worker). \p CP must outlive the evaluator.
  explicit Evaluator(const CompiledPlan &CP);
  /// Kept only for perfbench/ until the next benchmark change: \p Compiled
  /// must have been compiled from \p Plan.
  Evaluator([[maybe_unused]] const EvaluationPlan &Plan,
            const CompiledPlan &Compiled)
      : Evaluator(Compiled) {
    assert(&Compiled.plan() == &Plan && "compiled plan from a different plan");
  }

  /// Provides the value of an inherited attribute of the start phylum;
  /// required before evaluate() when the start phylum has inherited
  /// attributes. Slot-indexed by attribute id: O(1).
  void setRootInherited(AttrId A, Value V);

  /// Evaluates every attribute instance of \p T. Returns false (with
  /// diagnostics) on missing sequences, missing semantic functions or
  /// unset root attributes. On success all node attribute slots are filled.
  bool evaluate(Tree &T, DiagnosticEngine &Diags);

  const EvalStats &stats() const { return Stats; }
  void resetStats() { Stats.reset(); }

  const CompiledPlan &compiled() const { return CP; }

private:
  /// The visit-driver policy (eval/VisitDriver.h).
  struct Walk;

  bool installRootInherited(TreeNode *Root, DiagnosticEngine &Diags);

  bool execCompiledRule(TreeNode *N, const CompiledRule &R,
                        DiagnosticEngine &Diags);

  const CompiledPlan &CP;
  EvalStats Stats;
  /// Root-inherited values indexed by AttrId (resolved to slots at compile
  /// time; see CompiledPlan::InhByPhylum).
  std::vector<Value> RootInhVals;
  std::vector<uint8_t> RootInhSet;
  /// Reusable argument buffer; semantic functions see a span into it.
  std::vector<Value> ArgBuf;
};

} // namespace fnc2

#endif // FNC2_EVAL_EVALUATOR_H
