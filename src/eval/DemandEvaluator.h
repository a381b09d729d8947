//===- eval/DemandEvaluator.h - Dynamic-scheduling baseline -----*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A demand-driven (dynamically scheduled) evaluator: the design FNC-2
/// explicitly ruled out for its generated evaluators (paper section 2.1.1:
/// "the requirement to generate efficient evaluators ruled out methods based
/// on dynamic scheduling"). It memoizes attribute instances and recursively
/// forces dependencies at run time, paying scheduling overhead per access.
/// The ablation bench compares it against the visit-sequence interpreter.
/// It also serves as the development-mode evaluator usable right after the
/// SNC test, before any total order exists.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_EVAL_DEMANDEVALUATOR_H
#define FNC2_EVAL_DEMANDEVALUATOR_H

#include "eval/BatchDriver.h"
#include "eval/Evaluator.h"
#include "tree/Tree.h"

#include <algorithm>

namespace fnc2 {

/// Evaluates attributes on demand with memoization and run-time cycle
/// detection (so it handles any non-circular AG, even outside SNC).
class DemandEvaluator {
public:
  explicit DemandEvaluator(const AttributeGrammar &AG) : AG(AG) {
    size_t MaxArgs = 0;
    for (const SemanticRule &R : AG.Rules)
      MaxArgs = std::max(MaxArgs, R.Args.size());
    ArgBuf.resize(MaxArgs);
  }

  void setRootInherited(AttrId A, Value V) { RootInh.set(A, std::move(V)); }

  /// Forces every attribute instance of \p T. Returns false on run-time
  /// circularity, missing rules or missing root attributes.
  bool evaluateAll(Tree &T, DiagnosticEngine &Diags);

  /// Forces a single attribute instance; the entry point for sparse
  /// (non-exhaustive) queries.
  bool force(TreeNode *N, AttrId A, DiagnosticEngine &Diags);

  const EvalStats &stats() const { return Stats; }
  void resetStats() { Stats.reset(); }

private:
  bool forceOcc(TreeNode *N, const AttrOcc &O, DiagnosticEngine &Diags);
  bool runRule(TreeNode *N, RuleId R, DiagnosticEngine &Diags);

  const AttributeGrammar &AG;
  EvalStats Stats;
  RootInheritedList RootInh;
  /// In-progress markers for cycle detection: (node, attr index) pairs.
  std::vector<std::pair<const TreeNode *, unsigned>> InProgress;
  /// Reusable argument buffer (filled only after all forces complete, so
  /// nested rule evaluations never clobber it).
  std::vector<Value> ArgBuf;
};

} // namespace fnc2

#endif // FNC2_EVAL_DEMANDEVALUATOR_H
