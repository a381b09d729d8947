//===- eval/Evaluator.cpp -------------------------------------------------===//

#include "eval/Evaluator.h"

#include "eval/VisitDriver.h"
#include "support/Trace.h"

using namespace fnc2;

std::span<const CounterField<EvalStats>> EvalStats::schema() {
  static constexpr CounterField<EvalStats> Fields[] = {
      {"eval.rules_evaluated", &EvalStats::RulesEvaluated},
      {"eval.visits_performed", &EvalStats::VisitsPerformed},
      {"eval.instructions_executed", &EvalStats::InstructionsExecuted},
  };
  return Fields;
}

//===----------------------------------------------------------------------===//
// Evaluator
//===----------------------------------------------------------------------===//

Evaluator::Evaluator(const CompiledPlan &CP) : CP(CP) {
  RootInhVals.resize(CP.grammar().Attrs.size());
  RootInhSet.assign(CP.grammar().Attrs.size(), 0);
  ArgBuf.resize(CP.MaxRuleArgs);
}

void Evaluator::setRootInherited(AttrId A, Value V) {
  assert(A < RootInhVals.size() && "unknown attribute");
  RootInhVals[A] = std::move(V);
  RootInhSet[A] = 1;
}

bool Evaluator::installRootInherited(TreeNode *Root, DiagnosticEngine &Diags) {
  const AttributeGrammar &AG = CP.grammar();
  const PhylumId Start = AG.prod(Root->Prod).Lhs;
  for (const SlotAttr &IA : CP.InhByPhylum[Start]) {
    if (!RootInhSet[IA.Attr]) {
      Diags.error("inherited attribute '" + AG.attr(IA.Attr).Name +
                  "' of the start phylum was not provided");
      return false;
    }
    Root->Slots[IA.Slot] = RootInhVals[IA.Attr];
    Root->setSlotComputed(IA.Slot);
  }
  return true;
}

bool Evaluator::execCompiledRule(TreeNode *N, const CompiledRule &R,
                                 DiagnosticEngine &Diags) {
  if (!R.Fn) {
    const AttributeGrammar &AG = CP.grammar();
    const SemanticRule &SR = AG.rule(R.Orig);
    Diags.error("rule for '" + AG.occName(SR.Prod, SR.Target) +
                "' in operator '" + AG.prod(SR.Prod).Name +
                "' has no semantic function");
    return false;
  }

  const SlotRef *A = &CP.Args[R.FirstArg];
  Value *Buf = ArgBuf.data();
  for (unsigned I = 0; I != R.NumArgs; ++I) {
    const SlotRef &Ref = A[I];
    switch (Ref.Kind) {
    case SlotRef::K::Self:
      assert(N->slotComputed(Ref.Slot) && "read before definition");
      Buf[I] = N->Slots[Ref.Slot];
      break;
    case SlotRef::K::Child: {
      TreeNode *C = N->child(Ref.Child);
      assert(C->hasFrame() && C->slotComputed(Ref.Slot) &&
             "child read before definition");
      Buf[I] = C->Slots[Ref.Slot];
      break;
    }
    case SlotRef::K::Lexeme:
      Buf[I] = N->Lexeme;
      break;
    }
  }

  Value Result = (*R.Fn)(std::span<const Value>(Buf, R.NumArgs));

  const SlotRef &T = R.Target;
  if (T.Kind == SlotRef::K::Self) {
    N->Slots[T.Slot] = std::move(Result);
    N->setSlotComputed(T.Slot);
  } else {
    TreeNode *C = N->child(T.Child);
    CP.ensureFrame(C);
    C->Slots[T.Slot] = std::move(Result);
    C->setSlotComputed(T.Slot);
  }
  return true;
}

/// Tree-resident attributes: EVAL runs the rules in place, and nothing
/// happens at LEAVE.
struct Evaluator::Walk : TreeVisitPolicy {
  static constexpr const char *Span = "eval.visit";

  Walk(Evaluator &E, DiagnosticEngine &Diags)
      : TreeVisitPolicy(E.CP, Diags), E(E) {}

  void enter(auto &) { ++E.Stats.VisitsPerformed; }
  void step() { ++E.Stats.InstructionsExecuted; }
  bool eval(auto &F, const CompiledInstr &I) {
    const CompiledRule *R = &CP.Rules[I.A];
    for (uint32_t K = 0; K != I.B; ++K)
      if (!E.execCompiledRule(F.Node, R[K], Diags))
        return false;
    E.Stats.RulesEvaluated += I.B;
    FNC2_COUNT("eval.rules", I.B);
    return true;
  }

  Evaluator &E;
};

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

bool Evaluator::evaluate(Tree &T, DiagnosticEngine &Diags) {
  FNC2_SPAN("eval.tree");
  TreeNode *Root = T.root();
  if (!Root) {
    Diags.error("cannot evaluate an empty tree");
    return false;
  }
  T.resetAttributes();
  CP.ensureFrame(Root);
  Root->PartitionId = CP.plan().RootPartition;

  if (!installRootInherited(Root, Diags))
    return false;

  Walk W(*this, Diags);
  return VisitDriver<Walk>(CP, W).runNode(Root, CP.plan().RootPartition);
}
