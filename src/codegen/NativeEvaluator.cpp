//===- codegen/NativeEvaluator.cpp ----------------------------------------===//

#include "codegen/NativeEvaluator.h"

#include "support/Diagnostics.h"

using namespace fnc2;
using namespace fnc2::native;

NativeEvaluator::NativeEvaluator(const CompiledPlan &Compiled,
                                 std::shared_ptr<const NativeModule> Module)
    : CP(Compiled), Module(std::move(Module)) {
  const AttributeGrammar &AG = CP.grammar();
  RootInhVals.resize(AG.Attrs.size());
  RootInhSet.assign(AG.Attrs.size(), 0);
  ArgBuf.resize(CP.MaxRuleArgs);
}

void NativeEvaluator::setRootInherited(AttrId A, Value V) {
  assert(A < RootInhVals.size() && "unknown attribute");
  RootInhVals[A] = std::move(V);
  RootInhSet[A] = 1;
}

bool NativeEvaluator::installRootInherited(TreeNode *Root,
                                           DiagnosticEngine &Diags) {
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

bool NativeEvaluator::evaluate(Tree &T, DiagnosticEngine &Diags) {
  TreeNode *Root = T.root();
  if (!Root) {
    Diags.error("cannot evaluate an empty tree");
    return false;
  }
  // No resetAttributes() walk: the emitted code is unconditional — it
  // stores every slot the (exhaustive) plan defines before reading it and
  // sets every computed bit again, so after a successful run the tree
  // state is bit-identical to a fresh evaluation. It never consults
  // ComputedBits or SeqCache, and every interpreted engine resets the
  // tree itself before trusting either, so stale state is never observed.
  // On failure the attribution is unspecified, as with every engine.
  CP.ensureFrame(Root);
  Root->PartitionId = CP.plan().RootPartition;

  if (!installRootInherited(Root, Diags))
    return false;

  RunCtx Ctx;
  Ctx.Args = ArgBuf.data();
  Ctx.Fns = Module->Fns.data();
  Ctx.Consts = Module->Consts.data();

  const bool Ok = Module->run()(Root, &Ctx);
  Stats.RulesEvaluated += Ctx.RulesEvaluated;
  Stats.VisitsPerformed += Ctx.VisitsPerformed;
  Stats.InstructionsExecuted += Ctx.InstructionsExecuted;
  if (Ok)
    return true;

  // Reconstruct the interpreted engines' diagnostics from the failure
  // report. The only native failure is a missing visit sequence.
  if (Ctx.Fail == FailKind::NoSequence && Ctx.FailNode) {
    Diags.error(CP.missingSeqMessage(Ctx.FailNode->Prod,
                                     Ctx.FailNode->PartitionId));
  } else {
    Diags.error("native evaluation failed");
  }
  return false;
}
