//===- eval/DemandEvaluator.cpp -------------------------------------------===//

#include "eval/DemandEvaluator.h"

#include "support/Trace.h"

#include <algorithm>

using namespace fnc2;

namespace {

/// Makes sure a node's attribute frame exists (lazily sized from the
/// grammar).
void ensureNodeStorage(const AttributeGrammar &AG, TreeNode *N) {
  if (N->hasFrame())
    return;
  const Production &Pr = AG.prod(N->Prod);
  N->ensureFrame(static_cast<unsigned>(AG.phylum(Pr.Lhs).Attrs.size()),
                 static_cast<unsigned>(Pr.Locals.size()));
}

/// Reads an attribute value from tree-resident storage. \p N is the node
/// the occurrence's production applies to; the value has been forced, so
/// the site's frame exists and the slot is computed (asserted only).
const Value &readOcc(const AttributeGrammar &AG, TreeNode *N,
                     const AttrOcc &O) {
  if (O.isLexeme())
    return N->Lexeme;
  if (O.isLocal()) {
    const unsigned Slot = N->FrameAttrs + O.LocalIndex;
    assert(N->slotComputed(Slot) && "local read before definition");
    return N->Slots[Slot];
  }
  TreeNode *Site = O.Pos == 0 ? N : N->child(O.Pos - 1);
  const unsigned Idx = AG.attr(O.Attr).IndexInOwner;
  assert(Site->hasFrame() && "attribute read before storage was ensured");
  assert(Site->slotComputed(Idx) && "attribute read before definition");
  return Site->Slots[Idx];
}

/// Writes an attribute value into tree-resident storage.
void writeOcc(const AttributeGrammar &AG, TreeNode *N, const AttrOcc &O,
              Value V) {
  assert(!O.isLexeme() && "lexeme is read-only");
  if (O.isLocal()) {
    const unsigned Slot = N->FrameAttrs + O.LocalIndex;
    N->Slots[Slot] = std::move(V);
    N->setSlotComputed(Slot);
    return;
  }
  TreeNode *Site = O.Pos == 0 ? N : N->child(O.Pos - 1);
  ensureNodeStorage(AG, Site);
  const unsigned Idx = AG.attr(O.Attr).IndexInOwner;
  Site->Slots[Idx] = std::move(V);
  Site->setSlotComputed(Idx);
}

} // namespace

bool DemandEvaluator::runRule(TreeNode *N, RuleId R, DiagnosticEngine &Diags) {
  const SemanticRule &Rule = AG.rule(R);
  if (!Rule.Fn) {
    Diags.error("rule for '" + AG.occName(Rule.Prod, Rule.Target) +
                "' has no semantic function");
    return false;
  }
  // Force every argument before filling the shared buffer: forcing can
  // recurse into runRule, reading cannot.
  for (const AttrOcc &Arg : Rule.Args)
    if (!forceOcc(N, Arg, Diags))
      return false;
  Value *Buf = ArgBuf.data();
  const size_t NumArgs = Rule.Args.size();
  for (size_t I = 0; I != NumArgs; ++I)
    Buf[I] = readOcc(AG, N, Rule.Args[I]);
  writeOcc(AG, N, Rule.Target,
           Rule.Fn(std::span<const Value>(Buf, NumArgs)));
  ++Stats.RulesEvaluated;
  FNC2_COUNT("demand.rules", 1);
  return true;
}

bool DemandEvaluator::forceOcc(TreeNode *N, const AttrOcc &O,
                               DiagnosticEngine &Diags) {
  ++Stats.InstructionsExecuted; // scheduling overhead: one dispatch per access
  FNC2_COUNT("demand.forces", 1);
  if (O.isLexeme())
    return true;
  ensureNodeStorage(AG, N);
  if (O.isLocal()) {
    if (N->localComputed(O.LocalIndex))
      return true;
    RuleId R = AG.info(N->Prod).DefiningRule[AG.info(N->Prod).occId(O)];
    if (R == InvalidId) {
      Diags.error("local attribute without a defining rule");
      return false;
    }
    return runRule(N, R, Diags);
  }
  TreeNode *Site = O.Pos == 0 ? N : N->child(O.Pos - 1);
  return force(Site, O.Attr, Diags);
}

bool DemandEvaluator::force(TreeNode *N, AttrId A, DiagnosticEngine &Diags) {
  const Attribute &At = AG.attr(A);
  unsigned Idx = At.IndexInOwner;
  ensureNodeStorage(AG, N);
  if (N->attrComputed(Idx))
    return true;

  auto Key = std::make_pair(static_cast<const TreeNode *>(N), Idx);
  if (std::find(InProgress.begin(), InProgress.end(), Key) !=
      InProgress.end()) {
    Diags.error("circular attribute dependency at run time on attribute '" +
                At.Name + "'");
    return false;
  }
  InProgress.push_back(Key);
  bool Ok = false;

  if (At.isSynthesized()) {
    // Defined by a rule of this node's production.
    const ProductionInfo &PI = AG.info(N->Prod);
    RuleId R = PI.DefiningRule[PI.occId(AttrOcc::onSymbol(0, A))];
    if (R == InvalidId)
      Diags.error("synthesized attribute '" + At.Name +
                  "' has no defining rule in operator '" +
                  AG.prod(N->Prod).Name + "'");
    else
      Ok = runRule(N, R, Diags);
  } else if (N->Parent) {
    // Defined by a rule of the parent's production.
    TreeNode *Par = N->Parent;
    const ProductionInfo &PI = AG.info(Par->Prod);
    RuleId R =
        PI.DefiningRule[PI.occId(AttrOcc::onSymbol(N->IndexInParent + 1, A))];
    if (R == InvalidId)
      Diags.error("inherited attribute '" + At.Name +
                  "' has no defining rule in operator '" +
                  AG.prod(Par->Prod).Name + "'");
    else
      Ok = runRule(Par, R, Diags);
  } else {
    // Root: externally provided.
    for (const auto &[Attr, Val] : RootInh)
      if (Attr == A) {
        N->Slots[Idx] = Val;
        N->setSlotComputed(Idx);
        Ok = true;
      }
    if (!Ok)
      Diags.error("inherited attribute '" + At.Name +
                  "' of the root was not provided");
  }

  InProgress.pop_back();
  return Ok && N->attrComputed(Idx);
}

static bool forceSubtree(DemandEvaluator &E, const AttributeGrammar &AG,
                         TreeNode *N, DiagnosticEngine &Diags) {
  for (AttrId A : AG.phylum(AG.prod(N->Prod).Lhs).Attrs)
    if (!E.force(N, A, Diags))
      return false;
  for (auto &C : N->Children)
    if (!forceSubtree(E, AG, C.get(), Diags))
      return false;
  return true;
}

bool DemandEvaluator::evaluateAll(Tree &T, DiagnosticEngine &Diags) {
  FNC2_SPAN("demand.tree");
  if (!T.root()) {
    Diags.error("cannot evaluate an empty tree");
    return false;
  }
  T.resetAttributes();
  return forceSubtree(*this, AG, T.root(), Diags);
}
