//===- storage/StorageEvaluator.cpp ---------------------------------------===//

#include "storage/StorageEvaluator.h"

#include "eval/VisitDriver.h"
#include "support/Trace.h"

using namespace fnc2;

std::span<const CounterField<StorageStats>> StorageStats::schema() {
  static constexpr CounterField<StorageStats> Fields[] = {
      {"storage.peak_live_cells", &StorageStats::PeakLiveCells,
       MergeKind::Max},
      {"storage.tree_baseline_cells", &StorageStats::TreeBaselineCells},
      {"storage.stack_pushes", &StorageStats::StackPushes},
      {"storage.variable_writes", &StorageStats::VariableWrites},
      {"storage.tree_writes", &StorageStats::TreeWrites},
      {"storage.copies_skipped", &StorageStats::CopiesSkipped},
      {"storage.rules_evaluated", &StorageStats::RulesEvaluated},
  };
  return Fields;
}

//===----------------------------------------------------------------------===//
// CompiledStorage
//===----------------------------------------------------------------------===//

CompiledStorage::CompiledStorage(const CompiledPlan &CP,
                                 const StorageAssignment &SA) {
  const AttributeGrammar &AG = CP.grammar();

  // The Eval-ordered Rules copies share the ById entries' argument ranges,
  // so resolving each rule once (dense by id) fills the whole Args pool.
  Args.resize(CP.Args.size());
  for (const CompiledRule &C : CP.ById) {
    const SemanticRule &SR = AG.rule(C.Orig);
    for (uint16_t I = 0; I != C.NumArgs; ++I) {
      const AttrOcc &O = SR.Args[I];
      if (O.isLexeme())
        continue; // lexemes have no storage; the SlotRef kind short-circuits
      unsigned Id = O.isLocal() ? SA.Ids.idOfLocal(SR.Prod, O.LocalIndex)
                                : SA.Ids.idOfAttr(O.Attr);
      Args[C.FirstArg + I] = {SA.ClassOf[Id], SA.GroupOf[Id]};
    }
  }

  Rules.resize(CP.Rules.size());
  for (size_t I = 0; I != CP.Rules.size(); ++I) {
    const CompiledRule &C = CP.Rules[I];
    const SemanticRule &SR = AG.rule(C.Orig);
    const AttrOcc &T = SR.Target;
    unsigned Id = T.isLocal() ? SA.Ids.idOfLocal(SR.Prod, T.LocalIndex)
                              : SA.Ids.idOfAttr(T.Attr);
    Rules[I] = {SA.ClassOf[Id], SA.GroupOf[Id],
                /*IsCopy=*/bool(SA.CopyEliminated[C.Orig]),
                /*TargetDies=*/T.isLocal() || T.Pos != 0};
  }

  Attrs.resize(AG.Attrs.size());
  for (AttrId A = 0; A != AG.Attrs.size(); ++A) {
    const unsigned Id = SA.Ids.idOfAttr(A);
    Attrs[A] = {SA.ClassOf[Id], SA.GroupOf[Id]};
  }
  NumVarGroups = SA.NumVarGroups;
  NumStackGroups = SA.NumStackGroups;
}

//===----------------------------------------------------------------------===//
// StorageEvaluator
//===----------------------------------------------------------------------===//

StorageEvaluator::StorageEvaluator(const CompiledPlan &CP,
                                   const CompiledStorage &CS)
    : CP(CP), CS(CS) {
  RootInhVals.resize(CP.grammar().Attrs.size());
  RootInhSet.assign(CP.grammar().Attrs.size(), 0);
  ArgBuf.resize(CP.MaxRuleArgs);
}

void StorageEvaluator::setRootInherited(AttrId A, Value V) {
  assert(A < RootInhVals.size() && "unknown attribute");
  RootInhVals[A] = std::move(V);
  RootInhSet[A] = 1;
}

void StorageEvaluator::noteLiveCells() {
  uint64_t Live = VarsLive + TreeCellsLive;
  for (const StackGroup &G : Stacks)
    Live += G.Cells.size(); // zombies included: they still occupy space
  Stats.PeakLiveCells = std::max(Stats.PeakLiveCells, Live);
}

void StorageEvaluator::shrinkDeadSuffix(StackGroup &G) {
  while (!G.Cells.empty() && G.Dead.back()) {
    G.Cells.pop_back();
    G.Dead.pop_back();
  }
}

// Baseline: a tree-resident evaluator stores one cell per attribute (and
// local) instance. Accumulates across evaluate() calls like every other
// summing counter (it used to be zeroed per run, which under-reported the
// baseline — and inflated reductionFactor() — when one evaluator was
// reused over several trees). The same walk stamps the per-node cell index
// arrays.
void StorageEvaluator::countBaseline(TreeNode *Root) {
  WalkBuf.clear();
  appendLevelOrder(Root, WalkBuf);
  size_t TotalSlots = 0;
  for (TreeNode *N : WalkBuf) {
    const FrameShape &F = CP.frameOf(N->Prod);
    const size_t NumSlots = size_t(F.NumAttrs) + F.NumLocals;
    Stats.TreeBaselineCells += NumSlots;
    TotalSlots += NumSlots;
  }
  CellIdxArena.assign(TotalSlots, -1);
  int64_t *P = CellIdxArena.data();
  for (TreeNode *N : WalkBuf) {
    const FrameShape &F = CP.frameOf(N->Prod);
    N->CellIdx = P;
    P += size_t(F.NumAttrs) + F.NumLocals;
  }
}

bool StorageEvaluator::installRootInherited(TreeNode *Root,
                                            DiagnosticEngine &Diags) {
  const AttributeGrammar &AG = CP.grammar();
  const PhylumId Start = AG.prod(Root->Prod).Lhs;
  // Root installs never die: the write targets position 0, outside every
  // chunk.
  for (const SlotAttr &IA : CP.InhByPhylum[Start]) {
    if (!RootInhSet[IA.Attr]) {
      Diags.error("inherited attribute '" + AG.attr(IA.Attr).Name +
                  "' of the start phylum was not provided");
      return false;
    }
    SlotRef Ref;
    Ref.Slot = IA.Slot;
    writeSlot(Root, Ref, CS.Attrs[IA.Attr].Class, CS.Attrs[IA.Attr].Group,
              /*Dies=*/false, RootInhVals[IA.Attr]);
  }
  return true;
}

const Value *StorageEvaluator::readSlot(TreeNode *N, const SlotRef &Ref,
                                        const CompiledStorage::Ref &C) {
  if (Ref.Kind == SlotRef::K::Lexeme)
    return &N->Lexeme;
  switch (C.Class) {
  case StorageClass::Variable:
    assert(VarSet[C.Group] && "variable read before write");
    return &Vars[C.Group];
  case StorageClass::Stack: {
    TreeNode *Site = Ref.Kind == SlotRef::K::Self ? N : N->child(Ref.Child);
    int64_t Idx = Site->CellIdx[Ref.Slot];
    assert(Idx >= 0 && "read before definition");
    StackGroup &G = Stacks[C.Group];
    assert(static_cast<size_t>(Idx) < G.Cells.size() && !G.Dead[Idx] &&
           "stale stack cell");
    return &G.Cells[Idx];
  }
  case StorageClass::TreeCell: {
    TreeNode *Site = Ref.Kind == SlotRef::K::Self ? N : N->child(Ref.Child);
    assert(Site->hasFrame() && Site->slotComputed(Ref.Slot) &&
           "tree-cell read before definition");
    return &Site->Slots[Ref.Slot];
  }
  }
  return nullptr;
}

void StorageEvaluator::mirrorWrite(TreeNode *N, const SlotRef &Ref, Value V) {
  TreeNode *Site = Ref.Kind == SlotRef::K::Self ? N : N->child(Ref.Child);
  CP.ensureFrame(Site);
  Site->Slots[Ref.Slot] = std::move(V);
  Site->setSlotComputed(Ref.Slot);
}

void StorageEvaluator::writeSlot(TreeNode *N, const SlotRef &Ref,
                                 StorageClass Class, uint32_t Group,
                                 bool Dies, Value V) {
  if (MirrorToTree)
    mirrorWrite(N, Ref, V);
  switch (Class) {
  case StorageClass::Variable:
    if (!VarSet[Group]) {
      VarSet[Group] = 1;
      ++VarsLive;
    }
    Vars[Group] = std::move(V);
    ++Stats.VariableWrites;
    break;
  case StorageClass::Stack: {
    StackGroup &G = Stacks[Group];
    G.Cells.push_back(std::move(V));
    G.Dead.push_back(0);
    TreeNode *Site = Ref.Kind == SlotRef::K::Self ? N : N->child(Ref.Child);
    Site->CellIdx[Ref.Slot] = static_cast<int64_t>(G.Cells.size() - 1);
    // LHS-synthesized results outlive this chunk: the parent adopts their
    // cells when the VISIT returns. Everything else dies at our LEAVE.
    if (Dies)
      DeathBuf.push_back({Group, static_cast<unsigned>(G.Cells.size() - 1)});
    ++Stats.StackPushes;
    break;
  }
  case StorageClass::TreeCell:
    if (!MirrorToTree)
      mirrorWrite(N, Ref, std::move(V));
    ++Stats.TreeWrites;
    ++TreeCellsLive;
    break;
  }
  noteLiveCells();
}

bool StorageEvaluator::execCompiledRule(TreeNode *N, uint32_t RI,
                                        size_t DeathBase,
                                        DiagnosticEngine &Diags) {
  const CompiledRule &R = CP.Rules[RI];
  const CompiledStorage::RuleInfo &SR = CS.Rules[RI];

  if (!R.Fn) {
    const AttributeGrammar &AG = CP.grammar();
    const SemanticRule &Rule = AG.rule(R.Orig);
    Diags.error("rule for '" + AG.occName(Rule.Prod, Rule.Target) +
                "' has no semantic function");
    return false;
  }

  // Eliminated copies: the target shares the source's cell (stacks) or the
  // write is a no-op on the shared variable.
  if (SR.IsCopy) {
    ++Stats.CopiesSkipped;
    FNC2_COUNT("storage.copies_skipped", 1);
    const SlotRef &Src = CP.Args[R.FirstArg];
    if (SR.Class == StorageClass::Stack) {
      TreeNode *SrcSite =
          Src.Kind == SlotRef::K::Self ? N : N->child(Src.Child);
      int64_t Idx = SrcSite->CellIdx[Src.Slot];
      assert(Idx >= 0 && "eliminated copy reads an undefined source");
      // A synthesized result sharing a cell must keep that cell alive past
      // this chunk's LEAVE: cancel any death pending for it here (the
      // parent's adoption then extends the lifetime, exactly the paper's
      // delayed POP).
      if (!SR.TargetDies)
        for (size_t D = DeathBase; D != DeathBuf.size(); ++D)
          if (DeathBuf[D].Group == SR.Group &&
              DeathBuf[D].Index == static_cast<unsigned>(Idx)) {
            DeathBuf.erase(DeathBuf.begin() + static_cast<ptrdiff_t>(D));
            break;
          }
      const SlotRef &T = R.Target;
      TreeNode *TSite = T.Kind == SlotRef::K::Self ? N : N->child(T.Child);
      TSite->CellIdx[T.Slot] = Idx;
    }
    if (MirrorToTree)
      mirrorWrite(N, R.Target, *readSlot(N, Src, CS.Args[R.FirstArg]));
    ++Stats.RulesEvaluated;
    FNC2_COUNT("storage.rules", 1);
    return true;
  }

  Value *Buf = ArgBuf.data();
  for (unsigned I = 0; I != R.NumArgs; ++I)
    Buf[I] = *readSlot(N, CP.Args[R.FirstArg + I], CS.Args[R.FirstArg + I]);
  Value Result = (*R.Fn)(std::span<const Value>(Buf, R.NumArgs));
  writeSlot(N, R.Target, SR.Class, SR.Group, SR.TargetDies,
            std::move(Result));
  ++Stats.RulesEvaluated;
  FNC2_COUNT("storage.rules", 1);
  return true;
}

/// Stack-class cells created during a visit die at its LEAVE (the paper's
/// delayed POPs), except the ones holding synthesized results, which the
/// parent adopts when the visit returns.
struct StorageEvaluator::Walk : TreeVisitPolicy {
  struct Extra {
    /// The visit's pending deaths are DeathBuf[DeathBase..].
    size_t DeathBase;
    /// The watermarks of the son visit in progress are MarkBuf[MarkBase..].
    size_t MarkBase;
  };
  static constexpr const char *Span = "storage.visit";

  Walk(StorageEvaluator &E, DiagnosticEngine &Diags)
      : TreeVisitPolicy(E.CP, Diags), E(E) {}

  void enter(auto &F) { F.X.DeathBase = E.DeathBuf.size(); }
  bool eval(auto &F, const CompiledInstr &I) {
    for (uint32_t K = 0; K != I.B; ++K)
      if (!E.execCompiledRule(F.Node, I.A + K, F.X.DeathBase, Diags))
        return false;
    return true;
  }
  // Watermark every stack: cells surviving the son's visit belong to its
  // returned synthesized attributes and die at *this* visit's LEAVE.
  bool descend(auto &F, const CompiledInstr &, TreeNode *) {
    F.X.MarkBase = E.MarkBuf.size();
    for (const StackGroup &G : E.Stacks)
      E.MarkBuf.push_back(G.Cells.size());
    return true;
  }
  void returned(auto &F) {
    for (size_t S = 0; S != E.Stacks.size(); ++S)
      for (size_t Cell = E.MarkBuf[F.X.MarkBase + S];
           Cell < E.Stacks[S].Cells.size(); ++Cell)
        if (!E.Stacks[S].Dead[Cell])
          E.DeathBuf.push_back(
              {static_cast<unsigned>(S), static_cast<unsigned>(Cell)});
    E.MarkBuf.resize(F.X.MarkBase);
  }
  void leave(auto &F) {
    for (size_t D = F.X.DeathBase; D != E.DeathBuf.size(); ++D) {
      StackGroup &G = E.Stacks[E.DeathBuf[D].Group];
      if (E.DeathBuf[D].Index < G.Cells.size())
        G.Dead[E.DeathBuf[D].Index] = 1;
    }
    E.DeathBuf.resize(F.X.DeathBase);
    for (StackGroup &G : E.Stacks)
      E.shrinkDeadSuffix(G);
  }

  StorageEvaluator &E;
};

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

bool StorageEvaluator::evaluate(Tree &T, DiagnosticEngine &Diags) {
  FNC2_SPAN("storage.tree");
  TreeNode *Root = T.root();
  if (!Root) {
    Diags.error("cannot evaluate an empty tree");
    return false;
  }
  T.resetAttributes();
  Vars.assign(CS.NumVarGroups, Value());
  VarSet.assign(CS.NumVarGroups, 0);
  Stacks.assign(CS.NumStackGroups, StackGroup());
  TreeCellsLive = 0;
  VarsLive = 0;
  DeathBuf.clear();
  MarkBuf.clear();

  countBaseline(Root);

  Root->PartitionId = CP.plan().RootPartition;
  CP.ensureFrame(Root);

  if (!installRootInherited(Root, Diags))
    return false;

  Walk W(*this, Diags);
  return VisitDriver<Walk>(CP, W).runNode(Root, CP.plan().RootPartition);
}
