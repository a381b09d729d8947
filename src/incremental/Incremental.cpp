//===- incremental/Incremental.cpp ----------------------------------------===//

#include "incremental/Incremental.h"

#include "eval/VisitDriver.h"
#include "support/Trace.h"

using namespace fnc2;

std::span<const CounterField<IncrementalStats>> IncrementalStats::schema() {
  static constexpr CounterField<IncrementalStats> Fields[] = {
      {"inc.rules_reevaluated", &IncrementalStats::RulesReevaluated},
      {"inc.rules_skipped", &IncrementalStats::RulesSkipped},
      {"inc.visits_performed", &IncrementalStats::VisitsPerformed},
      {"inc.visits_skipped", &IncrementalStats::VisitsSkipped},
      {"inc.values_unchanged", &IncrementalStats::ValuesUnchanged},
  };
  return Fields;
}

void IncrementalEvaluator::clearEdits() {
  Dirty.clear();
  EditSites.clear();
  LexemeChanged.clear();
}

void IncrementalEvaluator::clearMemo() {
  Changed.clear();
  WriteClock = 0;
  LastWrite.clear();
  RevisitStamp.clear();
}

bool IncrementalEvaluator::initial(Tree &T, DiagnosticEngine &Diags) {
  FNC2_SPAN("inc.initial");
  clearEdits();
  clearMemo();
  Failed = !Exhaustive.evaluate(T, Diags);
  return !Failed;
}

void IncrementalEvaluator::resume() {
  Failed = false;
  clearEdits();
  clearMemo();
}

std::unique_ptr<TreeNode>
IncrementalEvaluator::replaceSubtree(Tree &T, TreeNode *Old,
                                     std::unique_ptr<TreeNode> New) {
  New->PartitionId = Old->PartitionId; // same phylum, same context protocol
  TreeNode *NewRaw = New.get();
  std::unique_ptr<TreeNode> Detached = T.replaceSubtree(Old, std::move(New));
  EditSites.push_back(NewRaw);
  for (const TreeNode *N = NewRaw; N; N = N->Parent)
    Dirty.insert(N);
  return Detached;
}

void IncrementalEvaluator::changeLeafValue(Tree &T, TreeNode *N,
                                           Value NewLexeme) {
  (void)T;
  assert(CP.grammar().prod(N->Prod).HasLexeme && "node has no lexeme slot");
  N->Lexeme = std::move(NewLexeme);
  LexemeChanged.insert(N);
  EditSites.push_back(N);
  for (const TreeNode *A = N; A; A = A->Parent)
    Dirty.insert(A);
}

TreeNode *IncrementalEvaluator::swapProduction(Tree &T, TreeNode *Old,
                                               ProdId NewProd) {
  const AttributeGrammar &AG = CP.grammar();
  assert(AG.prod(Old->Prod).Lhs == AG.prod(NewProd).Lhs &&
         AG.prod(Old->Prod).Rhs == AG.prod(NewProd).Rhs &&
         "production swap changes the signature");
  std::vector<std::unique_ptr<TreeNode>> Kids = std::move(Old->Children);
  Old->Children.clear();
  std::unique_ptr<TreeNode> New = T.make(NewProd, std::move(Kids), Old->Lexeme);
  New->PartitionId = Old->PartitionId; // same phylum, same context protocol
  TreeNode *NewRaw = New.get();
  T.replaceSubtree(Old, std::move(New));

  // The kept children carry full attribution, but the new production's
  // rules may define their inherited occurrences differently; with the
  // computed bits still set those rules would be skipped as "target
  // computed, arguments unchanged". Clearing the bits forces the rules to
  // run; equality cutoffs then bound the propagation into the children.
  for (const std::unique_ptr<TreeNode> &C : NewRaw->Children) {
    if (!C->hasFrame())
      continue;
    for (const SlotAttr &IA : CP.InhByPhylum[AG.prod(C->Prod).Lhs])
      C->clearSlotComputed(IA.Slot);
  }

  EditSites.push_back(NewRaw);
  for (const TreeNode *A = NewRaw; A; A = A->Parent)
    Dirty.insert(A);
  return NewRaw;
}

bool IncrementalEvaluator::isChanged(const TreeNode *Site,
                                     unsigned Slot) const {
  auto It = Changed.find(Site);
  return It != Changed.end() && Slot < It->second.size() && It->second[Slot];
}

void IncrementalEvaluator::markChanged(const TreeNode *Site, unsigned Slot,
                                       unsigned Count) {
  auto &Marks = Changed[Site];
  if (Marks.size() < Count)
    Marks.assign(Count, 0);
  Marks[Slot] = 1;
}

bool IncrementalEvaluator::argChanged(TreeNode *N, const SlotRef &Ref) const {
  // A lexeme reference always reads the node the rule executes at; it is
  // "changed" exactly when that node's lexeme was edited in place.
  if (Ref.Kind == SlotRef::K::Lexeme)
    return LexemeChanged.count(N) != 0;
  const TreeNode *Site =
      Ref.Kind == SlotRef::K::Self ? N : N->child(Ref.Child);
  return isChanged(Site, Ref.Slot);
}

bool IncrementalEvaluator::execEvalIncremental(TreeNode *N,
                                               uint32_t FirstRule,
                                               uint32_t NumRules,
                                               DiagnosticEngine &Diags) {
  for (uint32_t K = 0; K != NumRules; ++K) {
    const CompiledRule &R = CP.Rules[FirstRule + K];
    const SlotRef &T = R.Target;
    TreeNode *Site = T.Kind == SlotRef::K::Self ? N : N->child(T.Child);
    CP.ensureFrame(Site);

    // The target's slot exists, so ensureFrame allocated a frame.
    bool TargetComputed = Site->slotComputed(T.Slot);

    // Cutoff: nothing relevant changed and the old value exists.
    bool AnyArgChanged = false;
    for (unsigned I = 0; I != R.NumArgs; ++I)
      AnyArgChanged |= argChanged(N, CP.Args[R.FirstArg + I]);
    if (TargetComputed && !AnyArgChanged) {
      ++Stats.RulesSkipped;
      FNC2_COUNT("inc.rules_skipped", 1);
      continue;
    }

    if (!R.Fn) {
      const AttributeGrammar &AG = CP.grammar();
      const SemanticRule &Rule = AG.rule(R.Orig);
      Diags.error("rule for '" + AG.occName(Rule.Prod, Rule.Target) +
                  "' has no semantic function");
      return false;
    }
    Value *Buf = ArgBuf.data();
    for (unsigned I = 0; I != R.NumArgs; ++I) {
      const SlotRef &Ref = CP.Args[R.FirstArg + I];
      switch (Ref.Kind) {
      case SlotRef::K::Self:
        Buf[I] = N->Slots[Ref.Slot];
        break;
      case SlotRef::K::Child:
        Buf[I] = N->child(Ref.Child)->Slots[Ref.Slot];
        break;
      case SlotRef::K::Lexeme:
        Buf[I] = N->Lexeme;
        break;
      }
    }
    Value NewVal = (*R.Fn)(std::span<const Value>(Buf, R.NumArgs));
    ++Stats.RulesReevaluated;
    FNC2_COUNT("inc.rules_reevaluated", 1);

    if (TargetComputed && valueEqual(Site->Slots[T.Slot], NewVal)) {
      ++Stats.ValuesUnchanged; // status: unchanged — propagation stops here
      FNC2_COUNT("inc.values_unchanged", 1);
      continue;
    }
    const FrameShape &F = CP.frameOf(Site->Prod);
    markChanged(Site, T.Slot, unsigned(F.NumAttrs) + F.NumLocals);
    LastWrite[Site] = ++WriteClock;
    Site->Slots[T.Slot] = std::move(NewVal);
    Site->setSlotComputed(T.Slot);
  }
  return true;
}

/// Semantic control over the exhaustive walk: EVAL skips rules whose
/// arguments did not change, VISIT descends only where something below can
/// differ, and LEAVE stamps the visit for the revisit memo.
struct IncrementalEvaluator::Walk : TreeVisitPolicy {
  static constexpr const char *Span = "inc.visit";

  Walk(IncrementalEvaluator &E, DiagnosticEngine &Diags)
      : TreeVisitPolicy(E.CP, Diags), E(E) {}

  void enter(auto &) { ++E.Stats.VisitsPerformed; }
  bool eval(auto &F, const CompiledInstr &I) {
    return E.execEvalIncremental(F.Node, I.A, I.B, Diags);
  }
  bool descend(auto &, const CompiledInstr &I, TreeNode *Child) {
    // Descend only when something can differ below: an edit in the
    // subtree, a not-yet-evaluated (fresh) node, or a changed inherited
    // attribute of the son.
    const bool Fresh = !Child->hasFrame() || Child->FrameAttrs == 0;
    bool MustDescend = E.subtreeDirty(Child) || Fresh;
    if (!MustDescend) {
      const PhylumId Ph = E.CP.grammar().prod(Child->Prod).Lhs;
      for (const SlotAttr &IA : CP.InhByPhylum[Ph])
        if (E.isChanged(Child, IA.Slot)) {
          MustDescend = true;
          break;
        }
    }
    // Revisit memo: this exact visit already ran this update and no EVAL
    // wrote into the son since (its inherited context is bit-identical),
    // so the descent would recompute everything to the same values. The
    // dirty marks and changed marks that triggered MustDescend persist
    // for the whole update; this is what keeps the start-anywhere climb
    // from redoing the edit region once per ancestor level.
    if (MustDescend && !Fresh) {
      auto It = E.RevisitStamp.find(Child);
      if (It != E.RevisitStamp.end() && I.VisitNo <= It->second.size()) {
        uint64_t Stamp = It->second[I.VisitNo - 1];
        auto LW = E.LastWrite.find(Child);
        uint64_t Last = LW == E.LastWrite.end() ? 0 : LW->second;
        if (Stamp != 0 && Last < Stamp)
          MustDescend = false;
      }
    }
    if (!MustDescend) {
      ++E.Stats.VisitsSkipped;
      FNC2_COUNT("inc.visits_skipped", 1);
    }
    return MustDescend;
  }
  void leave(auto &F) {
    auto &Stamps = E.RevisitStamp[F.Node];
    if (Stamps.size() < F.Seq->NumVisits)
      Stamps.resize(F.Seq->NumVisits, 0);
    Stamps[F.VisitNo - 1] = E.WriteClock + 1; // +1: 0 is "never ran"
  }

  IncrementalEvaluator &E;
};

bool IncrementalEvaluator::update(Tree &T, DiagnosticEngine &Diags,
                                  UpdateStrategy Strategy) {
  if (Failed)
    return initial(T, Diags);
  FNC2_SPAN("inc.update");
  const AttributeGrammar &AG = CP.grammar();
  clearMemo();
  bool Ok = true;
  // Re-runs every visit of a node under its current partition, with the
  // cutoffs.
  auto Revisit = [&](TreeNode *N) {
    Walk W(*this, Diags);
    return VisitDriver<Walk>(CP, W).runNode(N, N->PartitionId);
  };

  if (Strategy == UpdateStrategy::FromRoot || EditSites.empty()) {
    Ok = Revisit(T.root());
  } else {
    // Start-anywhere: begin at each edit's father and climb while the
    // node's synthesized results keep changing.
    for (TreeNode *Edit : EditSites) {
      TreeNode *N = Edit->Parent ? Edit->Parent : Edit;
      while (true) {
        if (!Revisit(N)) {
          Ok = false;
          break;
        }
        // Did any synthesized attribute of N change? If not, the context
        // cannot observe the edit: stop climbing.
        bool SynChanged = false;
        for (const SlotAttr &SA : CP.SynByPhylum[AG.prod(N->Prod).Lhs])
          if (isChanged(N, SA.Slot))
            SynChanged = true;
        if (!SynChanged || !N->Parent)
          break;
        N = N->Parent;
      }
      if (!Ok)
        break;
    }
  }

  Failed = !Ok;
  if (Ok)
    clearEdits();
  return Ok;
}
