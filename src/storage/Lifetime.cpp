//===- storage/Lifetime.cpp -----------------------------------------------===//

#include "storage/Lifetime.h"

#include "support/BitMatrix.h"

#include <algorithm>
#include <map>

using namespace fnc2;

//===----------------------------------------------------------------------===//
// StorageIdMap
//===----------------------------------------------------------------------===//

StorageIdMap::StorageIdMap(const AttributeGrammar &AG) {
  FirstLocal = static_cast<unsigned>(AG.Attrs.size());
  LocalBase.resize(AG.numProds());
  unsigned Next = FirstLocal;
  for (ProdId P = 0; P != AG.numProds(); ++P) {
    LocalBase[P] = Next;
    Next += static_cast<unsigned>(AG.prod(P).Locals.size());
  }
  NumIds = Next;
}

unsigned StorageIdMap::idOfOcc(const AttributeGrammar &AG, ProdId P,
                               const AttrOcc &O) const {
  (void)AG;
  assert(!O.isLexeme() && "lexemes are not stored");
  if (O.isLocal())
    return idOfLocal(P, O.LocalIndex);
  return idOfAttr(O.Attr);
}

std::string StorageIdMap::name(const AttributeGrammar &AG, unsigned Id) const {
  if (Id < FirstLocal) {
    const Attribute &A = AG.attr(Id);
    return AG.phylum(A.Owner).Name + "." + A.Name;
  }
  for (ProdId P = 0; P != AG.numProds(); ++P) {
    unsigned NumLocals = static_cast<unsigned>(AG.prod(P).Locals.size());
    if (Id >= LocalBase[P] && Id < LocalBase[P] + NumLocals)
      return AG.prod(P).Name + "::" + AG.prod(P).Locals[Id - LocalBase[P]].Name;
  }
  return "<storage " + std::to_string(Id) + ">";
}

//===----------------------------------------------------------------------===//
// Protocol indexing: one entry per (phylum, partition) pair
//===----------------------------------------------------------------------===//

namespace {

/// Flattens (phylum, partition index) pairs to dense protocol ids and holds
/// the per-protocol, per-visit summaries of the grammar of visits as bit
/// rows, one row per (protocol, visit number).
class VisitGrammar {
public:
  VisitGrammar(const AttributeGrammar &AG, const EvaluationPlan &Plan,
               const StorageIdMap &Ids) {
    Base.resize(AG.numPhyla());
    RowBase.push_back(0);
    for (PhylumId X = 0; X != AG.numPhyla(); ++X) {
      Base[X] = static_cast<unsigned>(RowBase.size() - 1);
      for (const TotallyOrderedPartition &Part : Plan.Partitions[X])
        RowBase.push_back(RowBase.back() + Part.numVisits() + 1);
      if (Plan.Partitions[X].empty())
        RowBase.push_back(RowBase.back() + 1);
    }
    computeSummaries(AG, Plan, Ids);
  }

  unsigned protocolOf(PhylumId X, unsigned Part) const {
    return Base[X] + Part;
  }

  /// True iff flat id \p Id may be (re)defined during visit \p V of the
  /// given protocol, including transitively in the visited subtree.
  bool canDefine(unsigned Proto, unsigned V, unsigned Id) const {
    return CanDefine.test(rowOf(Proto, V), Id);
  }

  /// True iff a node evaluating under the protocol reads its own inherited
  /// attribute \p A during visit \p V.
  bool usesOwnInh(unsigned Proto, unsigned V, AttrId A) const {
    return UsesOwnInh.test(rowOf(Proto, V), A);
  }

private:
  void computeSummaries(const AttributeGrammar &AG, const EvaluationPlan &Plan,
                        const StorageIdMap &Ids);

  unsigned rowOf(unsigned Proto, unsigned V) const {
    assert(RowBase[Proto] + V < RowBase[Proto + 1] && "visit out of range");
    return RowBase[Proto] + V;
  }

  std::vector<unsigned> Base;
  /// Protocol P owns rows [RowBase[P], RowBase[P + 1]), one per visit
  /// number of its partition, plus row 0 for instructions before BEGIN 1.
  std::vector<unsigned> RowBase;
  BitMatrix CanDefine;  ///< Columns: flat storage ids.
  BitMatrix UsesOwnInh; ///< Columns: AttrIds.
};

} // namespace

void VisitGrammar::computeSummaries(const AttributeGrammar &AG,
                                    const EvaluationPlan &Plan,
                                    const StorageIdMap &Ids) {
  const unsigned NumRows = RowBase.back();
  CanDefine = BitMatrix(NumRows, Ids.numIds());
  UsesOwnInh = BitMatrix(NumRows, static_cast<unsigned>(AG.Attrs.size()));

  // Seed each row with the EVAL targets and LHS reads of its own visit
  // chunks, and index, per child row, the parent rows whose VISITs OR it in.
  std::vector<std::vector<unsigned>> VisitedBy(NumRows);
  for (const VisitSequence &Seq : Plan.Seqs) {
    const Production &Pr = AG.prod(Seq.Prod);
    unsigned Proto = protocolOf(Pr.Lhs, Seq.LhsPartition);
    unsigned Row = rowOf(Proto, 0);
    for (const VisitInstr &I : Seq.Instrs) {
      switch (I.Kind) {
      case VisitInstr::Op::Begin:
        Row = rowOf(Proto, I.VisitNo);
        break;
      case VisitInstr::Op::Eval:
        for (RuleId R : I.Rules) {
          const SemanticRule &Rule = AG.rule(R);
          CanDefine.set(Row, Ids.idOfOcc(AG, Seq.Prod, Rule.Target));
          for (const AttrOcc &Arg : Rule.Args)
            if (Arg.isOnSymbol() && Arg.Pos == 0)
              UsesOwnInh.set(Row, Arg.Attr);
        }
        break;
      case VisitInstr::Op::Visit:
        VisitedBy[rowOf(protocolOf(Pr.Rhs[I.Child], I.ChildPartition),
                        I.VisitNo)]
            .push_back(Row);
        break;
      case VisitInstr::Op::Leave:
        break;
      }
    }
  }

  // Transitive definition summaries: least fixpoint by worklist. A row is
  // pushed to its visitors again only when one of its bits changed.
  std::vector<unsigned> Work(NumRows);
  std::vector<bool> Queued(NumRows, true);
  for (unsigned Row = 0; Row != NumRows; ++Row)
    Work[Row] = Row;
  while (!Work.empty()) {
    unsigned Child = Work.back();
    Work.pop_back();
    Queued[Child] = false;
    for (unsigned Parent : VisitedBy[Child])
      if (CanDefine.orRow(Parent, CanDefine, Child) && !Queued[Parent]) {
        Queued[Parent] = true;
        Work.push_back(Parent);
      }
  }
}

//===----------------------------------------------------------------------===//
// Interval computation
//===----------------------------------------------------------------------===//

static std::vector<LifetimeInterval>
computeIntervals(const AttributeGrammar &AG, const EvaluationPlan &Plan,
                 const StorageIdMap &Ids, const VisitGrammar &VG) {
  std::vector<LifetimeInterval> Out;

  for (unsigned SeqIdx = 0; SeqIdx != Plan.Seqs.size(); ++SeqIdx) {
    const VisitSequence &Seq = Plan.Seqs[SeqIdx];
    const Production &Pr = AG.prod(Seq.Prod);
    unsigned NumInstrs = static_cast<unsigned>(Seq.Instrs.size());

    auto leaveBetween = [&](unsigned From, unsigned To) {
      for (unsigned P = From + 1; P < To; ++P)
        if (Seq.Instrs[P].Kind == VisitInstr::Op::Leave)
          return true;
      return false;
    };
    auto leaveOfChunk = [&](unsigned Pos) {
      for (unsigned P = Pos; P != NumInstrs; ++P)
        if (Seq.Instrs[P].Kind == VisitInstr::Op::Leave)
          return P;
      return NumInstrs - 1;
    };
    auto lastUseOf = [&](unsigned Pos, unsigned Child, AttrId A) {
      // Last EVAL whose arguments reference occurrence (Child, A).
      unsigned Last = Pos;
      for (unsigned P = Pos + 1; P != NumInstrs; ++P) {
        if (Seq.Instrs[P].Kind != VisitInstr::Op::Eval)
          continue;
        for (RuleId R : Seq.Instrs[P].Rules)
          for (const AttrOcc &Arg : AG.rule(R).Args)
            if (Arg.isOnSymbol() && Arg.Pos == Child && Arg.Attr == A)
              Last = P;
      }
      return Last;
    };
    auto lastLocalUse = [&](unsigned Pos, unsigned LocalIdx) {
      unsigned Last = Pos;
      for (unsigned P = Pos + 1; P != NumInstrs; ++P) {
        if (Seq.Instrs[P].Kind != VisitInstr::Op::Eval)
          continue;
        for (RuleId R : Seq.Instrs[P].Rules)
          for (const AttrOcc &Arg : AG.rule(R).Args)
            if (Arg.isLocal() && Arg.LocalIndex == LocalIdx)
              Last = P;
      }
      return Last;
    };

    for (unsigned Pos = 0; Pos != NumInstrs; ++Pos) {
      const VisitInstr &I = Seq.Instrs[Pos];
      if (I.Kind == VisitInstr::Op::Eval) {
        for (RuleId R : I.Rules) {
          const AttrOcc &T = AG.rule(R).Target;
          LifetimeInterval LI;
          LI.SeqIdx = SeqIdx;
          LI.DefPos = Pos;
          LI.DefRule = R;
          if (T.isLocal()) {
            LI.FlatId = Ids.idOfLocal(Seq.Prod, T.LocalIndex);
            LI.EndPos = lastLocalUse(Pos, T.LocalIndex);
          } else if (T.Pos == 0) {
            // LHS synthesized: live until this visit's LEAVE (the parent's
            // side of the lifetime is tracked at the VISIT that returns it).
            LI.FlatId = Ids.idOfAttr(T.Attr);
            LI.EndPos = leaveOfChunk(Pos);
          } else {
            // Child inherited: live until the last visit of that child that
            // reads it.
            LI.FlatId = Ids.idOfAttr(T.Attr);
            unsigned ChildProto = VG.protocolOf(Pr.Rhs[T.Pos - 1],
                                                Seq.ChildPartition[T.Pos - 1]);
            unsigned Last = Pos;
            for (unsigned P = Pos + 1; P != NumInstrs; ++P) {
              const VisitInstr &VI = Seq.Instrs[P];
              if (VI.Kind == VisitInstr::Op::Visit &&
                  VI.Child == T.Pos - 1 &&
                  VG.usesOwnInh(ChildProto, VI.VisitNo, T.Attr))
                Last = P;
            }
            LI.EndPos = Last;
          }
          LI.CrossesVisit = leaveBetween(LI.DefPos, LI.EndPos);
          Out.push_back(LI);
        }
      } else if (I.Kind == VisitInstr::Op::Visit) {
        // The visit returns the synthesized attributes of the son's block;
        // their parent-side lifetime runs to the last use here.
        PhylumId Child = Pr.Rhs[I.Child];
        const TotallyOrderedPartition &Part =
            Plan.Partitions[Child][I.ChildPartition];
        for (AttrId A : AG.phylum(Child).Attrs) {
          const Attribute &At = AG.attr(A);
          if (!At.isSynthesized() ||
              Part.visitOf(At.IndexInOwner) != I.VisitNo)
            continue;
          LifetimeInterval LI;
          LI.SeqIdx = SeqIdx;
          LI.FlatId = Ids.idOfAttr(A);
          LI.DefPos = Pos;
          LI.DefRule = InvalidId;
          LI.EndPos = lastUseOf(Pos, I.Child + 1, A);
          LI.CrossesVisit = leaveBetween(LI.DefPos, LI.EndPos);
          Out.push_back(LI);
        }
      }
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Classification and grouping
//===----------------------------------------------------------------------===//

namespace {

/// Union-find over flat storage ids.
class Groups {
public:
  explicit Groups(unsigned N) : Parent(N) {
    for (unsigned I = 0; I != N; ++I)
      Parent[I] = I;
  }
  unsigned find(unsigned X) {
    while (Parent[X] != X)
      X = Parent[X] = Parent[Parent[X]];
    return X;
  }
  void merge(unsigned A, unsigned B) { Parent[find(A)] = find(B); }

private:
  std::vector<unsigned> Parent;
};

} // namespace

/// True iff some instruction in [From, To] of \p Seq can (re)define \p Id:
/// either an EVAL targeting another occurrence of the same attribute (rules
/// batched into the defining EVAL count too, hence the rule-based skip) or
/// a VISIT into a subtree that may define it. The VISIT at \p From itself is
/// exempt: defs inside it that precede the instance's creation do not
/// overlap, and ones after it are caught by the child-side interval.
static bool redefinedWithin(const AttributeGrammar &AG,
                            const EvaluationPlan &Plan,
                            const StorageIdMap &Ids, const VisitGrammar &VG,
                            const VisitSequence &Seq, unsigned From,
                            unsigned To, unsigned Id, RuleId SkipRule) {
  (void)Plan;
  const Production &Pr = AG.prod(Seq.Prod);
  for (unsigned P = From; P <= To; ++P) {
    const VisitInstr &I = Seq.Instrs[P];
    if (I.Kind == VisitInstr::Op::Eval) {
      for (RuleId R : I.Rules) {
        if (R == SkipRule)
          continue;
        if (Ids.idOfOcc(AG, Seq.Prod, AG.rule(R).Target) == Id)
          return true;
      }
    } else if (I.Kind == VisitInstr::Op::Visit && P != From) {
      unsigned ChildProto =
          VG.protocolOf(Pr.Rhs[I.Child], I.ChildPartition);
      if (VG.canDefine(ChildProto, I.VisitNo, Id))
        return true;
    }
  }
  return false;
}

/// Checks whether variables \p A and \p B can share one global variable:
/// within every lifetime interval of one, the other may only be defined by
/// a copy rule whose source is the first (then the write is a no-op on the
/// shared cell), and never inside a visited subtree.
static bool varsCompatible(const AttributeGrammar &AG,
                           const EvaluationPlan &Plan, const StorageIdMap &Ids,
                           const VisitGrammar &VG,
                           const std::vector<LifetimeInterval> &Intervals,
                           unsigned A, unsigned B) {
  auto checkDirection = [&](unsigned Live, unsigned Defined) {
    for (const LifetimeInterval &LI : Intervals) {
      if (LI.FlatId != Live)
        continue;
      const VisitSequence &Seq = Plan.Seqs[LI.SeqIdx];
      const Production &Pr = AG.prod(Seq.Prod);
      for (unsigned P = LI.DefPos; P <= LI.EndPos; ++P) {
        const VisitInstr &I = Seq.Instrs[P];
        if (I.Kind == VisitInstr::Op::Visit && P == LI.DefPos)
          continue; // defs preceding the instance's creation do not overlap
        if (I.Kind == VisitInstr::Op::Eval) {
          for (RuleId R : I.Rules) {
            const SemanticRule &Rule = AG.rule(R);
            if (Ids.idOfOcc(AG, Seq.Prod, Rule.Target) != Defined)
              continue;
            bool CopyFromLive =
                Rule.IsCopy && Rule.Args.size() == 1 &&
                !Rule.Args[0].isLexeme() &&
                Ids.idOfOcc(AG, Seq.Prod, Rule.Args[0]) == Live;
            if (!CopyFromLive)
              return false;
          }
        } else if (I.Kind == VisitInstr::Op::Visit) {
          unsigned ChildProto =
              VG.protocolOf(Pr.Rhs[I.Child], I.ChildPartition);
          if (VG.canDefine(ChildProto, I.VisitNo, Defined))
            return false;
        }
      }
    }
    return true;
  };
  return checkDirection(A, B) && checkDirection(B, A);
}

StorageAssignment fnc2::analyzeStorage(const AttributeGrammar &AG,
                                       const EvaluationPlan &Plan) {
  StorageAssignment SA;
  SA.Ids = StorageIdMap(AG);
  unsigned N = SA.Ids.numIds();
  SA.ClassOf.assign(N, StorageClass::TreeCell);
  SA.GroupOf.resize(N);
  SA.CopyEliminated.assign(AG.numRules(), false);

  VisitGrammar VG(AG, Plan, SA.Ids);
  SA.Intervals = computeIntervals(AG, Plan, SA.Ids, VG);

  // Classify: default Variable, demoted to Stack on self-overlap and to
  // TreeCell on visit-crossing lifetimes. Ids with no interval at all are
  // root inputs or dead attributes; they stay in the tree.
  std::vector<bool> HasInterval(N, false), NonTemp(N, false),
      SelfOverlap(N, false);
  for (const LifetimeInterval &LI : SA.Intervals) {
    HasInterval[LI.FlatId] = true;
    if (LI.CrossesVisit)
      NonTemp[LI.FlatId] = true;
    if (redefinedWithin(AG, Plan, SA.Ids, VG, Plan.Seqs[LI.SeqIdx], LI.DefPos,
                        LI.EndPos, LI.FlatId, LI.DefRule))
      SelfOverlap[LI.FlatId] = true;
  }
  for (unsigned Id = 0; Id != N; ++Id) {
    if (!HasInterval[Id] || NonTemp[Id])
      SA.ClassOf[Id] = StorageClass::TreeCell;
    else if (SelfOverlap[Id])
      SA.ClassOf[Id] = StorageClass::Stack;
    else
      SA.ClassOf[Id] = StorageClass::Variable;
  }

  // Grouping: candidate pairs are the endpoints of copy rules, weighted by
  // how many copies the merge would eliminate (the paper's criterion).
  std::map<std::pair<unsigned, unsigned>, unsigned> PairWeight;
  for (RuleId R = 0; R != AG.numRules(); ++R) {
    const SemanticRule &Rule = AG.rule(R);
    if (!Rule.IsCopy || Rule.Args.size() != 1 || Rule.Args[0].isLexeme() ||
        Rule.Target.isLexeme())
      continue;
    ++SA.TotalCopyRules;
    unsigned T = SA.Ids.idOfOcc(AG, Rule.Prod, Rule.Target);
    unsigned S = SA.Ids.idOfOcc(AG, Rule.Prod, Rule.Args[0]);
    if (T == S)
      continue;
    PairWeight[{std::min(T, S), std::max(T, S)}] += 1;
  }

  std::vector<std::pair<unsigned, std::pair<unsigned, unsigned>>> Candidates;
  for (const auto &[Pair, W] : PairWeight)
    Candidates.push_back({W, Pair});
  std::sort(Candidates.begin(), Candidates.end(),
            [](const auto &X, const auto &Y) {
              if (X.first != Y.first)
                return X.first > Y.first; // heavier pairs first
              return X.second < Y.second; // deterministic tie-break
            });

  Groups G(N);
  // Track which ids each group contains so variable merges can be checked
  // against every member (compatibility is not transitive).
  std::vector<std::vector<unsigned>> Members(N);
  for (unsigned Id = 0; Id != N; ++Id)
    Members[Id] = {Id};

  for (const auto &[W, Pair] : Candidates) {
    auto [A, B] = Pair;
    if (SA.ClassOf[A] != SA.ClassOf[B])
      continue;
    if (SA.ClassOf[A] == StorageClass::TreeCell)
      continue;
    unsigned RA = G.find(A), RB = G.find(B);
    if (RA == RB)
      continue;
    if (SA.ClassOf[A] == StorageClass::Variable) {
      bool Ok = true;
      for (unsigned X : Members[RA])
        for (unsigned Y : Members[RB])
          Ok = Ok && varsCompatible(AG, Plan, SA.Ids, VG, SA.Intervals, X, Y);
      if (!Ok)
        continue;
    }
    // Stack merges share cells only through copies at run time, which is
    // always safe in the indexed-cell model; variable merges passed the
    // interference check above.
    G.merge(RA, RB);
    unsigned Root = G.find(RA);
    std::vector<unsigned> Merged = std::move(Members[RA]);
    Merged.insert(Merged.end(), Members[RB].begin(), Members[RB].end());
    Members[RA].clear();
    Members[RB].clear();
    Members[Root] = std::move(Merged);
  }

  // Final group numbering and statistics.
  std::map<unsigned, unsigned> VarGroupIdx, StackGroupIdx;
  for (unsigned Id = 0; Id != N; ++Id) {
    unsigned Root = G.find(Id);
    switch (SA.ClassOf[Id]) {
    case StorageClass::Variable:
      if (!VarGroupIdx.count(Root))
        VarGroupIdx[Root] = SA.NumVarGroups++;
      SA.GroupOf[Id] = VarGroupIdx[Root];
      break;
    case StorageClass::Stack:
      if (!StackGroupIdx.count(Root))
        StackGroupIdx[Root] = SA.NumStackGroups++;
      SA.GroupOf[Id] = StackGroupIdx[Root];
      break;
    case StorageClass::TreeCell:
      SA.GroupOf[Id] = 0;
      break;
    }
  }

  for (AttrId A = 0; A != AG.Attrs.size(); ++A) {
    switch (SA.ClassOf[A]) {
    case StorageClass::Variable:
      ++SA.NumVariableAttrs;
      break;
    case StorageClass::Stack:
      ++SA.NumStackAttrs;
      break;
    case StorageClass::TreeCell:
      ++SA.NumTreeAttrs;
      break;
    }
  }

  // Copy elimination: a copy whose endpoints share a class and a group is a
  // no-op (same variable) or a shared cell (same stack).
  for (RuleId R = 0; R != AG.numRules(); ++R) {
    const SemanticRule &Rule = AG.rule(R);
    if (!Rule.IsCopy || Rule.Args.size() != 1 || Rule.Args[0].isLexeme())
      continue;
    unsigned T = SA.Ids.idOfOcc(AG, Rule.Prod, Rule.Target);
    unsigned S = SA.Ids.idOfOcc(AG, Rule.Prod, Rule.Args[0]);
    if (T == S) {
      // Copies between occurrences of the *same* attribute (the broadcast
      // idiom) are eliminated whenever the attribute left the tree: the
      // target shares the source's cell.
      if (SA.ClassOf[T] != StorageClass::TreeCell) {
        SA.CopyEliminated[R] = true;
        ++SA.EliminatedCopyRules;
        ++SA.EliminableCopyRules;
      }
      continue;
    }
    bool SameClass = SA.ClassOf[T] == SA.ClassOf[S] &&
                     SA.ClassOf[T] != StorageClass::TreeCell;
    if (SameClass && SA.GroupOf[T] == SA.GroupOf[S]) {
      SA.CopyEliminated[R] = true;
      ++SA.EliminatedCopyRules;
    }
    // Theoretical upper bound: endpoints out of the tree and, for
    // variables, pairwise compatible.
    if (SameClass &&
        (SA.ClassOf[T] == StorageClass::Stack ||
         varsCompatible(AG, Plan, SA.Ids, VG, SA.Intervals, T, S)))
      ++SA.EliminableCopyRules;
  }

  return SA;
}

double StorageAssignment::pctVariables() const {
  unsigned Total = NumVariableAttrs + NumStackAttrs + NumTreeAttrs;
  return Total == 0 ? 0.0 : 100.0 * NumVariableAttrs / Total;
}
double StorageAssignment::pctStacks() const {
  unsigned Total = NumVariableAttrs + NumStackAttrs + NumTreeAttrs;
  return Total == 0 ? 0.0 : 100.0 * NumStackAttrs / Total;
}
double StorageAssignment::pctTree() const {
  unsigned Total = NumVariableAttrs + NumStackAttrs + NumTreeAttrs;
  return Total == 0 ? 0.0 : 100.0 * NumTreeAttrs / Total;
}
