//===- visitseq/VisitSequence.cpp -----------------------------------------===//

#include "visitseq/VisitSequence.h"

using namespace fnc2;

static bool buildOneSequence(const AttributeGrammar &AG,
                             const TransformResult &Transform, ProdId P,
                             const TransformInstance &Inst, VisitSequence &Seq,
                             DiagnosticEngine &Diags) {
  const Production &Pr = AG.prod(P);
  const ProductionInfo &PI = AG.info(P);
  const TotallyOrderedPartition &LhsPart =
      Transform.Partitions[Pr.Lhs][Inst.LhsPart];

  Seq.Prod = P;
  Seq.LhsPartition = Inst.LhsPart;
  Seq.NumVisits = LhsPart.numVisits();
  Seq.ChildPartition = Inst.ChildPart;

  // Visit number of each child attribute under its committed partition.
  auto childVisitOf = [&](unsigned Child, AttrId A) {
    const TotallyOrderedPartition &Part =
        Transform.Partitions[Pr.Rhs[Child]][Inst.ChildPart[Child]];
    return Part.visitOf(AG.attr(A).IndexInOwner);
  };
  auto childNumVisits = [&](unsigned Child) {
    return Transform.Partitions[Pr.Rhs[Child]][Inst.ChildPart[Child]]
        .numVisits();
  };

  // Assign every occurrence in the linear order to an LHS visit chunk; the
  // chunk counter only advances when an LHS attribute of a later block
  // appears (the partition edges guarantee monotonicity).
  std::vector<unsigned> ChunkOf(PI.numOccs(), 1);
  unsigned Current = 1;
  for (OccId O : Inst.Linear) {
    const AttrOcc &Occ = PI.Occs[O];
    if (Occ.isOnSymbol() && Occ.Pos == 0) {
      unsigned V = LhsPart.visitOf(AG.attr(Occ.Attr).IndexInOwner);
      if (V < Current) {
        Diags.error("visit sequence for operator '" + Pr.Name +
                    "': linear order violates the LHS partition");
        return false;
      }
      Current = V;
    }
    ChunkOf[O] = Current;
  }

  // Emit instructions chunk by chunk.
  std::vector<unsigned> NextChildVisit(Pr.arity(), 1);
  auto emitEval = [&](RuleId R) {
    if (!Seq.Instrs.empty() && Seq.Instrs.back().Kind == VisitInstr::Op::Eval) {
      Seq.Instrs.back().Rules.push_back(R);
      return;
    }
    VisitInstr I;
    I.Kind = VisitInstr::Op::Eval;
    I.Rules = {R};
    Seq.Instrs.push_back(std::move(I));
  };
  auto emitVisit = [&](unsigned Child, unsigned VisitNo) {
    VisitInstr I;
    I.Kind = VisitInstr::Op::Visit;
    I.Child = Child;
    I.VisitNo = VisitNo;
    I.ChildPartition = Inst.ChildPart[Child];
    Seq.Instrs.push_back(I);
  };

  for (unsigned V = 1; V <= Seq.NumVisits; ++V) {
    Seq.BeginIndex.push_back(static_cast<unsigned>(Seq.Instrs.size()));
    VisitInstr B;
    B.Kind = VisitInstr::Op::Begin;
    B.VisitNo = V;
    Seq.Instrs.push_back(B);

    for (OccId O : Inst.Linear) {
      if (ChunkOf[O] != V)
        continue;
      const AttrOcc &Occ = PI.Occs[O];
      if (Occ.isLexeme())
        continue;
      if (Occ.isOnSymbol() && Occ.Pos != 0 &&
          AG.attr(Occ.Attr).isSynthesized()) {
        // A son's synthesized attribute: make sure the visits up to the one
        // producing it have been performed.
        unsigned Child = Occ.Pos - 1;
        unsigned Needed = childVisitOf(Child, Occ.Attr);
        while (NextChildVisit[Child] <= Needed)
          emitVisit(Child, NextChildVisit[Child]++);
        continue;
      }
      RuleId R = PI.DefiningRule[O];
      if (R != InvalidId)
        emitEval(R);
    }

    if (V == Seq.NumVisits) {
      // Flush the remaining visits of every son so exhaustive evaluation
      // reaches all attribute instances (sons whose outputs this production
      // never consumes still get fully evaluated).
      for (unsigned C = 0; C != Pr.arity(); ++C)
        while (NextChildVisit[C] <= childNumVisits(C))
          emitVisit(C, NextChildVisit[C]++);
    }

    VisitInstr L;
    L.Kind = VisitInstr::Op::Leave;
    L.VisitNo = V;
    Seq.Instrs.push_back(L);
  }
  return true;
}

bool fnc2::buildVisitSequences(const AttributeGrammar &AG,
                               const TransformResult &Transform,
                               EvaluationPlan &Plan, DiagnosticEngine &Diags) {
  assert(Transform.Success && "transformation must have succeeded");
  Plan.AG = &AG;
  Plan.Partitions = Transform.Partitions;
  Plan.RootPartition = Transform.RootPartition;
  Plan.SeqIndex.assign(AG.numProds(), {});

  for (ProdId P = 0; P != AG.numProds(); ++P) {
    for (const TransformInstance &Inst : Transform.Instances[P]) {
      VisitSequence Seq;
      if (!buildOneSequence(AG, Transform, P, Inst, Seq, Diags))
        return false;
      Plan.SeqIndex[P].emplace(Inst.LhsPart,
                               static_cast<unsigned>(Plan.Seqs.size()));
      Plan.Seqs.push_back(std::move(Seq));
    }
  }
  return true;
}

std::string EvaluationPlan::dump() const {
  std::string Out;
  for (const VisitSequence &Seq : Seqs) {
    const Production &Pr = AG->prod(Seq.Prod);
    Out += "sequence for " + Pr.Name + " / partition " +
           std::to_string(Seq.LhsPartition) + " (" +
           std::to_string(Seq.NumVisits) + " visits)\n";
    for (const VisitInstr &I : Seq.Instrs) {
      switch (I.Kind) {
      case VisitInstr::Op::Begin:
        Out += "  BEGIN " + std::to_string(I.VisitNo) + "\n";
        break;
      case VisitInstr::Op::Leave:
        Out += "  LEAVE " + std::to_string(I.VisitNo) + "\n";
        break;
      case VisitInstr::Op::Visit:
        Out += "  VISIT " + std::to_string(I.VisitNo) + ", son " +
               std::to_string(I.Child + 1) + " (partition " +
               std::to_string(I.ChildPartition) + ")\n";
        break;
      case VisitInstr::Op::Eval:
        Out += "  EVAL {";
        for (size_t R = 0; R != I.Rules.size(); ++R) {
          if (R)
            Out += ", ";
          Out += AG->occName(Seq.Prod, AG->rule(I.Rules[R]).Target);
        }
        Out += "}\n";
        break;
      }
    }
  }
  return Out;
}
