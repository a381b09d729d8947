//===- eval/CompiledPlan.cpp ----------------------------------------------===//

#include "eval/CompiledPlan.h"

#include <algorithm>

using namespace fnc2;

std::string CompiledPlan::missingSeqMessage(ProdId P, unsigned Part) const {
  return "no visit sequence for operator '" + grammar().prod(P).Name +
         "' under partition " + std::to_string(Part);
}

uint64_t fnc2::planFingerprint(const CompiledPlan &CP) {
  // FNV-1a, inlined so the eval layer does not depend on serialize/.
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    for (unsigned I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  auto MixRef = [&Mix](const SlotRef &R) {
    Mix(static_cast<uint64_t>(R.Kind) | (uint64_t(R.Child) << 8) |
        (uint64_t(R.Slot) << 16));
  };
  Mix(CP.Instrs.size());
  for (const CompiledInstr &I : CP.Instrs) {
    Mix(static_cast<uint64_t>(I.Kind) | (uint64_t(I.Child) << 8) |
        (uint64_t(I.VisitNo) << 16));
    Mix(uint64_t(I.A) | (uint64_t(I.B) << 32));
  }
  Mix(CP.BeginOfs.size());
  for (uint32_t O : CP.BeginOfs)
    Mix(O);
  Mix(CP.Rules.size());
  for (const CompiledRule &R : CP.Rules) {
    Mix(uint64_t(R.FirstArg) | (uint64_t(R.NumArgs) << 32) |
        (uint64_t(R.IsCopy) << 48));
    Mix(R.Orig);
    MixRef(R.Target);
  }
  Mix(CP.Args.size());
  for (const SlotRef &R : CP.Args)
    MixRef(R);
  Mix(CP.Seqs.size());
  for (const CompiledSeq &S : CP.Seqs) {
    Mix(uint64_t(S.Prod) | (uint64_t(S.Partition) << 32));
    Mix(uint64_t(S.NumVisits) | (uint64_t(S.FirstInstr) << 16) |
        (uint64_t(S.FirstBegin) << 48));
  }
  Mix(CP.MaxPartition);
  Mix(CP.Frames.size());
  for (const FrameShape &F : CP.Frames)
    Mix(uint64_t(F.NumAttrs) | (uint64_t(F.NumLocals) << 16));
  return H;
}

namespace {

/// Resolves one occurrence of \p Prod to its frame slot. Locals live behind
/// the self node's attribute slots.
SlotRef refOf(const AttributeGrammar &AG, const FrameShape &Shape,
              const AttrOcc &O) {
  SlotRef R;
  if (O.isLexeme()) {
    R.Kind = SlotRef::K::Lexeme;
    return R;
  }
  if (O.isLocal()) {
    R.Kind = SlotRef::K::Self;
    R.Slot = static_cast<uint16_t>(Shape.NumAttrs + O.LocalIndex);
    return R;
  }
  const unsigned Idx = AG.attr(O.Attr).IndexInOwner;
  if (O.Pos == 0) {
    R.Kind = SlotRef::K::Self;
    R.Slot = static_cast<uint16_t>(Idx);
    return R;
  }
  R.Kind = SlotRef::K::Child;
  R.Child = static_cast<uint8_t>(O.Pos - 1);
  R.Slot = static_cast<uint16_t>(Idx);
  return R;
}

} // namespace

void CompiledPlan::computeCohortMeta(const AttributeGrammar &AG) {
  LexemeUsed.assign(Frames.size(), 0);
  MaxFrameSlots = 0;
  for (const FrameShape &F : Frames)
    MaxFrameSlots =
        std::max<unsigned>(MaxFrameSlots, unsigned(F.NumAttrs) + F.NumLocals);
  for (const CompiledRule &R : ById)
    for (uint32_t A = 0; A != R.NumArgs; ++A)
      if (Args[R.FirstArg + A].Kind == SlotRef::K::Lexeme)
        LexemeUsed[AG.rule(R.Orig).Prod] = 1;
}

CompiledPlan::CompiledPlan(const EvaluationPlan &Plan) : Src(&Plan) {
  const AttributeGrammar &AG = *Plan.AG;

  // Frame geometry per production.
  Frames.resize(AG.Prods.size());
  for (ProdId P = 0; P != AG.Prods.size(); ++P) {
    const Production &Pr = AG.Prods[P];
    Frames[P].NumAttrs =
        static_cast<uint16_t>(AG.phylum(Pr.Lhs).Attrs.size());
    Frames[P].NumLocals = static_cast<uint16_t>(Pr.Locals.size());
  }

  // Rules, dense by id: every occurrence resolved to a slot once.
  ById.resize(AG.Rules.size());
  for (RuleId R = 0; R != AG.Rules.size(); ++R) {
    const SemanticRule &SR = AG.Rules[R];
    const FrameShape &Shape = Frames[SR.Prod];
    CompiledRule &C = ById[R];
    C.Fn = SR.Fn ? &SR.Fn : nullptr;
    C.IsCopy = SR.IsCopy;
    C.Orig = R;
    C.FirstArg = static_cast<uint32_t>(Args.size());
    C.NumArgs = static_cast<uint16_t>(SR.Args.size());
    MaxRuleArgs = std::max<unsigned>(MaxRuleArgs, C.NumArgs);
    for (const AttrOcc &O : SR.Args)
      Args.push_back(refOf(AG, Shape, O));
    C.Target = refOf(AG, Shape, SR.Target);
    assert(C.Target.Kind != SlotRef::K::Lexeme && "lexeme is read-only");
  }

  // Dense sequence table.
  for (const VisitSequence &S : Plan.Seqs)
    MaxPartition = std::max(MaxPartition, S.LhsPartition + 1);
  SeqTable.assign(AG.Prods.size() * size_t(MaxPartition), -1);
  Seqs.reserve(Plan.Seqs.size());

  for (const VisitSequence &S : Plan.Seqs) {
    CompiledSeq CS;
    CS.Prod = S.Prod;
    CS.Partition = S.LhsPartition;
    CS.NumVisits = S.NumVisits;
    CS.FirstInstr = static_cast<uint32_t>(Instrs.size());
    CS.FirstBegin = static_cast<uint32_t>(BeginOfs.size());
    CS.Frame = Frames[S.Prod];
    for (const VisitInstr &VI : S.Instrs) {
      CompiledInstr I;
      switch (VI.Kind) {
      case VisitInstr::Op::Begin:
        // Dissolved: record where this visit's body starts.
        BeginOfs.push_back(static_cast<uint32_t>(Instrs.size()) -
                           CS.FirstInstr);
        continue;
      case VisitInstr::Op::Eval:
        I.Kind = CompiledInstr::Op::Eval;
        I.A = static_cast<uint32_t>(Rules.size());
        I.B = static_cast<uint32_t>(VI.Rules.size());
        for (RuleId R : VI.Rules)
          Rules.push_back(ById[R]);
        break;
      case VisitInstr::Op::Visit:
        I.Kind = CompiledInstr::Op::Visit;
        I.Child = static_cast<uint8_t>(VI.Child);
        I.VisitNo = static_cast<uint16_t>(VI.VisitNo);
        I.A = VI.ChildPartition;
        break;
      case VisitInstr::Op::Leave:
        I.Kind = CompiledInstr::Op::Leave;
        I.VisitNo = static_cast<uint16_t>(VI.VisitNo);
        break;
      }
      Instrs.push_back(I);
    }
    assert(BeginOfs.size() - CS.FirstBegin == S.NumVisits &&
           "one BEGIN per visit");
    SeqTable[size_t(S.Prod) * MaxPartition + S.LhsPartition] =
        static_cast<int32_t>(Seqs.size());
    Seqs.push_back(CS);
  }

  // Per-phylum attribute slot lists, in attribute-list order (which the
  // root-inherited error reporting relies on).
  InhByPhylum.resize(AG.Phyla.size());
  SynByPhylum.resize(AG.Phyla.size());
  for (PhylumId Ph = 0; Ph != AG.Phyla.size(); ++Ph)
    for (AttrId A : AG.Phyla[Ph].Attrs) {
      const Attribute &At = AG.attr(A);
      SlotAttr SA{A, static_cast<uint16_t>(At.IndexInOwner)};
      (At.isInherited() ? InhByPhylum : SynByPhylum)[Ph].push_back(SA);
    }

  computeCohortMeta(AG);
}
