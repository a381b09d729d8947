//===- codegen/NativeMergedEvaluator.cpp ----------------------------------===//

#include "codegen/NativeMergedEvaluator.h"

using namespace fnc2;
using namespace fnc2::native;

bool NativeCohortKernel::run(const Shard &S, MergedStats &WS,
                             std::string &FailMsg) {
  const CohortShape &Sh = S.Shape;
  const size_t P = Sh.Prods.size();

  // The level-order SoaPos table over the shard's lanes. Thread-local so
  // concurrent shards allocate once per worker, not once per shard; Sons
  // may legally point one past the end for trailing leaves (never
  // dereferenced — leaves have no VISITs or child operands).
  thread_local std::vector<SoaPos> PosBuf;
  PosBuf.resize(P);
  SoaPos *Pos = PosBuf.data();
  for (size_t I = 0; I != P; ++I) {
    Pos[I].Lane0 = Sh.LaneSlots[I] ? S.Arena.lane(I, 0) : nullptr;
    Pos[I].Sons = Pos + Sh.FirstChild[I];
    Pos[I].Mask = S.Arena.mask(I);
    Pos[I].Prod = Sh.Prods[I];
    Pos[I].Index = static_cast<uint32_t>(I);
  }

  SoaRunCtx Ctx;
  Ctx.Args = S.ArgBuf;
  Ctx.Fns = Module->Fns.data();
  Ctx.Consts = Module->Consts.data();
  Ctx.PartitionAt = S.PartitionAt;
  Ctx.Touched = S.Touched;
  Ctx.NumMembers = S.NumMembers;

  const bool Ok = Module->soaRun()(Pos, &Ctx);
  WS.RulesEvaluated += Ctx.RulesEvaluated;
  WS.VisitsPerformed += Ctx.VisitsPerformed;
  WS.InstructionsExecuted += Ctx.InstructionsExecuted;
  if (Ok)
    return true;

  // Rephrase the failure report as the interpreted merged engine's
  // diagnostic.
  if (Ctx.Fail == FailKind::NoSequence && Ctx.FailPos) {
    const uint32_t Idx = Ctx.FailPos->Index;
    FailMsg = CP.missingSeqMessage(Sh.Prods[Idx], S.PartitionAt[Idx]);
  } else {
    FailMsg = "native cohort evaluation failed";
  }
  return false;
}
