//===- gfa/FixpointEngine.cpp ---------------------------------------------===//

#include "gfa/FixpointEngine.h"

#include "support/Trace.h"

#include <algorithm>
#include <numeric>

using namespace fnc2;

GfaFixpoint::GfaFixpoint(const AttributeGrammar &AG)
    : AG(AG), OccMats(AG.numProds()), Closures(AG.numProds()),
      HasCache(AG.numProds(), 0) {}

void GfaFixpoint::processProd(ProdId P, const AugmentOptions &Paste) {
  const ProductionInfo &PI = AG.info(P);
  const Production &Pr = AG.prod(P);
  unsigned N = PI.numOccs();
  BitMatrix &M = OccMats[P];
  NewEdges.clear();
  const bool Fresh = !HasCache[P];
  if (Fresh)
    M = PI.DepMatrix;

  // Paste each requested relation onto its occurrence block, 64 bits per
  // OR. Relations only grow, so the cached matrix absorbs the new bits in
  // place; on a revisit the newly-set bits are exactly the edges the cached
  // closure is missing.
  auto paste = [&](const PhylumRelation &Rel, PhylumId Phy, unsigned Pos) {
    unsigned K = static_cast<unsigned>(AG.phylum(Phy).Attrs.size());
    OccId Base = PI.posBase(Pos);
    const BitMatrix &R = Rel[Phy];
    for (unsigned A = 0; A != K; ++A) {
      if (Fresh) {
        M.orRowSpan(Base + A, Base, R, A, 0, K);
      } else {
        ColBuf.clear();
        if (M.orRowSpanCollect(Base + A, Base, R, A, 0, K, ColBuf))
          for (unsigned Col : ColBuf)
            NewEdges.emplace_back(Base + A, Col);
      }
    }
  };
  if (Paste.Below)
    for (unsigned C = 0; C != Pr.arity(); ++C)
      paste(*Paste.Below, Pr.Rhs[C], C + 1);
  if (Paste.Above)
    paste(*Paste.Above, Pr.Lhs, 0);
  if (Paste.BelowOnLhs)
    paste(*Paste.BelowOnLhs, Pr.Lhs, 0);

  if (!Fresh && NewEdges.empty())
    return; // Nothing the cached closure doesn't already cover.

  BitMatrix &C = Closures[P];
  FNC2_COUNT("gfa.closures", 1);
  if (Fresh) {
    C = M;
    C.transitiveClosure();
    HasCache[P] = 1;
    return;
  }
  FNC2_COUNT("gfa.closure_reuse", 1);
  if (NewEdges.size() >= N) {
    // Many new edges at once: one Warshall pass seeded from the cached
    // closure beats per-edge propagation.
    C.orInPlace(M);
    C.transitiveClosure();
    return;
  }
  for (auto [From, To] : NewEdges)
    C.closeWithEdge(From, To);
}

unsigned GfaFixpoint::run(const AugmentOptions &Paste, GfaProject Kind,
                          PhylumRelation &Target) {
  FNC2_SPAN("gfa.fixpoint");
  const unsigned NumProds = AG.numProds();
  const bool TargetBelow = Paste.Below == &Target;
  const bool TargetOnLhs =
      Paste.Above == &Target || Paste.BelowOnLhs == &Target;

  std::vector<ProdId> Dirty(NumProds);
  std::iota(Dirty.begin(), Dirty.end(), 0);
  std::vector<char> InDirty(NumProds, 1);
  std::vector<char> PhyChanged(AG.numPhyla(), 0);
  std::vector<ProdId> Next;
  unsigned Rounds = 0;

  while (!Dirty.empty()) {
    ++Rounds;
    FNC2_COUNT("gfa.rounds", 1);
    FNC2_COUNT("gfa.worklist_hits", Dirty.size());
    FNC2_COUNT("gfa.worklist_skips", NumProds - Dirty.size());

    // Stage 1: rebuild + re-close every dirty production.
    for (ProdId P : Dirty)
      processProd(P, Paste);

    // Stage 2: merge the projections into the target relation, in
    // ascending ProdId order.
    std::fill(PhyChanged.begin(), PhyChanged.end(), 0);
    auto projectPos = [&](ProdId P, unsigned Pos) {
      const Production &Pr = AG.prod(P);
      PhylumId Phy = Pos == 0 ? Pr.Lhs : Pr.Rhs[Pos - 1];
      unsigned K = static_cast<unsigned>(AG.phylum(Phy).Attrs.size());
      if (K == 0)
        return;
      OccId Base = AG.info(P).posBase(Pos);
      const BitMatrix &C = Closures[P];
      BitMatrix &Rel = Target[Phy];
      bool Changed = false;
      for (unsigned A = 0; A != K; ++A)
        Changed |= Rel.orRowSpan(A, 0, C, Base + A, Base, K, /*Skip=*/A);
      if (Changed)
        PhyChanged[Phy] = 1;
    };
    for (ProdId P : Dirty) {
      if (Kind != GfaProject::Children)
        projectPos(P, 0);
      if (Kind != GfaProject::Lhs)
        for (unsigned C = 0; C != AG.prod(P).arity(); ++C)
          projectPos(P, C + 1);
    }

    // Stage 3: dirty exactly the productions that read a grown relation —
    // through the paste slot(s) that alias the target.
    Next.clear();
    std::fill(InDirty.begin(), InDirty.end(), 0);
    auto mark = [&](ProdId P) {
      if (!InDirty[P]) {
        InDirty[P] = 1;
        Next.push_back(P);
      }
    };
    for (PhylumId X = 0; X != AG.numPhyla(); ++X) {
      if (!PhyChanged[X])
        continue;
      if (TargetBelow)
        for (ProdId P : AG.rhsProds(X))
          mark(P);
      if (TargetOnLhs)
        for (ProdId P : AG.phylum(X).Prods)
          mark(P);
    }
    std::sort(Next.begin(), Next.end());
    Dirty.swap(Next);
  }
  return Rounds;
}

ProdId GfaFixpoint::firstCyclicProd() const {
  for (ProdId P = 0; P != AG.numProds(); ++P)
    if (HasCache[P] && Closures[P].hasReflexiveBit())
      return P;
  return InvalidId;
}
