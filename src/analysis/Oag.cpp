//===- analysis/Oag.cpp ---------------------------------------------------===//

#include "analysis/Oag.h"

#include "gfa/FixpointEngine.h"
#include "support/Trace.h"

using namespace fnc2;

/// Computes the IDS fixpoint: the symbol relation is pasted at *every*
/// position (Kastens closes from below and above simultaneously). Returns
/// false (with a witness) if some induced production graph is cyclic. The
/// projections never add diagonal bits, so even a cyclic IDS converges;
/// both formulations run to the fixpoint and then pick the first cyclic
/// production in ProdId order, making the witness independent of the
/// iteration strategy.
static bool computeIds(const AttributeGrammar &AG, const GfaOptions &Opts,
                       PhylumRelation &IDS, CycleWitness &Witness,
                       unsigned &Iterations) {
  AugmentOptions Paste;
  Paste.Below = &IDS;
  Paste.BelowOnLhs = &IDS;

  if (Opts.NaiveFixpoint) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      ++Iterations;
      FNC2_COUNT("oag.ids_iterations", 1);
      for (ProdId P = 0; P != AG.numProds(); ++P) {
        Digraph G = buildAugmentedGraph(AG, P, Paste);
        BitMatrix Closure = closureOf(G);
        Changed |= projectOntoSymbol(AG, P, 0, Closure, IDS);
        for (unsigned C = 0; C != AG.prod(P).arity(); ++C)
          Changed |= projectOntoSymbol(AG, P, C + 1, Closure, IDS);
      }
    }
    for (ProdId P = 0; P != AG.numProds(); ++P) {
      Digraph G = buildAugmentedGraph(AG, P, Paste);
      std::vector<unsigned> Cycle = G.findCycle();
      if (!Cycle.empty()) {
        Witness.Prod = P;
        Witness.Cycle = std::move(Cycle);
        return false;
      }
    }
    return true;
  }

  GfaFixpoint Engine(AG);
  Iterations += Engine.run(Paste, GfaProject::All, IDS);
  if (ProdId Bad = Engine.firstCyclicProd(); Bad != InvalidId) {
    Witness.Prod = Bad;
    Witness.Cycle = buildAugmentedGraph(AG, Bad, Paste).findCycle();
    return false;
  }
  return true;
}

/// Builds the completed production graph EDP(p): DP(p) plus the partition
/// order edges at every symbol occurrence.
static Digraph buildEdp(const AttributeGrammar &AG, ProdId P,
                        const std::vector<TotallyOrderedPartition> &Parts) {
  const Production &Pr = AG.prod(P);
  const ProductionInfo &PI = AG.info(P);
  Digraph G(PI.numOccs());
  G.unionEdges(PI.DepGraph);
  auto paste = [&](PhylumId Phy, unsigned Pos) {
    if (AG.phylum(Phy).Attrs.empty())
      return;
    Parts[Phy].addOrderEdges(G, PI.posBase(Pos));
  };
  paste(Pr.Lhs, 0);
  for (unsigned C = 0; C != Pr.arity(); ++C)
    paste(Pr.Rhs[C], C + 1);
  return G;
}

OagResult fnc2::runOagTest(const AttributeGrammar &AG, unsigned K,
                           const GfaOptions &Opts) {
  FNC2_SPAN("oag.test");
  OagResult R;
  R.IDS = PhylumRelation(AG);

  if (!computeIds(AG, Opts, R.IDS, R.Witness, R.Iterations))
    return R;

  // Extra order constraints accumulated by repair rounds; merged into the
  // relation the partitions are peeled from.
  PhylumRelation Extra(AG);

  for (unsigned Round = 0; Round <= K; ++Round) {
    FNC2_COUNT("oag.rounds", 1);
    // Peel one partition per phylum from IDS + Extra.
    PhylumRelation DS = R.IDS;
    bool DsOk = true;
    for (PhylumId X = 0; X != AG.numPhyla(); ++X)
      DS[X].orInPlace(Extra[X]);

    R.Partitions.clear();
    R.Partitions.resize(AG.numPhyla());
    for (PhylumId X = 0; X != AG.numPhyla(); ++X) {
      auto Part = TotallyOrderedPartition::fromRelation(AG, X, DS[X]);
      if (!Part) {
        DsOk = false;
        break;
      }
      R.Partitions[X] = std::move(*Part);
    }
    if (!DsOk)
      return R; // repairs made the symbol relation itself cyclic: reject

    // Check all completed graphs; on the first cycle, harvest exactly one
    // repair constraint. Repairing one conflict per round keeps the process
    // incremental: an aggressive harvest of every conflicting edge can
    // demand both orientations of the same pair at once and reject grammars
    // a single split would have fixed.
    bool AllAcyclic = true;
    for (ProdId P = 0; P != AG.numProds(); ++P) {
      Digraph Edp = buildEdp(AG, P, R.Partitions);
      std::vector<unsigned> Cycle = Edp.findCycle();
      if (Cycle.empty())
        continue;
      AllAcyclic = false;
      R.Witness.Prod = P;
      R.Witness.Cycle = Cycle;
      if (Round == K)
        return R; // budget exhausted

      // Find the first partition-order edge on the cycle (both endpoints on
      // the same symbol occurrence, not a semantic-rule edge) and demand the
      // opposite order next round.
      const ProductionInfo &PI = AG.info(P);
      const Production &Pr = AG.prod(P);
      bool Repaired = false;
      for (size_t I = 0; I != Cycle.size() && !Repaired; ++I) {
        OccId From = Cycle[I];
        OccId To = Cycle[(I + 1) % Cycle.size()];
        const AttrOcc &FO = PI.Occs[From];
        const AttrOcc &TO = PI.Occs[To];
        if (!FO.isOnSymbol() || !TO.isOnSymbol() || FO.Pos != TO.Pos)
          continue;
        if (PI.DepGraph.hasEdge(From, To))
          continue;
        PhylumId X = FO.Pos == 0 ? Pr.Lhs : Pr.Rhs[FO.Pos - 1];
        unsigned A = AG.attr(FO.Attr).IndexInOwner;
        unsigned B = AG.attr(TO.Attr).IndexInOwner;
        // The partition said A before B and the cycle contradicts it; ask
        // for B before A instead.
        Extra[X].set(B, A);
        Repaired = true;
      }
      if (!Repaired)
        return R; // the cycle has no artificial edge: nothing to repair
      break;      // one repair per round
    }
    if (AllAcyclic) {
      R.IsOAG = true;
      R.UsedK = Round;
      R.Witness = CycleWitness();
      return R;
    }
  }
  return R;
}
