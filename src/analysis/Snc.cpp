//===- analysis/Snc.cpp - Strong non-circularity test ---------------------===//
//
// Both tests come in two formulations. The default is the worklist engine
// of gfa/FixpointEngine.h: per-production dirty bits, word-parallel paste
// and projection, incrementally re-closed cached closures, and the final
// acyclicity check read straight off those caches (an augmented graph is
// rebuilt only to extract the cycle witness of a failing production). The
// NaiveFixpoint option keeps the textbook formulation — global re-sweeps
// over every production, heap-allocated augmented Digraphs, full Warshall
// closures, a second graph build for the acyclicity check — as the
// reference side of the differential tests and benches.
//
//===----------------------------------------------------------------------===//

#include "analysis/Circularity.h"

#include "gfa/FixpointEngine.h"
#include "support/Trace.h"

using namespace fnc2;

SncResult fnc2::runSncTest(const AttributeGrammar &AG,
                           const GfaOptions &Opts) {
  FNC2_SPAN("snc.test");
  SncResult R;
  R.IO = PhylumRelation(AG);
  AugmentOptions Paste;
  Paste.Below = &R.IO;

  if (Opts.NaiveFixpoint) {
    // Fixpoint: IO(lhs(p)) absorbs the projection of the closed augmented
    // graph DP(p) + IO(children).
    bool Changed = true;
    while (Changed) {
      Changed = false;
      ++R.Iterations;
      FNC2_COUNT("snc.iterations", 1);
      for (ProdId P = 0; P != AG.numProds(); ++P) {
        Digraph G = buildAugmentedGraph(AG, P, Paste);
        BitMatrix Closure = closureOf(G);
        Changed |= projectOntoSymbol(AG, P, 0, Closure, R.IO);
      }
    }

    // The grammar is SNC iff every augmented graph is acyclic.
    for (ProdId P = 0; P != AG.numProds(); ++P) {
      Digraph G = buildAugmentedGraph(AG, P, Paste);
      std::vector<unsigned> Cycle = G.findCycle();
      if (!Cycle.empty()) {
        R.IsSNC = false;
        R.Witness.Prod = P;
        R.Witness.Cycle = std::move(Cycle);
        return R;
      }
    }
    R.IsSNC = true;
    return R;
  }

  GfaFixpoint Engine(AG);
  R.Iterations = Engine.run(Paste, GfaProject::Lhs, R.IO);
  if (ProdId Bad = Engine.firstCyclicProd(); Bad != InvalidId) {
    R.IsSNC = false;
    R.Witness.Prod = Bad;
    R.Witness.Cycle = buildAugmentedGraph(AG, Bad, Paste).findCycle();
    return R;
  }
  R.IsSNC = true;
  return R;
}

DncResult fnc2::runDncTest(const AttributeGrammar &AG, const SncResult &Snc,
                           const GfaOptions &Opts) {
  FNC2_SPAN("dnc.test");
  DncResult R;
  R.OI = PhylumRelation(AG);
  assert(Snc.IsSNC && "DNC test runs only after a successful SNC test");
  // The augmented graph is DP(p) + IO(children) + OI(lhs); projecting onto
  // the children closes OI from above. OI is not pasted onto the children —
  // that would re-inject paths through p's own context and reject
  // realizable grammars (a node has exactly one context).
  AugmentOptions Paste;
  Paste.Below = &Snc.IO;
  Paste.Above = &R.OI;

  if (Opts.NaiveFixpoint) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      ++R.Iterations;
      FNC2_COUNT("dnc.iterations", 1);
      for (ProdId P = 0; P != AG.numProds(); ++P) {
        Digraph G = buildAugmentedGraph(AG, P, Paste);
        BitMatrix Closure = closureOf(G);
        for (unsigned C = 0; C != AG.prod(P).arity(); ++C)
          Changed |= projectOntoSymbol(AG, P, C + 1, Closure, R.OI);
      }
    }

    // DNC iff every doubly-augmented graph is acyclic: the selectors are
    // consistent when closed from below and from above, which is what
    // start-anywhere (incremental) evaluation needs.
    for (ProdId P = 0; P != AG.numProds(); ++P) {
      Digraph G = buildAugmentedGraph(AG, P, Paste);
      std::vector<unsigned> Cycle = G.findCycle();
      if (!Cycle.empty()) {
        R.IsDNC = false;
        R.Witness.Prod = P;
        R.Witness.Cycle = std::move(Cycle);
        return R;
      }
    }
    R.IsDNC = true;
    return R;
  }

  GfaFixpoint Engine(AG);
  R.Iterations = Engine.run(Paste, GfaProject::Children, R.OI);
  if (ProdId Bad = Engine.firstCyclicProd(); Bad != InvalidId) {
    R.IsDNC = false;
    R.Witness.Prod = Bad;
    R.Witness.Cycle = buildAugmentedGraph(AG, Bad, Paste).findCycle();
    return R;
  }
  R.IsDNC = true;
  return R;
}
