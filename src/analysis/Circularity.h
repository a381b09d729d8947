//===- analysis/Circularity.h - SNC / DNC / NC tests ------------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The circularity tests of the evaluator generator's cascade (paper
/// section 3.1 and figure 3):
///
///  * SNC (strong / absolute non-circularity, Courcelle & Franchi-
///    Zannettacci [6]): one IO relation per phylum, closed from below; the
///    entry class of the whole system — failing it aborts generation with a
///    circularity trace.
///  * DNC (double non-circularity, File [18]): the IO relations plus OI
///    relations closed from above; required by the start-anywhere
///    (incremental) evaluators and used to speed up the transformation.
///  * Plain NC (Knuth's exponential set-of-graphs test), provided as a
///    baseline for tests and benches on small grammars.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_ANALYSIS_CIRCULARITY_H
#define FNC2_ANALYSIS_CIRCULARITY_H

#include "gfa/GrammarFlow.h"
#include "grammar/AttributeGrammar.h"

namespace fnc2 {

/// A concrete witness of a circularity: the production whose augmented
/// dependency graph is cyclic and the cycle as occurrence ids.
struct CycleWitness {
  ProdId Prod = InvalidId;
  std::vector<OccId> Cycle;

  bool empty() const { return Cycle.empty(); }
  bool operator==(const CycleWitness &) const = default;
};

/// Result of the SNC test.
struct SncResult {
  bool IsSNC = false;
  /// IO(X) for every phylum: the argument selectors closed from below.
  PhylumRelation IO;
  /// Populated when the test fails.
  CycleWitness Witness;
  /// Number of fixpoint sweeps over all productions.
  unsigned Iterations = 0;

  bool operator==(const SncResult &) const = default;
};

/// Runs the SNC test. Requires AG.buildProductionInfo() to have run.
/// \p Opts selects between the worklist engine (default) and the naive
/// reference fixpoint.
SncResult runSncTest(const AttributeGrammar &AG, const GfaOptions &Opts = {});

/// Result of the DNC test.
struct DncResult {
  bool IsDNC = false;
  /// OI(X) for every phylum: selectors closed from above.
  PhylumRelation OI;
  CycleWitness Witness;
  unsigned Iterations = 0;

  bool operator==(const DncResult &) const = default;
};

/// Runs the DNC test on top of an SNC result (the cascade never runs DNC
/// without SNC having succeeded, matching the paper's phase ordering).
DncResult runDncTest(const AttributeGrammar &AG, const SncResult &Snc,
                     const GfaOptions &Opts = {});

/// Result of the plain (Knuth) non-circularity test.
struct NcResult {
  bool IsNC = false;
  /// True when the test hit its configured budget and gave up; IsNC is then
  /// meaningless. This test is exponential and exists as a baseline only.
  bool GaveUp = false;
  CycleWitness Witness;
  /// Total number of IO graphs materialized (the exponential blow-up axis).
  unsigned GraphCount = 0;
};

/// Runs Knuth's exact non-circularity test, materializing sets of IO graphs
/// per phylum; gives up once more than \p MaxGraphs graphs exist.
NcResult runNcTest(const AttributeGrammar &AG, unsigned MaxGraphs = 4096);

/// Renders the circularity trace for a failed test: the offending production
/// and the cycle through attribute occurrences, with induced edges (those
/// coming from IO/OI selectors rather than semantic rules) annotated. This
/// is the batch analogue of FNC-2's interactive circularity trace [39].
std::string formatCircularityTrace(const AttributeGrammar &AG,
                                   const CycleWitness &Witness,
                                   const PhylumRelation *Below,
                                   const PhylumRelation *Above);

} // namespace fnc2

#endif // FNC2_ANALYSIS_CIRCULARITY_H
