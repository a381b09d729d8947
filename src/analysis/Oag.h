//===- analysis/Oag.h - Kastens' ordered AG test ----------------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OAG(k) test. OAG(0) is Kastens' original ordered-AG test [29]: compute
/// induced symbol dependencies (IDS) by a fixpoint over induced production
/// graphs (IDP), peel one totally-ordered partition per phylum, complete the
/// production graphs with the partition orders (EDP) and require acyclicity.
///
/// The OAG(k) hierarchy follows Barbar [3] in spirit: there is an infinity of
/// incomparable OAG(k) classes refining how partition conflicts are resolved.
/// Barbar's report being unobtainable, our OAG(k) runs up to k *repair
/// rounds*: each round extracts partition-order edges participating in EDP
/// cycles, asserts the opposite order into the symbol dependencies, and
/// re-peels. Soundness is unconditional — acceptance always requires every
/// completed graph to be acyclic — and OAG(0) is exactly Kastens' class.
/// (See DESIGN.md, "Substitutions".)
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_ANALYSIS_OAG_H
#define FNC2_ANALYSIS_OAG_H

#include "analysis/Circularity.h"
#include "ordered/Partition.h"

namespace fnc2 {

/// Result of the OAG(k) test.
struct OagResult {
  bool IsOAG = false;
  /// The smallest repair budget 0 <= UsedK <= k that succeeded.
  unsigned UsedK = 0;
  /// Induced dependencies between the attributes of each symbol.
  PhylumRelation IDS;
  /// One totally-ordered partition per phylum (valid when IsOAG).
  std::vector<TotallyOrderedPartition> Partitions;
  /// When the test fails: the production whose completed graph is cyclic,
  /// or the phylum whose dependencies could not be peeled.
  CycleWitness Witness;
  unsigned Iterations = 0;

  bool operator==(const OagResult &) const = default;
};

/// Runs the OAG(k) test with repair budget \p K (default: the paper's
/// default OAG(0)). Requires AG.buildProductionInfo() to have run.
/// \p Opts selects the IDS fixpoint formulation (worklist engine vs naive
/// reference).
OagResult runOagTest(const AttributeGrammar &AG, unsigned K = 0,
                     const GfaOptions &Opts = {});

} // namespace fnc2

#endif // FNC2_ANALYSIS_OAG_H
