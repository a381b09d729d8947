//===- analysis/Classify.h - AG class determination -------------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generator's test cascade (paper figure 3): SNC first (abort with a
/// trace on failure), then DNC, then OAG(k); the smallest class found is
/// what Table 1 reports per AG. Cascading costs the same as running the OAG
/// test from scratch because each phase reuses the previous phase's
/// relations.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_ANALYSIS_CLASSIFY_H
#define FNC2_ANALYSIS_CLASSIFY_H

#include "analysis/Circularity.h"
#include "analysis/Oag.h"

namespace fnc2 {

enum class AgClass : uint8_t {
  NotSNC, ///< Rejected: not strongly non-circular.
  SNC,    ///< SNC but not DNC: exhaustive evaluation via the transformation.
  DNC,    ///< DNC but not OAG(k) for the tested k.
  OAG,    ///< Ordered with repair budget UsedK.
};

/// Combined result of the cascade.
struct ClassifyResult {
  AgClass Class = AgClass::NotSNC;
  SncResult Snc;
  DncResult Dnc;
  OagResult Oag;
  bool DncRan = false;
  bool OagRan = false;

  bool operator==(const ClassifyResult &) const = default;

  /// "OAG(0)", "OAG(1)", "DNC", "SNC" or "not SNC" — the Table 1 notation.
  std::string className() const;
};

/// Runs the cascade with OAG repair budget \p OagK (the paper performs the
/// OAG(0) test by default but can be directed to test OAG(k) for any k).
/// \p Opts is threaded through all three tests: it selects the worklist
/// engine (default) or the naive reference fixpoint.
ClassifyResult classifyGrammar(const AttributeGrammar &AG, unsigned OagK = 0,
                               const GfaOptions &Opts = {});

} // namespace fnc2

#endif // FNC2_ANALYSIS_CLASSIFY_H
