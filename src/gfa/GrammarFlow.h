//===- gfa/GrammarFlow.h - Grammar flow analysis engine ---------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Grammar Flow Analysis substrate (Möncke [38], with the improvements
/// of Jourdan & Parigot [26] in spirit): all circularity tests and the
/// ordered-partition computations are worklist fixpoints that propagate
/// per-phylum attribute relations through production dependency graphs.
/// This module provides the shared machinery: per-phylum relations, the
/// construction of augmented production graphs (DP(p) plus relations pasted
/// onto symbol occurrences), closure, and projection back onto phyla.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_GFA_GRAMMARFLOW_H
#define FNC2_GFA_GRAMMARFLOW_H

#include "grammar/AttributeGrammar.h"
#include "support/BitMatrix.h"
#include "support/Digraph.h"

namespace fnc2 {

/// One binary relation over the attributes of every phylum; entry (X, a, b)
/// reads "a must be available before b" (b transitively depends on a),
/// with a and b indexed by their position in the phylum's attribute list.
class PhylumRelation {
public:
  PhylumRelation() = default;
  explicit PhylumRelation(const AttributeGrammar &AG);

  BitMatrix &operator[](PhylumId P) { return Rels[P]; }
  const BitMatrix &operator[](PhylumId P) const { return Rels[P]; }

  /// Total number of related pairs across all phyla.
  unsigned totalPairs() const;

  bool operator==(const PhylumRelation &Other) const {
    return Rels == Other.Rels;
  }

private:
  std::vector<BitMatrix> Rels;
};

/// Options of the GFA fixpoints (SNC/DNC/OAG-IDS). The default is the
/// worklist engine of gfa/FixpointEngine.h: rounds over dirty productions,
/// dense word-parallel occurrence matrices, incrementally re-closed from
/// cached closures, all on the calling thread.
struct GfaOptions {
  /// Reference path: the textbook fixpoint (global re-sweeps over every
  /// production, heap-allocated augmented Digraphs, full Warshall closures,
  /// bit-at-a-time projection). Kept for differential tests and as the
  /// before-side of bench/generator_scaling.
  bool NaiveFixpoint = false;
};

/// Options selecting which relations get pasted onto which occurrences when
/// building an augmented production graph.
struct AugmentOptions {
  /// Relation pasted onto every RHS child occurrence ("from below", the IO
  /// graphs / argument selectors).
  const PhylumRelation *Below = nullptr;
  /// Relation pasted onto the LHS occurrence ("from above", the OI closure
  /// used by the DNC test).
  const PhylumRelation *Above = nullptr;
  /// Relation additionally pasted onto the LHS (used by Kastens' IDP
  /// computation where the symbol relation applies at every position).
  const PhylumRelation *BelowOnLhs = nullptr;
};

/// Builds DP(p) augmented with the requested relations. Node ids match the
/// production's dense occurrence ids.
Digraph buildAugmentedGraph(const AttributeGrammar &AG, ProdId P,
                            const AugmentOptions &Opts);

/// Computes the transitive closure of \p G as an occurrence BitMatrix.
BitMatrix closureOf(const Digraph &G);

/// Projects the closed occurrence relation \p Closure of production \p P
/// onto the attributes of the symbol at \p Pos (0 = LHS) and ors the result
/// into \p Into's relation for that phylum. Returns true iff bits changed.
bool projectOntoSymbol(const AttributeGrammar &AG, ProdId P, unsigned Pos,
                       const BitMatrix &Closure, PhylumRelation &Into);

} // namespace fnc2

#endif // FNC2_GFA_GRAMMARFLOW_H
