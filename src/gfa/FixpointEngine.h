//===- gfa/FixpointEngine.h - Worklist GFA fixpoint engine ------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared engine behind the SNC, DNC and OAG-IDS fixpoints. The textbook
/// formulation re-sweeps every production each iteration, rebuilding its
/// augmented dependency graph on the heap, re-running a full Warshall
/// closure and projecting bit by bit. This engine replaces all of that with:
///
///  * worklist rounds — a phylum -> productions incidence map (built once on
///    the AttributeGrammar) dirties exactly the productions incident to a
///    phylum whose relation changed in the previous round;
///  * word-parallel dense kernels — each production's occurrence matrix is
///    built directly from the precomputed DP BitMatrix, relations are pasted
///    and projected 64 bits per operation via BitMatrix::orRowSpan;
///  * incremental closures — each production caches its occurrence matrix
///    and its transitive closure across rounds; a re-processed production
///    only propagates the edges that are new since its last closure
///    (BitMatrix::closeWithEdge), falling back to a closure-seeded Warshall
///    when a round adds many edges at once.
///
/// Every round runs on the calling thread, like the paper's sequential
/// worklist GFA: the probe in DESIGN.md §9 measured a thread-pool fan-out of
/// the closure steps slower than this loop on the largest roster grammar.
///
/// Chaotic-iteration of a monotone operator over a finite lattice converges
/// to the unique least fixpoint regardless of processing order, so the
/// relations this engine computes are bit-identical to the naive sweep's
/// (pinned by the differential tests in tests/AnalysisTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_GFA_FIXPOINTENGINE_H
#define FNC2_GFA_FIXPOINTENGINE_H

#include "gfa/GrammarFlow.h"

#include <utility>
#include <vector>

namespace fnc2 {

/// Which occurrence blocks of the closed production graph are projected
/// back into the target relation each round: the LHS block (SNC), the child
/// blocks (DNC), or every block (OAG's IDS).
enum class GfaProject : uint8_t { Lhs, Children, All };

/// One fixpoint run over a grammar. The caches live as long as the engine,
/// so a test can run the fixpoint and then read the final closures for its
/// acyclicity check without rebuilding a single augmented graph.
class GfaFixpoint {
public:
  explicit GfaFixpoint(const AttributeGrammar &AG);

  /// Runs the worklist fixpoint to convergence: every production starts
  /// dirty; each round re-pastes \p Paste onto the dirty productions'
  /// cached occurrence matrices, re-closes them incrementally, and merges
  /// the \p Kind projections into \p Target, dirtying the productions
  /// incident to any phylum whose relation grew. \p Target must be one of
  /// the relations \p Paste points at (that feedback is what makes it a
  /// fixpoint). Returns the number of rounds.
  unsigned run(const AugmentOptions &Paste, GfaProject Kind,
               PhylumRelation &Target);

  /// The cached closure of production \p P's augmented graph; consistent
  /// with the final relations once run() returned.
  const BitMatrix &closure(ProdId P) const { return Closures[P]; }

  /// First production (in ProdId order) whose closed augmented graph
  /// contains a cycle, or InvalidId when all are acyclic. This is the
  /// SNC/DNC/IDS acyclicity check, straight off the cached closures.
  ProdId firstCyclicProd() const;

private:
  /// Rebuilds production \p P's occurrence matrix (pasting \p Paste
  /// word-parallel), collects the edges new since its cached closure, and
  /// re-closes.
  void processProd(ProdId P, const AugmentOptions &Paste);

  const AttributeGrammar &AG;

  /// Per-production buffers, reused across rounds: the occurrence matrix
  /// and its transitive closure.
  std::vector<BitMatrix> OccMats;
  std::vector<BitMatrix> Closures;
  std::vector<char> HasCache;
  /// processProd's scratch: the edges new since the cached closure, and
  /// orRowSpanCollect's newly-set column indices.
  std::vector<std::pair<unsigned, unsigned>> NewEdges;
  std::vector<unsigned> ColBuf;
};

} // namespace fnc2

#endif // FNC2_GFA_FIXPOINTENGINE_H
