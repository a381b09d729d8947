//===- incremental/Incremental.h - Incremental evaluation -------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental attribute evaluator (paper section 2.1.2): an exhaustive
/// visit-sequence evaluator extended with *semantic control* that limits
/// reevaluation to affected instances. After one or more edits (subtree
/// replacement, in-place leaf value change, production swap), update()
/// re-runs visit sequences with two cutoffs:
///
///  * an EVAL whose arguments are all unchanged is skipped entirely;
///  * a VISIT descends only into sons whose subtree contains an edit or
///    whose inherited attributes changed;
///
/// and every recomputed value is compared against the stored one (the
/// changed / unchanged / unknown status of [42]), so propagation stops as
/// soon as old and new values agree. The comparison is pluggable — by
/// default structural equality on the persistent value domain.
///
/// Two strategies are provided: FromRoot re-drives the root's visits with
/// cutoffs; StartAnywhere begins at the edit's father and climbs only while
/// synthesized results keep changing, which is what the DNC selectors
/// (closed from below *and* above) license. Multiple subtree replacements
/// accumulate before a single update().
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_INCREMENTAL_INCREMENTAL_H
#define FNC2_INCREMENTAL_INCREMENTAL_H

#include "eval/Evaluator.h"

#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace fnc2 {

/// Counters demonstrating that work is proportional to the affected region.
/// Reset/merge/export semantics are derived from schema()
/// (support/Metrics.h), shared with the other evaluators' stats structs.
struct IncrementalStats {
  uint64_t RulesReevaluated = 0;
  uint64_t RulesSkipped = 0;   ///< EVAL cutoffs (arguments unchanged).
  uint64_t VisitsPerformed = 0;
  uint64_t VisitsSkipped = 0;  ///< VISIT cutoffs (clean son).
  uint64_t ValuesUnchanged = 0; ///< Recomputed but equal: propagation cut.

  /// Names and merge kinds of every counter above.
  static std::span<const CounterField<IncrementalStats>> schema();

  void reset() { statsReset(*this); }

  /// Accumulates another run's counters (e.g. across a sequence of
  /// updates).
  void merge(const IncrementalStats &O) { statsMerge(*this, O); }

  /// Publishes every counter into \p R under its "inc.*" schema name.
  void exportTo(MetricsRegistry &R) const { statsExport(*this, R); }
};

enum class UpdateStrategy : uint8_t { FromRoot, StartAnywhere };

/// Incremental evaluator over tree-resident attributes.
class IncrementalEvaluator {
public:
  /// Borrows the compiled plan: concurrent sessions share one immutable
  /// CompiledPlan and keep only per-session frames and marks. \p CP must
  /// outlive the evaluator.
  explicit IncrementalEvaluator(const CompiledPlan &CP)
      : CP(CP), Exhaustive(CP) {
    ArgBuf.resize(CP.MaxRuleArgs);
  }

  void setRootInherited(AttrId A, Value V) {
    Exhaustive.setRootInherited(A, std::move(V));
  }

  /// Overrides the equality used for change cutoff (paper: "the notion of
  /// equality used in this comparison can be adapted to the problem at
  /// hand").
  void setEquality(std::function<bool(const Value &, const Value &)> Eq) {
    Equal = std::move(Eq);
  }

  /// Full initial evaluation.
  bool initial(Tree &T, DiagnosticEngine &Diags);

  /// Replaces the subtree at \p Old by \p New, transferring the evaluation
  /// protocol (partition) and recording the edit site; returns the detached
  /// old subtree. Several edits may precede one update().
  std::unique_ptr<TreeNode> replaceSubtree(Tree &T, TreeNode *Old,
                                           std::unique_ptr<TreeNode> New);

  /// In-place lexeme change of a leaf operator. The lexeme has no changed
  /// mark of its own (it is not an attribute slot), so the node is recorded
  /// in a lexeme-changed set that argChanged() consults — without it the
  /// EVAL cutoff would silently skip every rule reading the new lexeme.
  void changeLeafValue(Tree &T, TreeNode *N, Value NewLexeme);

  /// Swaps the production applied at \p Old for \p NewProd (same LHS, same
  /// RHS phylum signature, same lexeme shape), keeping the children and
  /// their attribution. The kept children's inherited slots are force-
  /// cleared: the new production's rules may define them with different
  /// functions, and their old values being "computed" would otherwise
  /// satisfy the EVAL cutoff. Returns the new node.
  TreeNode *swapProduction(Tree &T, TreeNode *Old, ProdId NewProd);

  /// Re-establishes consistency after the recorded edits. After a failed
  /// initial() or update() the attribution is partial, and the cutoffs
  /// cannot tell a stale slot from a settled one: the next update() runs
  /// the whole exhaustive pass instead.
  bool update(Tree &T, DiagnosticEngine &Diags,
              UpdateStrategy Strategy = UpdateStrategy::StartAnywhere);

  /// True when no edit awaits an update(): the only state a session may
  /// save, since the pending-edit sets hold raw node pointers.
  bool quiescent() const {
    return EditSites.empty() && Dirty.empty() && LexemeChanged.empty();
  }

  /// Takes the tree's current attribution as complete and settled, as a
  /// restored session's is: forgets pending edits, a past failure and the
  /// last pass's memo.
  void resume();

  const IncrementalStats &stats() const { return Stats; }
  void resetStats() { Stats.reset(); }

private:
  /// The visit-driver policy (eval/VisitDriver.h).
  struct Walk;

  void clearEdits();
  /// Resets the per-update state (Changed and the revisit memo): every pass
  /// derives it from empty.
  void clearMemo();
  bool execEvalIncremental(TreeNode *N, uint32_t FirstRule, uint32_t NumRules,
                           DiagnosticEngine &Diags);
  bool isChanged(const TreeNode *Site, unsigned Slot) const;
  void markChanged(const TreeNode *Site, unsigned Slot, unsigned Count);
  /// Change test on a pre-resolved slot reference (frame slot numbering is
  /// identical to the Changed-mark numbering: attributes first, locals
  /// after).
  bool argChanged(TreeNode *N, const SlotRef &Ref) const;
  bool subtreeDirty(const TreeNode *N) const {
    return Dirty.count(N) != 0;
  }
  bool valueEqual(const Value &A, const Value &B) const {
    return Equal ? Equal(A, B) : A.equals(B);
  }

  /// Borrowed by the embedded exhaustive evaluator too, so initial() and
  /// update() maintain the same per-node sequence caches.
  const CompiledPlan &CP;
  Evaluator Exhaustive;
  /// The last initial() or update() failed (see update()).
  bool Failed = false;
  IncrementalStats Stats;
  std::function<bool(const Value &, const Value &)> Equal;
  /// Reusable argument buffer; semantic functions see a span into it.
  std::vector<Value> ArgBuf;

  /// Nodes whose subtree contains an edit (edit roots and their ancestors).
  std::unordered_set<const TreeNode *> Dirty;
  /// Edit roots recorded since the last update.
  std::vector<TreeNode *> EditSites;
  /// Leaves whose lexeme was changed in place since the last update;
  /// argChanged() reports their lexeme references as changed.
  std::unordered_set<const TreeNode *> LexemeChanged;
  /// Attribute-changed marks for the current update (per node bitset);
  /// locals are tracked after the attributes.
  std::unordered_map<const TreeNode *, std::vector<uint8_t>> Changed;

  /// Per-update revisit memo, rebuilt from empty by every update() and
  /// never persisted. The start-anywhere climb re-runs the full visit
  /// protocol at every ancestor; without a memo each level would re-descend
  /// into the (still dirty-marked, still changed-marked) edit region and
  /// redo its rules, making the climb cost O(affected x depth).
  /// WriteClock ticks on every attribute write; LastWrite records the tick
  /// that last wrote into a node; RevisitStamp records, per (node, visit),
  /// the clock at completion (+1, so 0 means "never ran this update"). A
  /// completed visit with no later write into the node would recompute
  /// byte-identical values — the descent is skipped.
  uint64_t WriteClock = 0;
  std::unordered_map<const TreeNode *, uint64_t> LastWrite;
  std::unordered_map<const TreeNode *, std::vector<uint64_t>> RevisitStamp;
};

} // namespace fnc2

#endif // FNC2_INCREMENTAL_INCREMENTAL_H
