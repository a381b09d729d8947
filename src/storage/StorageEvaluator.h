//===- storage/StorageEvaluator.h - Storage-aware interpreter ---*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A visit-sequence evaluator that executes under a StorageAssignment:
/// variable-class attributes live in global variables, stack-class ones in
/// global stacks (cells die at the LEAVE of the visit that created them —
/// the paper's delayed POPs — and dead cells below a surviving one linger
/// until the suffix clears), and only tree-class attributes occupy node
/// slots. Copy rules whose endpoints share a cell are skipped (variables)
/// or share the cell (stacks). The evaluator counts peak live cells so the
/// benches can reproduce the paper's "factor of 4 to 8" storage reduction.
///
/// The simulation records each instance's cell index at its node; real
/// FNC-2 computes below-top access depths statically, which this dynamic
/// bookkeeping generalizes while keeping reads assert-checked.
///
/// The evaluator runs the CompiledPlan instruction stream with a
/// CompiledStorage side table: classes and groups pre-resolved per rule and
/// argument, cell indices in flat per-node arrays, reusable death and mark
/// buffers.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_STORAGE_STORAGEEVALUATOR_H
#define FNC2_STORAGE_STORAGEEVALUATOR_H

#include "eval/CompiledPlan.h"
#include "storage/Lifetime.h"
#include "support/Metrics.h"
#include "tree/Tree.h"

namespace fnc2 {

/// Dynamic storage counters. Reset/merge/export semantics are derived from
/// schema() (support/Metrics.h): every counter sums on merge except
/// PeakLiveCells, whose merge is the maximum — the largest single-tree
/// working set seen by any worker.
struct StorageStats {
  uint64_t PeakLiveCells = 0;   ///< Max simultaneous var+stack+tree cells.
  uint64_t TreeBaselineCells = 0; ///< Instances a tree-resident run stores.
  uint64_t StackPushes = 0;
  uint64_t VariableWrites = 0;
  uint64_t TreeWrites = 0;
  uint64_t CopiesSkipped = 0;
  uint64_t RulesEvaluated = 0;

  double reductionFactor() const {
    return PeakLiveCells == 0
               ? 0.0
               : double(TreeBaselineCells) / double(PeakLiveCells);
  }

  /// Names and merge kinds of every counter above.
  static std::span<const CounterField<StorageStats>> schema();

  void reset() { statsReset(*this); }

  /// Accumulates another worker's counters (batch join).
  void merge(const StorageStats &O) { statsMerge(*this, O); }

  /// Publishes every counter into \p R under its "storage.*" schema name.
  void exportTo(MetricsRegistry &R) const { statsExport(*this, R); }
};

/// Storage classes and groups resolved once per compiled rule/argument,
/// parallel to CompiledPlan::Rules and CompiledPlan::Args (the CompiledRule
/// SlotRefs already carry the site and frame slot; this adds where the
/// value *lives*). Shared read-only across batch workers like the
/// CompiledPlan itself.
struct CompiledStorage {
  struct Ref {
    StorageClass Class = StorageClass::TreeCell;
    uint32_t Group = 0;

    bool operator==(const Ref &) const = default;
  };
  struct RuleInfo {
    StorageClass Class = StorageClass::TreeCell; ///< Target's class.
    uint32_t Group = 0;                          ///< Target's group.
    bool IsCopy = false;     ///< Eliminated by grouping: cell sharing only.
    bool TargetDies = false; ///< Dies at the defining chunk's LEAVE
                             ///< (everything but LHS-synthesized results).

    bool operator==(const RuleInfo &) const = default;
  };
  std::vector<Ref> Args;       ///< Parallel to CompiledPlan::Args.
  std::vector<RuleInfo> Rules; ///< Parallel to CompiledPlan::Rules.
  /// By AttrId: where each attribute lives, for root-inherited installs.
  std::vector<Ref> Attrs;
  unsigned NumVarGroups = 0;
  unsigned NumStackGroups = 0;

  /// Empty side tables, for a plan generated without the space optimization.
  CompiledStorage() = default;
  CompiledStorage(const CompiledPlan &CP, const StorageAssignment &SA);

  bool operator==(const CompiledStorage &) const = default;
};

/// Evaluates an EvaluationPlan under a StorageAssignment.
class StorageEvaluator {
public:
  /// Borrows the compiled plan and its storage side table (the generator's
  /// bundle, shared by every engine and worker). \p CP and \p CS must
  /// outlive the evaluator, and \p CS must have been compiled from \p CP.
  StorageEvaluator(const CompiledPlan &CP, const CompiledStorage &CS);

  /// Slot-indexed by attribute id: O(1).
  void setRootInherited(AttrId A, Value V);

  /// When set, every attribute write is mirrored into the tree slots so
  /// tests can compare against the reference evaluator.
  void setMirrorToTree(bool On) { MirrorToTree = On; }

  bool evaluate(Tree &T, DiagnosticEngine &Diags);

  const StorageStats &stats() const { return Stats; }
  void resetStats() { Stats.reset(); }

private:
  struct StackGroup {
    std::vector<Value> Cells;
    std::vector<uint8_t> Dead;
  };
  /// A stack cell yet to die at some LEAVE: its group and index. Only stack
  /// writes record deaths; variables and tree cells have none.
  struct PendingDeath {
    unsigned Group;
    unsigned Index;
  };

  /// The visit-driver policy (eval/VisitDriver.h).
  struct Walk;

  bool installRootInherited(TreeNode *Root, DiagnosticEngine &Diags);
  void countBaseline(TreeNode *Root);

  bool execCompiledRule(TreeNode *N, uint32_t RI, size_t DeathBase,
                        DiagnosticEngine &Diags);
  const Value *readSlot(TreeNode *N, const SlotRef &Ref,
                        const CompiledStorage::Ref &C);
  void writeSlot(TreeNode *N, const SlotRef &Ref, StorageClass Class,
                 uint32_t Group, bool Dies, Value V);
  void mirrorWrite(TreeNode *N, const SlotRef &Ref, Value V);

  void noteLiveCells();
  void shrinkDeadSuffix(StackGroup &G);

  const CompiledPlan &CP;
  const CompiledStorage &CS;
  StorageStats Stats;
  bool MirrorToTree = false;
  /// Root-inherited values indexed by AttrId.
  std::vector<Value> RootInhVals;
  std::vector<uint8_t> RootInhSet;
  std::vector<Value> Vars;
  std::vector<uint8_t> VarSet;
  std::vector<StackGroup> Stacks;
  uint64_t TreeCellsLive = 0;
  uint64_t VarsLive = 0;

  /// Reusable argument buffer; semantic functions see a span into it.
  std::vector<Value> ArgBuf;
  /// Pending deaths of every active chunk, stacked: each visit records its
  /// base index on entry and truncates back at its LEAVE.
  std::vector<PendingDeath> DeathBuf;
  /// Per-VISIT stack watermarks, stacked the same way: a VISIT pushes one
  /// per stack group and its return pops them.
  std::vector<size_t> MarkBuf;
  /// Backing store for the nodes' CellIdx arrays, sized by the baseline
  /// walk; one entry per attribute/local slot, -1 = no cell yet.
  std::vector<int64_t> CellIdxArena;
  std::vector<TreeNode *> WalkBuf;
};

} // namespace fnc2

#endif // FNC2_STORAGE_STORAGEEVALUATOR_H
