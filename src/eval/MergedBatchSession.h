//===- eval/MergedBatchSession.h - Shape-merged batch pipeline --*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shape-merged batch pipeline: groups the trees of a batch by
/// production shape (the level-order production sequence — productions
/// have fixed arity, so it determines the structure completely), lays each
/// cohort's attribute frames out structure-of-arrays (storage/SoAFrames.h),
/// and executes every visit-sequence instruction of the shared CompiledPlan
/// *once per cohort*: the shadow walk runs over shape positions, and only
/// the innermost semantic-function loop iterates over members. Per-tree
/// dispatch, sequence lookup, frame setup and task hand-off are all
/// amortized across the cohort — GeNN's merged-group design applied to
/// attribute evaluation.
///
/// The pipeline has three steps, and a session exposes them separately:
///
///   MergedBatchSession S(Plan, Pool);
///   S.bind(Trees);                  // forms cohorts and shards, once
///   for (;;) {
///     ... mutate leaf lexemes / root-inherited values ...
///     S.evaluate();                 // re-reads leaves, reruns the visits
///     ... read results via rootSlot() ...
///   }
///   S.flush();                      // full attribution back into the trees
///
/// bind() walks the trees once: formation (hashing and grouping), the
/// cohort shards of at most shardMaxMembers() members each with their
/// resident lane arenas (laid out by the first evaluation), and per shard
/// a table of pointers to every lexeme-carrying node's lexeme. evaluate()
/// re-gathers every lexeme through that table and re-applies the
/// root-inherited values, so leaf data and root inputs may change freely
/// between rounds; structure must not (no setRoot/replaceSubtree/child
/// surgery on bound trees — the same pinning contract the incremental
/// sessions place on their trees). Results live in the resident lanes:
/// rootSlot() reads a root attribute directly, and flush() scatters the
/// complete attribution into the tree frames when (and only when) full
/// per-node results are needed. Shape groups smaller than
/// cohortThreshold() run the classic per-tree path (one Evaluator per tree
/// over the same shared plan) each round, writing their trees directly.
///
/// MergedBatchEvaluator (eval/MergedBatchEvaluator.h) is the one-shot entry
/// point: bind → evaluate → flush per call over the same session. A rebind
/// reuses the previous binding's lane arenas and flat buffers, so calling
/// it every round does not re-fault lane storage.
///
/// Because every member of a cohort executes the identical instruction
/// stream, plan-level failures (missing visit sequence, rule without a
/// semantic function, unset root-inherited attribute) hit every member at
/// the same instruction with the same diagnostic the sequential Evaluator
/// emits; the failed members' trees are reset rather than left with the
/// sequential engine's partial attribution. MergedStats' three EvalStats
/// mirror counters fold to exactly the sum of the per-member sequential
/// counters, on success and failure alike (DifferentialTest pins this).
///
/// setKernel() with a NativeCohortKernel runs every cohort shard through
/// the native backend's compiled SoA entry point. bench/batch_throughput
/// gates the compiled kernels >= 1.5x over the interpreted visits on the
/// resident session, where the per-round node passes of bind and flush do
/// not dominate both alike.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_EVAL_MERGEDBATCHSESSION_H
#define FNC2_EVAL_MERGEDBATCHSESSION_H

#include "eval/BatchEvaluator.h"
#include "storage/SoAFrames.h"
#include "support/ThreadPool.h"

namespace fnc2 {

/// Merged-engine counters: the first three mirror EvalStats (and fold to
/// the same totals as per-tree sequential evaluation); the rest describe
/// cohort formation, including a shape-group size histogram. Formation
/// counters are reset by every bind; the dynamic ones by every evaluation.
struct MergedStats {
  uint64_t RulesEvaluated = 0;
  uint64_t VisitsPerformed = 0;
  uint64_t InstructionsExecuted = 0;

  /// Trees that ran through a merged cohort vs the per-tree fallback.
  uint64_t TreesMerged = 0;
  uint64_t TreesFallback = 0;
  /// Shape groups that ran merged, and pool work items executed for them.
  uint64_t CohortsFormed = 0;
  uint64_t ShardsExecuted = 0;

  /// Histogram of *all* shape-group sizes (merged and fallen-back alike);
  /// named buckets because CounterField addresses scalar members.
  uint64_t CohortsLt4 = 0;
  uint64_t CohortsLt16 = 0;
  uint64_t CohortsLt64 = 0;
  uint64_t CohortsLt256 = 0;
  uint64_t CohortsLt1024 = 0;
  uint64_t CohortsGe1024 = 0;

  static std::span<const CounterField<MergedStats>> schema();
  void reset() { statsReset(*this); }
  void merge(const MergedStats &O) { statsMerge(*this, O); }
  void exportTo(MetricsRegistry &R) const { statsExport(*this, R); }
};

/// One shared tree shape: everything the shadow walk needs, resolved once
/// per cohort from the representative tree.
struct CohortShape {
  /// Level-order production sequence; Prods.size() positions.
  std::vector<ProdId> Prods;
  /// Son S of position P lives at FirstChild[P] + S (level-order BFS
  /// guarantees contiguous child blocks).
  std::vector<uint32_t> FirstChild;
  /// Attribute + local slots per position.
  std::vector<uint16_t> RealSlots;
  /// RealSlots plus one lexeme pseudo-slot where the production reads its
  /// lexeme (CompiledPlan::LexemeUsed), keeping the gather loop branch-free.
  std::vector<uint16_t> LaneSlots;
  /// Positions owning a lexeme pseudo-slot, gathered before the visits.
  std::vector<uint32_t> LexemePositions;
};

/// One cohort: a shape plus the member trees (batch indices) sharing it.
struct Cohort {
  CohortShape Shape;
  std::vector<uint32_t> Members;
};

/// The result of cohort formation over one batch. level(I) is tree I's
/// level-order node sequence (empty for rootless trees), alive only while
/// the batch's trees are. All sequences share one flat buffer: per-tree
/// vectors would cost an allocation per batch member, which dominates
/// formation time on 100k-tree batches.
///
/// The walk also captures per-node frame pointers into a LevelBuf-indexed
/// side array while the node's cache lines are hot, so scatter never
/// chases node headers again. On batches larger than the cache this
/// converts scatter's random dependent misses into the walk's sequential,
/// prefetchable ones.
struct CohortSet {
  std::vector<Cohort> Cohorts;
  /// Batch indices evaluated per-tree: members of sub-threshold shape
  /// groups, plus rootless trees (whose diagnostic the classic Evaluator
  /// already phrases correctly).
  std::vector<uint32_t> Fallback;
  /// Tree I's nodes occupy LevelBuf[LevelOff[I] .. LevelOff[I + 1]).
  std::vector<TreeNode *> LevelBuf;
  std::vector<uint32_t> LevelOff;
  /// One node's walk-captured execution context. The computed-bit words
  /// are not captured separately: FrameArena::allocFrame lays them out
  /// directly after the Value run (static_assert'd there), so they are
  /// Frame + NumSlots.
  struct NodeCap {
    /// The node's frame at walk time; null when not yet materialized
    /// (scatter then allocates through the node).
    Value *Frame = nullptr;
    /// PartitionId if SeqCache was null, ~0 otherwise: scatter skips the
    /// node-header stores when this already equals the partition it would
    /// write, which keeps headers read-only on re-evaluated batches.
    uintptr_t PartSeq = ~uintptr_t(0);
  };
  /// Walk-captured context, LevelBuf-indexed.
  std::vector<NodeCap> CapBuf;

  std::span<TreeNode *const> level(size_t I) const {
    return {LevelBuf.data() + LevelOff[I], LevelOff[I + 1] - LevelOff[I]};
  }
};

/// Replaces the interpreted shadow walk of one cohort shard with an
/// external implementation (the native backend's compiled SoA kernels,
/// codegen/NativeMergedEvaluator.h). The pipeline still performs cohort
/// formation, lane layout, lexeme and root-inherited fill, the root
/// sequence check and scatter-back; the kernel only runs the visit loop
/// over the laid-out lanes. Implementations must be thread-safe: shards
/// run concurrently on the pool with one run() call each.
class CohortKernel {
public:
  virtual ~CohortKernel() = default;

  /// Everything one shard hands the kernel. The arena is laid out for
  /// (Shape, NumMembers) with lexeme pseudo-slots and root-inherited lanes
  /// filled (their computed bits set); PartitionAt/Touched are
  /// position-indexed with the root already marked; ArgBuf holds
  /// MaxRuleArgs reusable values.
  struct Shard {
    const CohortShape &Shape;
    unsigned NumMembers;
    SoAFrameArena &Arena;
    uint32_t *PartitionAt;
    uint8_t *Touched;
    Value *ArgBuf;
  };

  /// Runs every root visit over the shard. On failure returns false with
  /// \p FailMsg phrased exactly like the interpreted engine's diagnostics.
  /// Must fold the same per-member counters into \p WS that the
  /// interpreted walk would (the differential suites pin equality).
  virtual bool run(const Shard &S, MergedStats &WS, std::string &FailMsg) = 0;
};

/// The join of one resident evaluation round. Deliberately lighter than
/// BatchResult: a per-tree outcome deque costs a 100k-element construction
/// and sweep every round, which on the session's target workload (tiny
/// trees, resident lanes) rivals the evaluation itself. Failures carry
/// their diagnostics here as (tree index, message) pairs instead —
/// cohort failures hold the shape-determined message, fallback failures
/// the classic engine's diagnostic dump.
struct SessionResult {
  unsigned NumTrees = 0;
  unsigned NumSucceeded = 0;
  /// Folded dynamic counters, same totals as sequential evaluation's.
  EvalStats Stats;
  /// One entry per failed tree; grouped by work item, not index-sorted.
  std::vector<std::pair<uint32_t, std::string>> Failures;

  bool allSucceeded() const { return NumSucceeded == NumTrees; }
};

/// Binds a batch of trees once and re-evaluates it with resident cohort
/// lanes. Counters and diagnostics match per-tree sequential evaluation;
/// the differential tests pin flush()ed attribution bit-identical to it.
class MergedBatchSession {
public:
  /// Compiles the plan privately.
  MergedBatchSession(const EvaluationPlan &Plan, ThreadPool &Pool);
  /// Borrows an already-compiled plan (e.g. out of the artifact cache);
  /// \p Compiled must outlive the session and match \p Plan.
  MergedBatchSession(const EvaluationPlan &Plan, const CompiledPlan &Compiled,
                     ThreadPool &Pool);

  /// Root inherited attributes applied to every tree of the batch; may be
  /// updated between evaluate() calls (each evaluation re-applies them).
  void setRootInherited(AttrId A, Value V);

  /// Shape groups smaller than this run the per-tree fallback. 1 merges
  /// everything (singleton cohorts included). Effective at the next bind().
  void setCohortThreshold(unsigned T) { CohortThreshold = T == 0 ? 1 : T; }
  unsigned cohortThreshold() const { return CohortThreshold; }

  /// Upper bound on members per pool work item; smaller shards expose more
  /// parallelism, larger ones amortize more setup. Effective at the next
  /// bind().
  void setShardMaxMembers(unsigned M) { ShardMaxMembers = M == 0 ? 1 : M; }
  unsigned shardMaxMembers() const { return ShardMaxMembers; }

  /// Installs (or, with null, removes) a cohort kernel that replaces the
  /// interpreted visit loop of every merged shard; the per-tree fallback
  /// path is unaffected. Borrowed; may be swapped between evaluate() calls
  /// (the differential tests alternate it).
  void setKernel(CohortKernel *K) { Kernel = K; }
  CohortKernel *kernel() const { return Kernel; }

  /// Pins \p Trees and forms their cohorts: one structure pass, one
  /// resident lane arena per shard. The trees must outlive the session
  /// (or the next bind()) and keep their structure; lexeme values may
  /// change between evaluations. Rebinding releases the previous batch
  /// but keeps its buffers' capacity.
  void bind(std::vector<Tree> &Trees);
  bool bound() const { return Batch != nullptr; }

  /// Re-evaluates the bound batch: re-reads every lexeme from its node,
  /// re-applies the root-inherited values, reruns every visit over the
  /// resident lanes (kernel or interpreted). Trees of failed cohorts are
  /// reset and diagnosed with the sequential engine's message; successful
  /// cohort trees carry no attribution until flush().
  SessionResult evaluate() { return run(nullptr); }

  /// Whether tree \p TreeIdx succeeded in the most recent evaluate().
  bool succeeded(size_t TreeIdx) const { return TreeOk[TreeIdx] != 0; }

  /// Root attribute/local of tree \p TreeIdx, TreeNode slot numbering.
  /// Cohort members read the resident root lane — valid after a successful
  /// evaluate() and invalidated by flush(), which moves lane contents into
  /// the frames; fallback trees read their (always-written) root node.
  const Value &rootSlot(size_t TreeIdx, unsigned Slot) const;

  /// Scatters every successful cohort's full attribution into the tree
  /// frames (idempotent-store elision included), after which the batch's
  /// trees read exactly as if the sequential Evaluator had run, except
  /// that failed cohort trees are reset. One-shot per evaluation:
  /// scattering moves the lane contents into the frames, so flush() is a
  /// no-op unless a successful evaluate() has run since the last flush().
  /// rootSlot() reads through to the frames after a flush.
  void flush();

  /// Formation counters of the current binding plus the dynamic counters
  /// of the most recent evaluate().
  const MergedStats &mergedStats() const { return Stats; }
  const CompiledPlan &compiled() const { return *CP; }

private:
  /// The one-shot engine drives bind → run → flush → release.
  friend class MergedBatchEvaluator;

  /// One pool work item: members [Begin, End) of cohort Cohort, or with
  /// Cohort == ~0 a chunk of CohortSet::Fallback.
  struct Item {
    uint32_t Cohort;
    uint32_t Begin, End;
  };

  /// One cohort shard's resident state: bound at bind, its arena laid out
  /// by the first evaluation.
  struct Shard {
    SoAFrameArena Arena;
    std::vector<Value> ArgBuf;
    std::vector<Value *> BasePtrs;
    /// Per-member rows of level-order nodes: Rows[M][Pos].
    std::vector<TreeNode *const *> Rows;
    /// Per-member rows into CohortSet::CapBuf, same indexing as Rows.
    std::vector<CohortSet::NodeCap *> CapRows;
    /// &node->Lexeme of every lexeme position, lexeme-position major
    /// (entry L * NumMembers + M): node addresses are stable under the
    /// pinning contract, so the per-round gather walks one sequential
    /// pointer array instead of chasing Rows[M][Pos] per value.
    std::vector<const Value *> LexPtrs;
    /// Positions whose frames materialized (visited, written as a child
    /// target, or the root); only they scatter frames back.
    std::vector<uint8_t> Touched;
    std::vector<uint32_t> PartitionAt;
    /// Whether the most recent evaluation of this shard succeeded.
    bool Ok = false;
  };

  /// Groups \p Trees into \p Set (its buffers' capacity reused) and resets
  /// Stats to the formation counters.
  void form(std::vector<Tree> &Trees, CohortSet &Set);
  /// One evaluation round over the bound batch. With \p Outcomes (the
  /// one-shot engine's BatchResult outcomes), each failed tree's
  /// diagnostics go to its outcome; otherwise they go into
  /// SessionResult::Failures.
  SessionResult run(std::deque<BatchTreeOutcome> *Outcomes);
  /// Drops every pointer into the bound trees; capacity is kept.
  void release();

  bool runMergedVisit(const CohortShape &Shape, size_t Pos,
                      const CompiledSeq *Seq, unsigned VisitNo,
                      unsigned NumMembers, Shard &S, MergedStats &WS,
                      std::string &FailMsg);
  bool execMergedRule(const CohortShape &Shape, size_t Pos,
                      const CompiledRule &R, unsigned NumMembers, Shard &S,
                      std::string &FailMsg);
  void scatterShard(const CohortShape &Shape, unsigned NumMembers, Shard &S);

  const EvaluationPlan &Plan;
  ThreadPool &Pool;
  std::unique_ptr<const CompiledPlan> OwnedCP;
  const CompiledPlan *CP;
  std::vector<std::pair<AttrId, Value>> RootInh;
  CohortKernel *Kernel = nullptr;
  unsigned CohortThreshold = 4;
  /// 256 balances lane-stride cache footprint against per-shard setup on
  /// the batch_throughput merged-scaling sweep (512 ties, 1024 spills L2).
  unsigned ShardMaxMembers = 256;

  std::vector<Tree> *Batch = nullptr;
  CohortSet Set;
  /// form()'s working arrays, kept with Set so a rebind re-grows nothing.
  std::vector<uint32_t> ProdScratch;
  std::vector<uint64_t> HashScratch;
  /// Cohort shards first (Shards-indexed 1:1), then fallback chunks.
  std::vector<Item> Items;
  /// Per-shard resident state; a rebind re-lays these arenas out in place
  /// instead of re-faulting fresh lane storage.
  std::vector<Shard> Shards;
  /// Per-tree success of the most recent evaluate(); resident so a round
  /// only pays one memset, not a per-tree outcome construction.
  std::vector<uint8_t> TreeOk;
  /// Tree index -> (shard, member) or (~0, 0) for fallback trees.
  std::vector<std::pair<uint32_t, uint32_t>> TreeLoc;
  MergedStats FormStats;
  MergedStats Stats;
  bool Evaluated = false;
  /// The root-inherited lanes still hold the current values (they persist
  /// across rounds; cleared by bind, flush — which moves lanes out — and
  /// setRootInherited), so evaluate() can skip the per-member refill.
  bool RootLanesValid = false;
  /// The shards' arenas are laid out for the current binding.
  bool LanesLaidOut = false;
};

} // namespace fnc2

#endif // FNC2_EVAL_MERGEDBATCHSESSION_H
