//===- eval/CompiledPlan.h - Flat compiled evaluation plans -----*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plan compiler: lowers an EvaluationPlan's VisitSequence objects into
/// flat, cache-friendly instruction streams, the only form the visit-sequence
/// engines execute. The paper's claim (sections 3.2, 4) is that
/// visit-sequence evaluators are efficient because the sequences compile to
/// tight code; this is the runtime analogue for our engines.
///
/// Per (production, LHS partition) the compiler emits one contiguous run of
/// CompiledInstr: BEGINs are dissolved into per-visit start offsets, EVAL
/// rule sets become contiguous ranges of CompiledRule with every argument
/// and target pre-resolved to a frame slot (no AG.attr()/occName lookups at
/// eval time), and VISITs carry the son partition inline. Sequence lookup is
/// a dense (production x partition) table plus a per-node cache, so the hot
/// loop never searches the plan's sequence list.
///
/// One CompiledPlan is immutable after construction and is shared by every
/// engine — the batch evaluators compile once and hand the same plan to all
/// workers.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_EVAL_COMPILEDPLAN_H
#define FNC2_EVAL_COMPILEDPLAN_H

#include "tree/Tree.h"
#include "visitseq/VisitSequence.h"

namespace fnc2 {

/// Where a compiled rule argument is read from (or a target written to): a
/// frame slot of the node itself, a frame slot of one of its children, or
/// the node's lexeme.
struct SlotRef {
  enum class K : uint8_t { Self, Child, Lexeme };
  K Kind = K::Self;
  uint8_t Child = 0; ///< 0-based son index, valid for K::Child.
  uint16_t Slot = 0; ///< Frame slot (attribute slots first, locals after).

  bool operator==(const SlotRef &) const = default;
};

/// One semantic rule with pre-resolved argument and target slots.
struct CompiledRule {
  const SemanticFn *Fn = nullptr; ///< Null when the rule lacks a function.
  uint32_t FirstArg = 0;          ///< Into CompiledPlan::Args.
  uint16_t NumArgs = 0;
  bool IsCopy = false;
  SlotRef Target; ///< Never K::Lexeme.
  RuleId Orig = InvalidId;

  /// Fn compares by address: two compilations (or one compilation and one
  /// cache reload) against the same live grammar resolve a rule to the same
  /// SemanticFn object.
  bool operator==(const CompiledRule &) const = default;
};

/// One flat instruction. BEGIN is compiled away: each visit's body starts at
/// the offset the owning sequence records and runs to its Leave.
struct CompiledInstr {
  enum class Op : uint8_t { Eval, Visit, Leave };
  Op Kind = Op::Leave;
  uint8_t Child = 0;    ///< Visit: 0-based son index.
  uint16_t VisitNo = 0; ///< Visit: the son's visit number; Leave: own.
  uint32_t A = 0;       ///< Eval: first index into Rules; Visit: son partition.
  uint32_t B = 0;       ///< Eval: number of rules.

  bool operator==(const CompiledInstr &) const = default;
};

/// Frame geometry of nodes applying one production.
struct FrameShape {
  uint16_t NumAttrs = 0;
  uint16_t NumLocals = 0;

  bool operator==(const FrameShape &) const = default;
};

/// The compiled form of one (production, LHS partition) visit sequence.
struct CompiledSeq {
  ProdId Prod = InvalidId;
  unsigned Partition = 0;
  unsigned NumVisits = 0;
  uint32_t FirstInstr = 0; ///< Into CompiledPlan::Instrs.
  uint32_t FirstBegin = 0; ///< Into CompiledPlan::BeginOfs, NumVisits entries.
  FrameShape Frame;        ///< == Frames[Prod], duplicated for locality.

  bool operator==(const CompiledSeq &) const = default;
};

/// An attribute paired with its frame slot (phylum-indexed helper lists).
struct SlotAttr {
  AttrId Attr = InvalidId;
  uint16_t Slot = 0;

  bool operator==(const SlotAttr &) const = default;
};

/// Immutable compiled image of an EvaluationPlan. Construction resolves
/// every occurrence to a slot once; evaluation touches only the flat pools.
class CompiledPlan {
public:
  explicit CompiledPlan(const EvaluationPlan &Plan);

  const EvaluationPlan &plan() const { return *Src; }
  const AttributeGrammar &grammar() const { return *Src->AG; }

  /// Dense (production, partition) sequence lookup.
  const CompiledSeq *seqFor(ProdId P, unsigned Part) const {
    if (Part >= MaxPartition)
      return nullptr;
    int32_t I = SeqTable[size_t(P) * MaxPartition + Part];
    return I < 0 ? nullptr : &Seqs[static_cast<size_t>(I)];
  }

  /// The one diagnostic for a missing sequence: no compiled sequence of
  /// production \p P under partition \p Part, where seqFor(P, Part) is null.
  /// Every engine, native included, reports exactly this text.
  std::string missingSeqMessage(ProdId P, unsigned Part) const;

  /// Cached per-node lookup. Caches are nulled by Tree::resetAttributes(),
  /// and within one evaluation only a single plan touches the tree, so a
  /// non-null cache with a matching partition is this plan's.
  const CompiledSeq *seqForNode(TreeNode *N) const {
    if (const auto *S = static_cast<const CompiledSeq *>(N->SeqCache);
        S && S->Partition == N->PartitionId) {
      assert(S->Prod == N->Prod && "sequence cache crossed productions");
      return S;
    }
    const CompiledSeq *S = seqFor(N->Prod, N->PartitionId);
    N->SeqCache = S;
    return S;
  }

  const FrameShape &frameOf(ProdId P) const { return Frames[P]; }

  /// Absolute index (into Instrs) of the first instruction of visit
  /// \p VisitNo (1-based) of sequence \p S. The body runs from here to its
  /// Leave. Shared by the compiled evaluators and the code-generation
  /// backend's plan walker.
  uint32_t bodyStart(const CompiledSeq &S, unsigned VisitNo) const {
    assert(VisitNo >= 1 && VisitNo <= S.NumVisits && "visit out of range");
    return S.FirstInstr + BeginOfs[S.FirstBegin + VisitNo - 1];
  }
  void ensureFrame(TreeNode *N) const {
    const FrameShape &S = Frames[N->Prod];
    N->ensureFrame(S.NumAttrs, S.NumLocals);
  }

  //===--- flat pools, read-only for the engines --------------------------===//

  std::vector<CompiledInstr> Instrs;
  /// Per-visit body start offsets, relative to the owning seq's FirstInstr.
  std::vector<uint32_t> BeginOfs;
  /// Eval-ordered rule pool: each Eval instruction's rules are contiguous.
  std::vector<CompiledRule> Rules;
  /// By RuleId, for engines that look rules up via DefiningRule.
  std::vector<CompiledRule> ById;
  std::vector<SlotRef> Args;
  std::vector<CompiledSeq> Seqs;
  /// [Prod * MaxPartition + Part] -> index into Seqs, -1 when absent.
  std::vector<int32_t> SeqTable;
  unsigned MaxPartition = 0;
  std::vector<FrameShape> Frames; ///< By ProdId.
  unsigned MaxRuleArgs = 0;       ///< Widest argument list, sizes ArgBufs.

  /// Inherited / synthesized attributes of each phylum with their slots (in
  /// phylum attribute-list order), for root-inherited installation and the
  /// incremental evaluator's changed-attribute scans.
  std::vector<std::vector<SlotAttr>> InhByPhylum;
  std::vector<std::vector<SlotAttr>> SynByPhylum;

  //===--- derived cohort metadata (computeCohortMeta) --------------------===//

  /// By ProdId: 1 when any rule of the production reads a lexeme. The merged
  /// engine gives such productions a lexeme pseudo-slot lane so its inner
  /// loop stays branch-free.
  std::vector<uint8_t> LexemeUsed;
  /// Widest frame (attrs + locals) of any production; sizes per-position
  /// lane blocks in the merged engine's SoA arena.
  unsigned MaxFrameSlots = 0;

private:
  /// Computes the derived cohort metadata (LexemeUsed, MaxFrameSlots) the
  /// merged batch engine reads from the pools + grammar.
  /// planFingerprint() does not cover it.
  void computeCohortMeta(const AttributeGrammar &AG);

  const EvaluationPlan *Src = nullptr;
};

/// A stable structural fingerprint of a compiled plan: an FNV-1a hash over
/// the flat pools (instruction stream, rule targets and argument slots,
/// sequence table geometry, frame shapes). Two plans that could disagree on
/// a single frame layout or instruction hash differently, so persisted
/// incremental sessions — whose frame snapshots are only meaningful under
/// the exact plan that produced them — record it and reject resumption
/// under any other plan. Semantic function pointers are excluded: they are
/// process-local and identical plans reloaded from the artifact cache must
/// fingerprint identically.
uint64_t planFingerprint(const CompiledPlan &CP);

} // namespace fnc2

#endif // FNC2_EVAL_COMPILEDPLAN_H
