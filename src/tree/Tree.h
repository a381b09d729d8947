//===- tree/Tree.h - Attributed abstract trees ------------------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explicitly-built attributed trees FNC-2 evaluators walk (the design
/// ruled out tree-less methods, paper section 1). Nodes know their operator,
/// children, parent link (needed by LEAVE and by incremental propagation),
/// an optional lexeme for leaf operators, and a single attribute *frame*:
/// one contiguous allocation holding the phylum's attribute slots, the
/// production's local slots, and a packed computed bitmap. Frames are bump-
/// allocated from the owning tree's FrameArena, so evaluating a tree touches
/// one cache-friendly block per node instead of four separate vectors.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_TREE_TREE_H
#define FNC2_TREE_TREE_H

#include "grammar/AttributeGrammar.h"
#include "value/Value.h"

#include <cstddef>
#include <memory>
#include <vector>

namespace fnc2 {

/// Bump allocator for attribute frames. One arena per Tree; frames live
/// until the arena dies, so detached subtrees stay readable as long as any
/// node still references the arena (nodes hold it by shared_ptr). Frames
/// never move. Chunks start small and double up to a cap, so a small tree
/// holds a small arena.
///
/// Not thread-safe: each tree (and therefore each batch worker, which owns
/// disjoint trees) allocates from its own arena.
class FrameArena {
public:
  FrameArena() = default;
  ~FrameArena();
  FrameArena(const FrameArena &) = delete;
  FrameArena &operator=(const FrameArena &) = delete;

  /// Allocates one frame: \p NumVals default-constructed Values followed by
  /// \p NumWords zeroed bitmap words, contiguously.
  std::pair<Value *, uint64_t *> allocFrame(unsigned NumVals,
                                            unsigned NumWords);

  /// Bytes of chunk memory held, used or not.
  size_t reservedBytes() const;

private:
  struct Chunk {
    std::unique_ptr<std::byte[]> Mem;
    size_t Used = 0;
    size_t Cap = 0;
  };
  std::vector<Chunk> Chunks;
  /// Every allocated frame's Value run, destroyed with the arena.
  std::vector<std::pair<Value *, uint32_t>> Frames;
};

/// One node of an attributed abstract tree.
struct TreeNode {
  ProdId Prod = InvalidId;
  TreeNode *Parent = nullptr;
  unsigned IndexInParent = 0;
  std::vector<std::unique_ptr<TreeNode>> Children;
  /// Lexical value of leaf operators declared with a lexeme slot.
  Value Lexeme;

  /// The attribute frame: FrameAttrs slots indexed like the phylum's
  /// attribute list, then FrameLocals slots for the production's locals,
  /// with per-slot computed bits packed into words. Null until an evaluator
  /// ensures storage; stays allocated across resetAttributes() (only the
  /// contents are cleared), which keeps re-evaluation allocation-free.
  Value *Slots = nullptr;
  uint64_t *ComputedBits = nullptr;
  uint16_t FrameAttrs = 0;
  uint16_t FrameLocals = 0;

  /// Partition assigned by the l-ordered evaluator (identifies which
  /// visit-sequence variant applies at this node).
  unsigned PartitionId = 0;

  /// Compiled visit-sequence cache (a CompiledSeq*), maintained by the
  /// compiled evaluators and invalidated by resetAttributes(). Opaque here
  /// to keep the tree layer independent of the plan compiler.
  const void *SeqCache = nullptr;

  /// Storage-evaluator scratch: per-slot stack cell indices, pointing into
  /// an arena owned by the StorageEvaluator that stamped it. Only meaningful
  /// during that evaluator's evaluate() call, which re-stamps every node
  /// before any use — never dereferenced outside it.
  int64_t *CellIdx = nullptr;

  /// Arena frames are allocated from; shared so frames outlive the Tree
  /// object if a detached subtree does.
  std::shared_ptr<FrameArena> Arena;

  TreeNode() = default;
  /// Tears the subtree down iteratively, so a deep tree does not recurse
  /// once per level through the Children destructors.
  ~TreeNode();
  TreeNode(const TreeNode &) = delete;
  TreeNode &operator=(const TreeNode &) = delete;

  TreeNode *child(unsigned I) const { return Children[I].get(); }
  unsigned arity() const { return static_cast<unsigned>(Children.size()); }

  //===--- frame access ---------------------------------------------------===//

  /// True once attribute storage has been ensured (and the node has at
  /// least one slot; zero-slot productions never allocate).
  bool hasFrame() const { return Slots != nullptr; }
  unsigned numSlots() const { return unsigned(FrameAttrs) + FrameLocals; }

  /// Allocates the frame if absent. \p NumAttrs / \p NumLocals come from
  /// the node's phylum / production.
  void ensureFrame(unsigned NumAttrs, unsigned NumLocals) {
    if (Slots || (NumAttrs | NumLocals) == 0)
      return;
    allocFrameSlow(NumAttrs, NumLocals);
  }

  /// Slot numbering: attribute I lives in slot I, local J in slot
  /// FrameAttrs + J (the same numbering the storage layer's StorageIdMap
  /// uses per node).
  Value &slot(unsigned S) {
    assert(Slots && S < numSlots() && "slot access without frame");
    return Slots[S];
  }
  const Value &slot(unsigned S) const {
    assert(Slots && S < numSlots() && "slot access without frame");
    return Slots[S];
  }
  bool slotComputed(unsigned S) const {
    assert(Slots && S < numSlots() && "slot access without frame");
    return (ComputedBits[S >> 6] >> (S & 63)) & 1;
  }
  void setSlotComputed(unsigned S) {
    ComputedBits[S >> 6] |= uint64_t(1) << (S & 63);
  }
  void clearSlotComputed(unsigned S) {
    ComputedBits[S >> 6] &= ~(uint64_t(1) << (S & 63));
  }

  /// Attribute/local views used by tests and non-hot paths.
  const Value &attrVal(unsigned I) const { return slot(I); }
  const Value &localVal(unsigned I) const { return slot(FrameAttrs + I); }
  bool attrComputed(unsigned I) const {
    return hasFrame() && I < FrameAttrs && slotComputed(I);
  }
  bool localComputed(unsigned I) const {
    return hasFrame() && slotComputed(FrameAttrs + I);
  }

private:
  void allocFrameSlow(unsigned NumAttrs, unsigned NumLocals);
};

/// Calls \p F on every node of \p Root's subtree in preorder. Iterative and
/// allocation-free: it climbs back through the Parent/IndexInParent links,
/// which every tree-building operation keeps (Tree::validate checks them).
template <typename NodeT, typename FnT> void forEachPreorder(NodeT *Root, FnT F) {
  NodeT *N = Root;
  for (;;) {
    F(N);
    if (N->arity() != 0) {
      N = N->child(0);
      continue;
    }
    // Climb to the nearest ancestor (within the subtree) with a next son.
    for (;;) {
      if (N == Root)
        return;
      NodeT *P = N->Parent;
      const unsigned Next = N->IndexInParent + 1;
      if (Next != P->arity()) {
        N = P->child(Next);
        break;
      }
      N = P;
    }
  }
}

/// Appends \p Root's subtree to \p Out in level order (BFS). Children of
/// position P start at 1 + sum of the arities of positions before P, so a
/// cohort shape's FirstChild table maps (position, son index) to the son's
/// position in O(1). Shared by the merged engine's cohort tests and the
/// storage evaluator's baseline count.
inline void appendLevelOrder(TreeNode *Root, std::vector<TreeNode *> &Out) {
  const size_t First = Out.size();
  Out.push_back(Root);
  for (size_t I = First; I != Out.size(); ++I)
    for (auto &C : Out[I]->Children)
      Out.push_back(C.get());
}

/// Owns a tree over a fixed grammar and provides constructors/validation.
class Tree {
public:
  explicit Tree(const AttributeGrammar &AG)
      : AG(&AG), Arena(std::make_shared<FrameArena>()) {}
  Tree(Tree &&) = default;
  Tree &operator=(Tree &&) = default;

  const AttributeGrammar &grammar() const { return *AG; }
  TreeNode *root() const { return Root.get(); }
  void setRoot(std::unique_ptr<TreeNode> N);

  /// Creates a node applying production \p P with the given children; the
  /// children's phyla are asserted against the production signature.
  std::unique_ptr<TreeNode>
  make(ProdId P, std::vector<std::unique_ptr<TreeNode>> Children = {},
       Value Lexeme = Value());

  /// Convenience: leaf node with a lexeme.
  std::unique_ptr<TreeNode> makeLeaf(ProdId P, Value Lexeme) {
    return make(P, {}, std::move(Lexeme));
  }

  /// Verifies parent/child structure, production signatures and phylum of
  /// the root against the grammar. Reports through \p Diags.
  bool validate(DiagnosticEngine &Diags) const;

  /// Total number of nodes.
  unsigned size() const;

  /// Clears evaluation state (attribute slots, computed bits, partitions,
  /// sequence caches) of the whole tree. Frames stay allocated.
  void resetAttributes();

  /// Replaces the subtree rooted at \p Old (which must be in this tree and
  /// not the root... the root is allowed too) by \p New; returns the detached
  /// old subtree. Phyla of old and new roots must agree.
  std::unique_ptr<TreeNode> replaceSubtree(TreeNode *Old,
                                           std::unique_ptr<TreeNode> New);

  /// Deep copy of a subtree (attribute state not copied).
  std::unique_ptr<TreeNode> clone(const TreeNode *N) const;

private:
  /// Points frameless nodes of \p N's subtree at this tree's arena (nodes
  /// that already carry a frame keep their original arena alive).
  void adoptSubtree(TreeNode *N);

  const AttributeGrammar *AG;
  std::shared_ptr<FrameArena> Arena;
  std::unique_ptr<TreeNode> Root;
};

/// Renders a subtree in the textual term syntax understood by TermReader,
/// e.g. "Add(Num<3>,Num<4>)".
std::string writeTerm(const AttributeGrammar &AG, const TreeNode *N);

/// Parses the textual term syntax into a tree over \p AG. Operators are
/// referenced by name; lexemes appear in angle brackets as integers or
/// double-quoted strings. Returns an empty tree and diagnostics on error.
Tree readTerm(const AttributeGrammar &AG, const std::string &Text,
              DiagnosticEngine &Diags);

} // namespace fnc2

#endif // FNC2_TREE_TREE_H
