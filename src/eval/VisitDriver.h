//===- eval/VisitDriver.h - The one visit-sequence interpreter --*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The visit-sequence interpreter of paper section 2.1.1, written once. It
/// runs the CompiledPlan instruction stream (EVAL / VISIT / LEAVE, BEGIN
/// compiled away) from an explicit stack of frames instead of the C++
/// stack, so a tree's depth costs heap, not native stack. Each frame is
/// (node, sequence, visit number, next instruction) plus a small
/// engine-specific extra.
///
/// The engines that interpret plans differ only in what an instruction
/// does, not in how the walk goes. Each supplies a policy with these hooks
/// (VisitPolicy below has the no-op defaults and an empty extra):
///
///   child(N, Son)        the son's handle (a TreeNode *, or a cohort
///                        position in the merged session);
///   prod(N)              the production applied at a handle;
///   seq(N, Part)         assigns partition Part to N and returns its
///                        compiled sequence, or null; ensures N's frame;
///   descend(F, I, C)     at VISIT I of frame F into son C: false skips the
///                        visit (the incremental cutoffs); may prepare the
///                        frame for the son's return (storage watermarks);
///   enter(F)             a frame was pushed: count the visit, note where
///                        its pending storage deaths start;
///   step()               once per executed instruction (counters);
///   eval(F, I)           run EVAL I's rules; false fails the walk;
///   leave(F)             F reached its LEAVE (storage's delayed POPs, the
///                        incremental revisit stamp);
///   returned(F)          in parent F after its son's LEAVE (storage's
///                        adoption of surviving cells);
///   fail(Msg)            report a walk-level failure.
///
/// Policy::Extra is the per-frame extra. Policy::Span names the per-visit
/// trace span ("eval.visit", ...), or is null for none. Spans open when a
/// frame is pushed and close when it pops; a failing walk closes every
/// open span, innermost first, so a failed trace still nests.
///
/// The native kernels (codegen/) and DemandEvaluator keep their own
/// recursion: the kernels' VISITs are calls through compiled dispatch
/// tables, and demand evaluation follows attribute dependencies rather
/// than visit sequences.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_EVAL_VISITDRIVER_H
#define FNC2_EVAL_VISITDRIVER_H

#include "eval/CompiledPlan.h"
#include "support/Trace.h"

#include <string>
#include <type_traits>
#include <vector>

namespace fnc2 {

/// One activation of a visit: node NodeT runs visit VisitNo of Seq, resuming
/// at Next. Trivial on purpose: the driver keeps the first frames in an
/// uninitialized inline array.
template <typename NodeT, typename ExtraT> struct VisitFrame {
  NodeT Node;
  const CompiledSeq *Seq;
  const CompiledInstr *Next;
  uint16_t VisitNo;
  bool SpanLive;
  [[no_unique_address]] ExtraT X;
};

/// No-op defaults for the optional hooks, and no frame extra; engines
/// derive and hide.
struct VisitPolicy {
  struct Extra {};
  static constexpr const char *Span = nullptr;
  bool descend(auto &, const CompiledInstr &, auto) { return true; }
  void enter(auto &) {}
  void step() {}
  void leave(auto &) {}
  void returned(auto &) {}
};

/// The hooks every engine over TreeNodes shares: handles are nodes, a node
/// caches its sequence (CompiledPlan::seqForNode), a node about to be
/// visited gets its attribute frame, and failures go to a DiagnosticEngine.
struct TreeVisitPolicy : VisitPolicy {
  using Node = TreeNode *;
  TreeVisitPolicy(const CompiledPlan &CP, DiagnosticEngine &Diags)
      : CP(CP), Diags(Diags) {}
  static TreeNode *child(TreeNode *N, unsigned Son) { return N->child(Son); }
  static ProdId prod(const TreeNode *N) { return N->Prod; }
  const CompiledSeq *seq(TreeNode *N, unsigned Part) const {
    N->PartitionId = Part;
    const CompiledSeq *S = CP.seqForNode(N);
    if (S)
      N->ensureFrame(S->Frame.NumAttrs, S->Frame.NumLocals);
    return S;
  }
  void fail(const std::string &Msg) { Diags.error(Msg); }

  const CompiledPlan &CP;
  DiagnosticEngine &Diags;
};

template <typename Policy> class VisitDriver {
public:
  using Node = typename Policy::Node;
  using Frame = VisitFrame<Node, typename Policy::Extra>;
  static_assert(std::is_trivial_v<Frame>, "frames live in raw storage");

  VisitDriver(const CompiledPlan &CP, Policy &P) : CP(CP), P(P) {}

  /// Assigns partition \p Part to \p N and runs every visit of its
  /// sequence in order, each to its LEAVE with every VISIT below it. False
  /// after the policy reported a failure.
  bool runNode(Node N, unsigned Part) {
    const CompiledSeq *Seq = P.seq(N, Part);
    if (!Seq)
      return missingSeq(N, Part);
    for (unsigned V = 1; V <= Seq->NumVisits; ++V) {
      for (Frame *F = push(N, Seq, V); F;) {
        const CompiledInstr &I = *F->Next++;
        P.step();
        switch (I.Kind) {
        case CompiledInstr::Op::Eval:
          if (!P.eval(*F, I))
            return unwind();
          break;
        case CompiledInstr::Op::Visit: {
          const Node C = P.child(F->Node, I.Child);
          if (!P.descend(*F, I, C))
            break;
          const CompiledSeq *CS = P.seq(C, I.A);
          if (!CS)
            return missingSeq(C, I.A);
          F = push(C, CS, I.VisitNo);
          break;
        }
        case CompiledInstr::Op::Leave:
          assert(I.VisitNo == F->VisitNo && "mismatched LEAVE");
          P.leave(*F);
          pop();
          F = Size ? &Base[Size - 1] : nullptr;
          if (F)
            P.returned(*F);
          break;
        }
      }
    }
    return true;
  }

private:
  Frame *push(Node N, const CompiledSeq *Seq, unsigned VisitNo) {
    assert(VisitNo >= 1 && VisitNo <= Seq->NumVisits && "visit out of range");
    if (Size == Cap) {
      // Spill to the heap, or double there.
      if (Base == Inline)
        Spill.assign(Inline, Inline + Size);
      Spill.resize(2 * Cap);
      Base = Spill.data();
      Cap = Spill.size();
    }
    Frame *F = &Base[Size++];
    F->Node = N;
    F->Seq = Seq;
    F->Next = &CP.Instrs[CP.bodyStart(*Seq, VisitNo)];
    F->VisitNo = static_cast<uint16_t>(VisitNo);
    F->SpanLive = false;
    if constexpr (Policy::Span != nullptr)
      F->SpanLive = FNC2_SPAN_BEGIN(Policy::Span);
    P.enter(*F);
    return F;
  }

  void pop() {
    --Size;
    if constexpr (Policy::Span != nullptr)
      FNC2_SPAN_END(Policy::Span, Base[Size].SpanLive);
  }

  /// Failure: closes every open span, innermost first.
  bool unwind() {
    while (Size != 0)
      pop();
    return false;
  }

  bool missingSeq(Node N, unsigned Part) {
    P.fail(CP.missingSeqMessage(P.prod(N), Part));
    return unwind();
  }

  const CompiledPlan &CP;
  Policy &P;
  /// Frames start in the inline array, so typical trees walk without a
  /// heap allocation (the per-tree batch engines build one driver per
  /// tree); deeper walks spill to Spill.
  static constexpr size_t InlineFrames = 64;
  Frame Inline[InlineFrames];
  std::vector<Frame> Spill;
  Frame *Base = Inline;
  size_t Size = 0;
  size_t Cap = InlineFrames;
};

} // namespace fnc2

#endif // FNC2_EVAL_VISITDRIVER_H
