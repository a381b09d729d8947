//===- codegen/SoAEmitter.cpp ---------------------------------------------===//

#include "codegen/SoAEmitter.h"

#include "codegen/FnInliner.h"
#include "codegen/NativeABI.h"

#include <cstdio>
#include <set>

using namespace fnc2;

namespace {

std::string hex64(uint64_t V) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Pre-pass over one body: which sons it touches (hoisted SoaPos locals)
/// and whether any rule stays on the gather+call path (hoisted arg buffer).
class SonCollector : public InstrSink {
public:
  SonCollector(const AttributeGrammar &AG, const PlanWalker &W,
               const FnInlineTable &Inl)
      : AG(AG), W(W), Inl(Inl), CP(W.plan()) {}
  std::set<unsigned> Used;  ///< Sons touched by any rule or visit.
  bool HasCallRule = false; ///< Any tier-4 (gather+call) rule.

  void onRule(const CompiledRule &R, uint32_t PoolIdx) override {
    noteSlot(R.Target);
    const bool Tier1 = W.constIndexOf(PoolIdx) >= 0;
    const bool Tier2 = R.IsCopy && R.NumArgs == 1;
    if (!Tier1)
      for (unsigned I = 0; I != R.NumArgs; ++I)
        noteSlot(CP.Args[R.FirstArg + I]);
    if (Tier1 || Tier2)
      return;
    const bool Inlined =
        R.Orig != InvalidId && (!AG.rule(R.Orig).NativeExpr.empty() ||
                                !Inl.exprFor(R.Orig).empty());
    if (!Inlined)
      HasCallRule = true;
  }
  void onVisit(unsigned Child, unsigned, unsigned) override {
    Used.insert(Child);
  }
  void onLeave() override {}

private:
  void noteSlot(const SlotRef &S) {
    if (S.Kind == SlotRef::K::Child)
      Used.insert(S.Child);
  }

  const AttributeGrammar &AG;
  const PlanWalker &W;
  const FnInlineTable &Inl;
  const CompiledPlan &CP;
};

/// The emitting sink: transcribes one body's instructions as member loops
/// over the cohort's attribute lanes.
class SoaBodyEmitter : public InstrSink {
public:
  SoaBodyEmitter(const AttributeGrammar &AG, const PlanWalker &W,
                 const FnInlineTable &Inl, unsigned LexemeSlot,
                 std::string &Out, CppEmitResult &Res)
      : AG(AG), W(W), Inl(Inl), CP(W.plan()), LexemeSlot(LexemeSlot),
        Out(Out), Res(Res) {}

  void onRule(const CompiledRule &R, uint32_t PoolIdx) override {
    // Tier 1: broadcast one bind-time constant across the target lane.
    // Lanes start empty (the arena's layout() reset them), so stores are
    // plain — scatter-back performs the re-evaluation elision instead.
    if (int32_t CI = W.constIndexOf(PoolIdx); CI >= 0) {
      Out += "    { // " + fnName(R) + "\n";
      Out += "      const Value &s_ = ctx->Consts[" + std::to_string(CI) +
             "];\n";
      openTarget(R.Target);
      Out += "      for (size_t m_ = 0; m_ != nm; ++m_)\n"
             "        t_[m_] = s_;\n";
      closeTarget(R.Target);
      ++Res.ConstRules;
      return;
    }
    // Tier 2: a lane-to-lane copy loop. Source and target are distinct
    // (position, slot) lanes, so the restrict qualifiers hold.
    if (R.IsCopy && R.NumArgs == 1) {
      Out += "    { // " + fnName(R) + "\n";
      Out += "      const Value *__restrict s_ = " +
             laneOf(CP.Args[R.FirstArg]) + ";\n";
      openTarget(R.Target);
      Out += "      for (size_t m_ = 0; m_ != nm; ++m_)\n"
             "        t_[m_] = s_[m_];\n";
      closeTarget(R.Target);
      ++Res.CopyRules;
      return;
    }
    // Tier 3: native expression bodies inline into the member loop —
    // hand-written NativeExpr first, then FnInliner-lowered molga bodies.
    // A rule never reads its own target, so the argument lanes and the
    // target lane are disjoint.
    const std::string &Expr =
        R.Orig != InvalidId ? AG.rule(R.Orig).NativeExpr : EmptyExpr;
    const std::string &AstExpr =
        R.Orig != InvalidId ? Inl.exprFor(R.Orig) : EmptyExpr;
    if (!Expr.empty() || !AstExpr.empty()) {
      Out += "    { // " + fnName(R) + "\n";
      emitArgLanes(R);
      openTarget(R.Target);
      Out += "      for (size_t m_ = 0; m_ != nm; ++m_) {\n";
      for (unsigned I = 0; I != R.NumArgs; ++I)
        Out += "        const Value &a" + std::to_string(I) + " = A" +
               std::to_string(I) + "[m_];\n";
      Out += "        t_[m_] = " + (!Expr.empty() ? Expr : AstExpr) + ";\n";
      Out += "      }\n";
      closeTarget(R.Target);
      ++(!Expr.empty() ? Res.InlinedRules : Res.AstInlinedRules);
      return;
    }
    // Tier 4: gather into the hoisted buffer, call through a per-rule
    // hoisted function pointer.
    Out += "    { // " + fnName(R) + "\n";
    emitArgLanes(R);
    openTarget(R.Target);
    Out += "      const SemanticFn *const fn_ = ctx->Fns[" +
           std::to_string(PoolIdx) + "];\n";
    Out += "      for (size_t m_ = 0; m_ != nm; ++m_) {\n";
    for (unsigned I = 0; I != R.NumArgs; ++I)
      Out += "        b_[" + std::to_string(I) + "] = A" + std::to_string(I) +
             "[m_];\n";
    Out += "        t_[m_] = (*fn_)(std::span<const Value>(b_, " +
           std::to_string(R.NumArgs) + "));\n";
    Out += "      }\n";
    closeTarget(R.Target);
    ++Res.CallRules;
  }

  void onVisit(unsigned Child, unsigned ChildPartition,
               unsigned VisitNo) override {
    const std::string C = "c" + std::to_string(Child);
    Out += "    ctx->PartitionAt[" + C + "->Index] = " +
           std::to_string(ChildPartition) + ";\n";
    Out += "    ctx->Touched[" + C + "->Index] = 1;\n";
    Out += "    if (!soa_d_p" + std::to_string(ChildPartition) + "_v" +
           std::to_string(VisitNo) + "[" + C + "->Prod](" + C +
           ", ctx))\n      return false;\n";
  }

  void onLeave() override {}

private:
  /// `Value *__restrict t_ = <lane>;` plus, for child targets, the touch
  /// the interpreted engine performs when a rule materializes a son's frame
  /// before the son is visited.
  void openTarget(const SlotRef &T) {
    if (T.Kind == SlotRef::K::Child)
      Out += "      ctx->Touched[c" + std::to_string(T.Child) +
             "->Index] = 1;\n";
    Out += "      Value *__restrict t_ = " + laneOf(T) + ";\n";
  }

  /// Sets the target's computed bit — once per rule, not per member: the
  /// mask is per-position (cohort members compute in lockstep).
  void closeTarget(const SlotRef &T) {
    const std::string Site =
        T.Kind == SlotRef::K::Child ? "c" + std::to_string(T.Child) : "n";
    Out += "      " + Site + "->Mask[" + std::to_string(T.Slot >> 6) +
           "] |= 1ull << " + std::to_string(T.Slot & 63) + ";\n";
    Out += "    }\n";
  }

  /// One `const Value *__restrict AI = <lane>;` per argument.
  void emitArgLanes(const CompiledRule &R) {
    for (unsigned I = 0; I != R.NumArgs; ++I)
      Out += "      const Value *__restrict A" + std::to_string(I) + " = " +
             laneOf(CP.Args[R.FirstArg + I]) + ";\n";
  }

  /// The member-contiguous lane base of a slot reference. The body's
  /// production is fixed, so the lexeme pseudo-slot index (RealSlots of the
  /// production) is an emit-time constant.
  std::string laneOf(const SlotRef &S) const {
    switch (S.Kind) {
    case SlotRef::K::Self:
      return "n->Lane0 + " + std::to_string(S.Slot) + " * nm";
    case SlotRef::K::Child:
      return "c" + std::to_string(S.Child) + "->Lane0 + " +
             std::to_string(S.Slot) + " * nm";
    case SlotRef::K::Lexeme:
      return "n->Lane0 + " + std::to_string(LexemeSlot) + " * nm";
    }
    return {};
  }

  std::string fnName(const CompiledRule &R) const {
    return R.Orig != InvalidId ? AG.rule(R.Orig).FnName : "<anon>";
  }

  const AttributeGrammar &AG;
  const PlanWalker &W;
  const FnInlineTable &Inl;
  const CompiledPlan &CP;
  const unsigned LexemeSlot;
  std::string &Out;
  CppEmitResult &Res;
  const std::string EmptyExpr;
};

std::string soaBodyFnName(uint32_t SeqIdx, unsigned VisitNo) {
  return "soa_s" + std::to_string(SeqIdx) + "_v" + std::to_string(VisitNo);
}

} // namespace

CppEmitResult fnc2::emitSoaCpp(const AttributeGrammar &AG,
                               const PlanWalker &W) {
  const CompiledPlan &CP = W.plan();
  const unsigned NumProds = AG.numProds();
  const unsigned RootPart = CP.plan().RootPartition;
  const uint64_t Fp = planFingerprint(CP);

  CppEmitResult Res;
  Res.NumConsts = static_cast<uint32_t>(W.constPool().size());
  const FnInlineTable Inl = inlineSemanticFns(AG);
  std::string &S = Res.Source;
  S.reserve(1 << 16);

  S += "//===-- SoA cohort evaluator for grammar '" + AG.Name +
       "' (generated) --===//\n";
  S += "// plan fingerprint " + hex64(Fp) +
       "; emitted by codegen/SoAEmitter.\n";
  S += "// One member-loop function per (production, visit): each\n"
       "// instruction runs as a loop over the cohort's contiguous\n"
       "// attribute lanes (slot S of a position lives at Lane0 + S *\n"
       "// NumMembers). Concatenated after the scalar TU into one shared\n"
       "// object. Do not edit.\n\n";
  S += "#include \"codegen/NativeABI.h\"\n\n";
  S += "using namespace fnc2;\n";
  S += "using namespace fnc2::native;\n\n";
  S += "namespace {\n\n";

  S += "bool soa_fail(const SoaPos *N, SoaRunCtx *C) {\n"
       "  C->FailPos = N;\n"
       "  C->Fail = FailKind::NoSequence;\n"
       "  return false;\n"
       "}\n\n";

  // Forward declarations of every visit-body function.
  for (uint32_t SeqIdx = 0; SeqIdx != CP.Seqs.size(); ++SeqIdx)
    for (unsigned V = 1; V <= CP.Seqs[SeqIdx].NumVisits; ++V)
      S += "bool " + soaBodyFnName(SeqIdx, V) +
           "(const SoaPos *, SoaRunCtx *);\n";
  S += "\n";

  // Dispatch tables: per (partition, visit), by son production.
  for (const DispatchPair &DP : W.dispatchPairs()) {
    S += "constexpr SoaRunFn soa_d_p" + std::to_string(DP.Partition) + "_v" +
         std::to_string(DP.VisitNo) + "[] = {\n";
    for (unsigned P = 0; P != NumProds; ++P) {
      const CompiledSeq *Seq = CP.seqFor(P, DP.Partition);
      int32_t SeqIdx =
          Seq && DP.VisitNo <= Seq->NumVisits
              ? static_cast<int32_t>(Seq - CP.Seqs.data())
              : -1;
      S += "    ";
      S += SeqIdx >= 0 ? soaBodyFnName(static_cast<uint32_t>(SeqIdx),
                                       DP.VisitNo)
                       : std::string("soa_fail");
      S += ", // " + AG.prod(P).Name + "\n";
    }
    S += "};\n\n";
    ++Res.DispatchTables;
  }

  // Visit-body functions. Counters follow the interpreted merged engine:
  // every instruction (and the visit itself) counts once per member.
  for (uint32_t SeqIdx = 0; SeqIdx != CP.Seqs.size(); ++SeqIdx) {
    const CompiledSeq &Seq = CP.Seqs[SeqIdx];
    const FrameShape &F = CP.frameOf(Seq.Prod);
    const unsigned LexemeSlot = unsigned(F.NumAttrs) + F.NumLocals;
    for (unsigned V = 1; V <= Seq.NumVisits; ++V) {
      const BodyInfo B = W.body(SeqIdx, V);
      S += "// " + AG.prod(Seq.Prod).Name + ", partition " +
           std::to_string(Seq.Partition) + ", visit " + std::to_string(V) +
           "\n";
      S += "bool " + soaBodyFnName(SeqIdx, V) +
           "(const SoaPos *n, SoaRunCtx *ctx) {\n";
      S += "  (void)n;\n";
      S += "  const size_t nm = ctx->NumMembers;\n";
      S += "  ctx->VisitsPerformed += nm;\n";
      S += "  ctx->InstructionsExecuted += " + std::to_string(B.InstrCount) +
           " * nm;\n";
      if (B.RuleCount)
        S += "  ctx->RulesEvaluated += " + std::to_string(B.RuleCount) +
             " * nm;\n";
      SonCollector SC(AG, W, Inl);
      W.walkBody(SeqIdx, V, SC);
      // Sons are a consecutive SoaPos range starting at n->Sons; hoist a
      // pointer per used son.
      for (unsigned C : SC.Used)
        S += "  const SoaPos *const c" + std::to_string(C) + " = n->Sons + " +
             std::to_string(C) + ";\n";
      if (SC.HasCallRule)
        S += "  Value *const b_ = ctx->Args;\n";
      S += "  {\n";
      SoaBodyEmitter BE(AG, W, Inl, LexemeSlot, S, Res);
      W.walkBody(SeqIdx, V, BE);
      S += "  }\n";
      S += "  return true;\n}\n\n";
      ++Res.Bodies;
    }
  }

  // Root drivers: every visit of the production's root-partition sequence,
  // in order (what the host's interpreted visit loop does).
  for (unsigned P = 0; P != NumProds; ++P) {
    const CompiledSeq *Seq = CP.seqFor(P, RootPart);
    if (!Seq)
      continue;
    int32_t SeqIdx = static_cast<int32_t>(Seq - CP.Seqs.data());
    S += "bool soa_root_p" + std::to_string(P) +
         "(const SoaPos *n, SoaRunCtx *ctx) {\n";
    for (unsigned V = 1; V <= Seq->NumVisits; ++V)
      S += "  if (!" + soaBodyFnName(static_cast<uint32_t>(SeqIdx), V) +
           "(n, ctx))\n    return false;\n";
    S += "  return true;\n}\n\n";
  }
  S += "constexpr SoaRunFn soa_root_run[] = {\n";
  for (unsigned P = 0; P != NumProds; ++P) {
    S += "    ";
    S += CP.seqFor(P, RootPart) ? "soa_root_p" + std::to_string(P)
                                : std::string("soa_fail");
    S += ", // " + AG.prod(P).Name + "\n";
  }
  S += "};\n\n";
  S += "} // namespace\n\n";

  S += "extern \"C\" bool " + std::string(native::kSoaRunSymbol) +
       "(const SoaPos *root, SoaRunCtx *ctx) {\n";
  S += "  return soa_root_run[root->Prod](root, ctx);\n";
  S += "}\n";
  return Res;
}
