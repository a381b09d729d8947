//===- eval/MergedBatchSession.cpp - Shape-merged batch pipeline ----------===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//

#include "eval/MergedBatchSession.h"

#include "eval/Evaluator.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>

using namespace fnc2;

std::span<const CounterField<MergedStats>> MergedStats::schema() {
  static constexpr CounterField<MergedStats> Fields[] = {
      {"merged.rules_evaluated", &MergedStats::RulesEvaluated},
      {"merged.visits_performed", &MergedStats::VisitsPerformed},
      {"merged.instructions_executed", &MergedStats::InstructionsExecuted},
      {"merged.trees_merged", &MergedStats::TreesMerged},
      {"merged.trees_fallback", &MergedStats::TreesFallback},
      {"merged.cohorts_formed", &MergedStats::CohortsFormed},
      {"merged.shards_executed", &MergedStats::ShardsExecuted},
      {"merged.cohorts_lt4", &MergedStats::CohortsLt4},
      {"merged.cohorts_lt16", &MergedStats::CohortsLt16},
      {"merged.cohorts_lt64", &MergedStats::CohortsLt64},
      {"merged.cohorts_lt256", &MergedStats::CohortsLt256},
      {"merged.cohorts_lt1024", &MergedStats::CohortsLt1024},
      {"merged.cohorts_ge1024", &MergedStats::CohortsGe1024},
  };
  return Fields;
}

MergedBatchSession::MergedBatchSession(const EvaluationPlan &Plan,
                                       ThreadPool &Pool)
    : Plan(Plan), Pool(Pool),
      OwnedCP(std::make_unique<CompiledPlan>(Plan)), CP(OwnedCP.get()) {}

MergedBatchSession::MergedBatchSession(const EvaluationPlan &Plan,
                                       const CompiledPlan &Compiled,
                                       ThreadPool &Pool)
    : Plan(Plan), Pool(Pool), CP(&Compiled) {
  assert(&Compiled.plan() == &Plan && "compiled plan from a different plan");
}

void MergedBatchSession::setRootInherited(AttrId A, Value V) {
  RootLanesValid = false;
  for (auto &[Attr, Val] : RootInh)
    if (Attr == A) {
      Val = std::move(V);
      return;
    }
  RootInh.emplace_back(A, std::move(V));
}

//===----------------------------------------------------------------------===//
// Cohort formation
//===----------------------------------------------------------------------===//

namespace {

/// Word-wise FNV-style mix over the level-order production sequence:
/// productions have fixed arity, so equal sequences mean identical tree
/// structure. Collisions only cost an extra sameShape compare.
uint64_t shapeHash(std::span<const uint32_t> Prods) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 0x100000001b3ull;
  };
  Mix(Prods.size());
  for (uint32_t P : Prods)
    Mix(P);
  return H;
}

bool sameShape(std::span<const uint32_t> A, std::span<const uint32_t> B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(uint32_t)) == 0;
}

} // namespace

void MergedBatchSession::form(std::vector<Tree> &Trees, CohortSet &Set) {
  FNC2_SPAN("merged.form_cohorts");
  Stats.reset();
  Set.Cohorts.clear();
  Set.Fallback.clear();
  Set.LevelBuf.clear();
  Set.CapBuf.clear();
  const size_t N = Trees.size();

  // Level-order walk per tree into the shared flat buffers (one growth
  // curve for the whole batch). While each node's cache lines are hot the
  // walk captures everything later passes need: the production id (so
  // hashing and shape verification run over contiguous ids instead of
  // re-dereferencing cold nodes) and the frame pointer (so scatter issues
  // plain stores instead of chasing headers). Shape hashes are sharded
  // over the pool when the batch is large enough for the prepass to
  // matter.
  Set.LevelOff.resize(N + 1);
  Set.LevelOff[0] = 0;
  std::vector<uint32_t> &ProdBuf = ProdScratch; // Level-order ids.
  ProdBuf.clear();
  for (size_t I = 0; I != N; ++I) {
    // Two trees ahead: by the time their BFS starts, the root's lines are
    // in flight. Within a tree the child prefetch below covers the rest.
    if (I + 2 < N)
      if (const TreeNode *R = Trees[I + 2].root()) {
        __builtin_prefetch(R);
        __builtin_prefetch(reinterpret_cast<const char *>(R) + 64);
      }
    const size_t First = Set.LevelBuf.size();
    if (TreeNode *Root = Trees[I].root())
      Set.LevelBuf.push_back(Root);
    for (size_t K = First; K != Set.LevelBuf.size(); ++K) {
      TreeNode *Nd = Set.LevelBuf[K];
      for (const auto &C : Nd->Children) {
        // Both node lines: Prod/Children sit on the first, the capture
        // below reads Slots/SeqCache/PartitionId off the second.
        __builtin_prefetch(C.get());
        __builtin_prefetch(reinterpret_cast<const char *>(C.get()) + 64);
        Set.LevelBuf.push_back(C.get());
      }
      ProdBuf.push_back(Nd->Prod);
      Set.CapBuf.push_back(
          {Nd->Slots, Nd->SeqCache ? ~uintptr_t(0) : Nd->PartitionId});
    }
    Set.LevelOff[I + 1] = static_cast<uint32_t>(Set.LevelBuf.size());
  }
  auto ProdsOf = [&](size_t I) {
    return std::span<const uint32_t>(ProdBuf.data() + Set.LevelOff[I],
                                     Set.LevelOff[I + 1] - Set.LevelOff[I]);
  };
  std::vector<uint64_t> &Hash = HashScratch;
  Hash.resize(N);
  auto HashRange = [&](size_t Begin, size_t End, unsigned) {
    for (size_t I = Begin; I != End; ++I)
      Hash[I] = shapeHash(ProdsOf(I));
  };
  if (N >= 2048 && Pool.numThreads() > 1)
    Pool.parallelForShards(N, 1024, HashRange);
  else
    HashRange(0, N, 0);

  // Bucket by hash, verify lockstep against each group representative.
  struct Group {
    uint32_t Rep;
    std::vector<uint32_t> Members;
  };
  std::vector<Group> Groups;
  std::unordered_map<uint64_t, std::vector<uint32_t>> Buckets;
  for (size_t I = 0; I != N; ++I) {
    if (!Trees[I].root()) {
      // The classic Evaluator already phrases the empty-tree diagnostic.
      Set.Fallback.push_back(static_cast<uint32_t>(I));
      ++Stats.TreesFallback;
      continue;
    }
    std::vector<uint32_t> &B = Buckets[Hash[I]];
    bool Found = false;
    for (uint32_t GI : B)
      if (sameShape(ProdsOf(I), ProdsOf(Groups[GI].Rep))) {
        Groups[GI].Members.push_back(static_cast<uint32_t>(I));
        Found = true;
        break;
      }
    if (!Found) {
      B.push_back(static_cast<uint32_t>(Groups.size()));
      Groups.push_back({static_cast<uint32_t>(I),
                        {static_cast<uint32_t>(I)}});
    }
  }

  for (Group &G : Groups) {
    const size_t Size = G.Members.size();
    ++(Size < 4      ? Stats.CohortsLt4
       : Size < 16   ? Stats.CohortsLt16
       : Size < 64   ? Stats.CohortsLt64
       : Size < 256  ? Stats.CohortsLt256
       : Size < 1024 ? Stats.CohortsLt1024
                     : Stats.CohortsGe1024);
    if (Size < CohortThreshold) {
      Set.Fallback.insert(Set.Fallback.end(), G.Members.begin(),
                          G.Members.end());
      Stats.TreesFallback += Size;
      continue;
    }
    Stats.TreesMerged += Size;
    ++Stats.CohortsFormed;

    Cohort C;
    C.Members = std::move(G.Members);
    const std::span<TreeNode *const> Rep = Set.level(G.Rep);
    const size_t P = Rep.size();
    CohortShape &Sh = C.Shape;
    Sh.Prods.resize(P);
    Sh.FirstChild.resize(P);
    Sh.RealSlots.resize(P);
    Sh.LaneSlots.resize(P);
    uint32_t NextChild = 1;
    for (size_t Pos = 0; Pos != P; ++Pos) {
      const TreeNode *Nd = Rep[Pos];
      Sh.Prods[Pos] = Nd->Prod;
      Sh.FirstChild[Pos] = NextChild;
      NextChild += Nd->arity();
      const FrameShape &F = CP->frameOf(Nd->Prod);
      const unsigned Real = unsigned(F.NumAttrs) + F.NumLocals;
      Sh.RealSlots[Pos] = static_cast<uint16_t>(Real);
      const bool Lex = CP->LexemeUsed[Nd->Prod];
      Sh.LaneSlots[Pos] = static_cast<uint16_t>(Real + Lex);
      if (Lex)
        Sh.LexemePositions.push_back(static_cast<uint32_t>(Pos));
    }
    assert(NextChild == P && "BFS child blocks must cover every position");
    Set.Cohorts.push_back(std::move(C));
  }
  FNC2_COUNT("merged.cohorts", Set.Cohorts.size());
}

//===----------------------------------------------------------------------===//
// Merged execution
//===----------------------------------------------------------------------===//

bool MergedBatchSession::execMergedRule(const CohortShape &Shape, size_t Pos,
                                        const CompiledRule &R,
                                        unsigned NumMembers, Shard &S,
                                        std::string &FailMsg) {
  if (!R.Fn) {
    const AttributeGrammar &AG = *Plan.AG;
    const SemanticRule &SR = AG.rule(R.Orig);
    FailMsg = "rule for '" + AG.occName(SR.Prod, SR.Target) +
              "' in operator '" + AG.prod(SR.Prod).Name +
              "' has no semantic function";
    return false;
  }

  // Resolve every argument lane once per cohort instruction; the member
  // loop below is then a branch-free gather / apply / store.
  const SlotRef *A = &CP->Args[R.FirstArg];
  Value **Base = S.BasePtrs.data();
  for (unsigned I = 0; I != R.NumArgs; ++I) {
    const SlotRef &Ref = A[I];
    size_t APos = Pos;
    unsigned Slot = Ref.Slot;
    switch (Ref.Kind) {
    case SlotRef::K::Self:
      assert(S.Arena.computed(APos, Slot) && "read before definition");
      break;
    case SlotRef::K::Child:
      APos = Shape.FirstChild[Pos] + Ref.Child;
      assert(S.Arena.computed(APos, Slot) && "child read before definition");
      break;
    case SlotRef::K::Lexeme:
      Slot = Shape.RealSlots[Pos]; // The gathered pseudo-slot lane.
      break;
    }
    Base[I] = S.Arena.lane(APos, Slot);
  }

  const SlotRef &T = R.Target;
  const size_t TPos =
      T.Kind == SlotRef::K::Child ? Shape.FirstChild[Pos] + T.Child : Pos;
  Value *Tgt = S.Arena.lane(TPos, T.Slot);
  // A child-target write materializes the child's frame exactly like the
  // sequential engine's ensureFrame before the store.
  S.Touched[TPos] = 1;

  Value *Buf = S.ArgBuf.data();
  const unsigned NumArgs = R.NumArgs;
  for (unsigned M = 0; M != NumMembers; ++M) {
    for (unsigned I = 0; I != NumArgs; ++I)
      Buf[I] = Base[I][M];
    Tgt[M] = (*R.Fn)(std::span<const Value>(Buf, NumArgs));
  }
  S.Arena.setComputed(TPos, T.Slot);
  return true;
}

bool MergedBatchSession::runMergedVisit(const CohortShape &Shape, size_t Pos,
                                        const CompiledSeq *Seq,
                                        unsigned VisitNo, unsigned NumMembers,
                                        Shard &S, MergedStats &WS,
                                        std::string &FailMsg) {
  assert(VisitNo >= 1 && VisitNo <= Seq->NumVisits && "visit out of range");
  // Each member's sequential evaluation would perform this visit once.
  WS.VisitsPerformed += NumMembers;

  const CompiledPlan &C = *CP;
  const CompiledInstr *I =
      &C.Instrs[Seq->FirstInstr + C.BeginOfs[Seq->FirstBegin + VisitNo - 1]];
  for (;; ++I) {
    WS.InstructionsExecuted += NumMembers;
    switch (I->Kind) {
    case CompiledInstr::Op::Eval: {
      const CompiledRule *R = &C.Rules[I->A];
      for (uint32_t K = 0; K != I->B; ++K)
        if (!execMergedRule(Shape, Pos, R[K], NumMembers, S, FailMsg))
          return false;
      WS.RulesEvaluated += uint64_t(I->B) * NumMembers;
      FNC2_COUNT("merged.rules", uint64_t(I->B) * NumMembers);
      break;
    }
    case CompiledInstr::Op::Visit: {
      const size_t ChildPos = Shape.FirstChild[Pos] + I->Child;
      S.PartitionAt[ChildPos] = I->A;
      S.Touched[ChildPos] = 1;
      const CompiledSeq *CS = C.seqFor(Shape.Prods[ChildPos], I->A);
      if (!CS) {
        FailMsg = "no visit sequence for operator '" +
                  Plan.AG->prod(Shape.Prods[ChildPos]).Name +
                  "' under partition " + std::to_string(I->A);
        return false;
      }
      if (!runMergedVisit(Shape, ChildPos, CS, I->VisitNo, NumMembers, S, WS,
                          FailMsg))
        return false;
      break;
    }
    case CompiledInstr::Op::Leave:
      assert(I->VisitNo == VisitNo && "mismatched LEAVE");
      return true;
    }
  }
}

void MergedBatchSession::scatterShard(const CohortShape &Shape,
                                      unsigned NumMembers, Shard &S) {
  FNC2_SPAN("merged.scatter");
  const size_t P = Shape.Prods.size();
  // Frame lines are out of cache on batches this engine targets; fetching
  // them for write this many members ahead overlaps the RFO misses that
  // otherwise bound the member loop.
  constexpr unsigned PrefetchDist = 8;
  const Value Empty;

  // Position-outer, member-inner: the member loop's accesses are
  // independent, so the out-of-order core overlaps their (cold) cache
  // misses; member-outer order — sequential per tree but with dependent
  // short chains — measured ~20% slower on 100k-tree batches. Frame
  // pointers come from the walk's captured side array, so the common path
  // never loads node headers: one dependent cold level (the frame line
  // itself) plus pure stores. Header stores are skipped when the captured
  // PartSeq shows them redundant — re-evaluated batches leave every node
  // header line clean.
  for (size_t Pos = 0; Pos != P; ++Pos) {
    const unsigned Real = Shape.RealSlots[Pos];
    if (!S.Touched[Pos]) {
      // The sequential engine's resetAttributes() cleared these nodes and
      // evaluation never touched them again; replicate that final state.
      for (unsigned M = 0; M != NumMembers; ++M) {
        if (M + 2 * PrefetchDist < NumMembers)
          __builtin_prefetch(&S.CapRows[M + 2 * PrefetchDist][Pos]);
        if (M + PrefetchDist < NumMembers)
          __builtin_prefetch(S.CapRows[M + PrefetchDist][Pos].Frame, 1);
        const CohortSet::NodeCap C = S.CapRows[M][Pos];
        if (C.Frame) {
          for (unsigned Slot = 0; Slot != Real; ++Slot)
            if (!C.Frame[Slot].sameRepresentation(Empty))
              C.Frame[Slot] = Value();
          uint64_t *MaskW = reinterpret_cast<uint64_t *>(C.Frame + Real);
          for (unsigned W = 0, E = (Real + 63) / 64; W != E; ++W)
            if (MaskW[W] != 0)
              MaskW[W] = 0;
        }
        if (C.PartSeq != 0) {
          TreeNode *Nd = S.Rows[M][Pos];
          Nd->PartitionId = 0;
          Nd->SeqCache = nullptr;
        }
      }
      continue;
    }
    const FrameShape &F = CP->frameOf(Shape.Prods[Pos]);
    const unsigned Words = S.Arena.maskWords(Pos);
    const uint64_t *Mask = S.Arena.mask(Pos);
    const uint32_t Part = S.PartitionAt[Pos];
    Value *Lane0 = Real ? S.Arena.lane(Pos, 0) : nullptr;
    for (unsigned M = 0; M != NumMembers; ++M) {
      // Two-level lookahead: the NodeCap entry itself first (it feeds the
      // frame prefetch), then the frame's lines for write. Desk-sized
      // frames span one to three lines; fetch the first two.
      if (M + 2 * PrefetchDist < NumMembers)
        __builtin_prefetch(&S.CapRows[M + 2 * PrefetchDist][Pos]);
      if (M + PrefetchDist < NumMembers) {
        const char *FP = reinterpret_cast<const char *>(
            S.CapRows[M + PrefetchDist][Pos].Frame);
        __builtin_prefetch(FP, 1);
        __builtin_prefetch(FP + 64, 1);
      }
      const CohortSet::NodeCap C = S.CapRows[M][Pos];
      Value *Frame = C.Frame;
      if (Real) {
        if (!Frame) {
          // First evaluation of this tree: materialize the frame through
          // the node (the captured pointer predates it).
          TreeNode *Nd = S.Rows[M][Pos];
          Nd->ensureFrame(F.NumAttrs, F.NumLocals);
          Frame = Nd->Slots;
        }
        uint64_t *MaskW = reinterpret_cast<uint64_t *>(Frame + Real);
        for (unsigned W = 0; W != Words; ++W)
          if (MaskW[W] != Mask[W])
            MaskW[W] = Mask[W];
        // Lane of slot S is Lane0 + S * NumMembers (member-contiguous
        // runs). Stores are elided when the frame already holds the same
        // representation (the common case when a batch is re-evaluated
        // unchanged): the elision is refcount-neutral — the lane keeps its
        // reference until the next layout() releases it — and it keeps the
        // frame lines clean, halving steady-state memory traffic.
        for (unsigned Slot = 0; Slot != Real; ++Slot) {
          Value &Src = Lane0[size_t(Slot) * NumMembers + M];
          if (!Frame[Slot].sameRepresentation(Src))
            Frame[Slot] = std::move(Src);
        }
      }
      if (C.PartSeq != Part) {
        TreeNode *Nd = S.Rows[M][Pos];
        Nd->PartitionId = Part;
        Nd->SeqCache = nullptr;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Driver: bind, run, flush
//===----------------------------------------------------------------------===//

void MergedBatchSession::bind(std::vector<Tree> &Trees) {
  FNC2_SPAN("session.bind");
  Batch = &Trees;
  Evaluated = false;
  RootLanesValid = false;
  LanesLaidOut = false;

  form(Trees, Set);
  FormStats = Stats;

  // Cohort shards first — Shards is indexed 1:1 with them — then the
  // fallback chunks, all drained by one parallelFor per evaluation so
  // stragglers and cohorts overlap.
  constexpr uint32_t FallbackChunk = 16;
  Items.clear();
  for (uint32_t CI = 0; CI != Set.Cohorts.size(); ++CI) {
    const uint32_t Size =
        static_cast<uint32_t>(Set.Cohorts[CI].Members.size());
    for (uint32_t B = 0; B < Size; B += ShardMaxMembers)
      Items.push_back({CI, B, std::min(B + ShardMaxMembers, Size)});
  }
  const size_t NumShards = Items.size();
  const uint32_t NumFallback = static_cast<uint32_t>(Set.Fallback.size());
  for (uint32_t B = 0; B < NumFallback; B += FallbackChunk)
    Items.push_back(
        {~uint32_t(0), B, std::min(B + FallbackChunk, NumFallback)});

  // Resident per-shard state, reused by every evaluation: rules overwrite
  // every real slot before any read (the plan's define-before-use
  // invariant), the lexeme pseudo-slots are re-gathered per round, and
  // computed bits only ever re-assert themselves. Shards kept from the
  // previous binding re-lay their arenas out in place, in the first
  // evaluation's work item, where the lanes are about to be used.
  Shards.resize(NumShards);
  TreeLoc.assign(Trees.size(), {~uint32_t(0), 0});
  for (uint32_t It = 0; It != NumShards; ++It) {
    const Item &X = Items[It];
    const Cohort &C = Set.Cohorts[X.Cohort];
    Shard &S = Shards[It];
    const unsigned NumMembers = X.End - X.Begin;
    S.Rows.resize(NumMembers);
    S.CapRows.resize(NumMembers);
    for (unsigned M = 0; M != NumMembers; ++M) {
      const uint32_t Idx = C.Members[X.Begin + M];
      const uint32_t Off = Set.LevelOff[Idx];
      S.Rows[M] = Set.LevelBuf.data() + Off;
      S.CapRows[M] = Set.CapBuf.data() + Off;
      TreeLoc[Idx] = {It, M};
    }
    const size_t NumLex = C.Shape.LexemePositions.size();
    S.LexPtrs.resize(NumLex * NumMembers);
    for (size_t L = 0; L != NumLex; ++L) {
      const uint32_t Pos = C.Shape.LexemePositions[L];
      for (unsigned M = 0; M != NumMembers; ++M)
        S.LexPtrs[L * NumMembers + M] = &S.Rows[M][Pos]->Lexeme;
    }
    S.ArgBuf.resize(CP->MaxRuleArgs);
    S.BasePtrs.resize(CP->MaxRuleArgs);
    const size_t P = C.Shape.Prods.size();
    S.Touched.assign(P, 0);
    S.PartitionAt.assign(P, 0);
    S.Touched[0] = 1;
    S.PartitionAt[0] = Plan.RootPartition;
  }
}

SessionResult MergedBatchSession::run(std::deque<BatchTreeOutcome> *Outcomes) {
  FNC2_SPAN("session.evaluate");
  assert(Batch && "evaluate() before bind()");
  std::vector<Tree> &Trees = *Batch;
  const AttributeGrammar &AG = *Plan.AG;

  std::vector<MergedStats> WorkerStats(Pool.numThreads());
  using FailList = std::vector<std::pair<uint32_t, std::string>>;
  std::vector<FailList> WorkerFails(Pool.numThreads());
  TreeOk.assign(Trees.size(), 1);
  const bool FillRoot = !RootLanesValid;
  const bool Layout = !LanesLaidOut;

  Pool.parallelFor(Items.size(), [&](size_t It, unsigned Worker) {
    const Item &X = Items[It];
    MergedStats &WS = WorkerStats[Worker];

    if (X.Cohort == ~uint32_t(0)) {
      // Per-tree fallback over the same shared compiled plan: writes its
      // trees directly, every round.
      for (uint32_t K = X.Begin; K != X.End; ++K) {
        FNC2_SPAN("session.fallback_tree");
        const uint32_t Idx = Set.Fallback[K];
        Evaluator E(Plan, *CP);
        for (const auto &[Attr, Val] : RootInh)
          E.setRootInherited(Attr, Val);
        DiagnosticEngine Own;
        DiagnosticEngine &D = Outcomes ? (*Outcomes)[Idx].Diags : Own;
        if (!E.evaluate(Trees[Idx], D)) {
          TreeOk[Idx] = 0;
          if (!Outcomes)
            WorkerFails[Worker].emplace_back(Idx, D.dump());
        }
        WS.RulesEvaluated += E.stats().RulesEvaluated;
        WS.VisitsPerformed += E.stats().VisitsPerformed;
        WS.InstructionsExecuted += E.stats().InstructionsExecuted;
      }
      return;
    }

    FNC2_SPAN("session.shard");
    const Cohort &C = Set.Cohorts[X.Cohort];
    const CohortShape &Shape = C.Shape;
    Shard &S = Shards[It];
    const unsigned NumMembers = X.End - X.Begin;
    ++WS.ShardsExecuted;
    if (Layout)
      S.Arena.layout(Shape.RealSlots, Shape.LaneSlots, NumMembers);

    // Lexeme lanes re-gathered from the nodes — leaf data may have changed
    // since the last round, and the nodes are the source of truth. The
    // bind-time pointer table makes this one sequential pass per lane.
    const Value *const *LP = S.LexPtrs.data();
    for (size_t L = 0, NumLex = Shape.LexemePositions.size(); L != NumLex;
         ++L) {
      const uint32_t Pos = Shape.LexemePositions[L];
      Value *Lane = S.Arena.lane(Pos, Shape.RealSlots[Pos]);
      const Value *const *Src = LP + L * NumMembers;
      for (unsigned M = 0; M != NumMembers; ++M) {
        if (M + 8 < NumMembers)
          __builtin_prefetch(Src[M + 8]);
        // Same-representation elision (see scatterShard): on the steady
        // state most leaves are unchanged, and skipping the store skips
        // its refcount traffic too.
        if (!Lane[M].sameRepresentation(*Src[M]))
          Lane[M] = *Src[M];
      }
    }

    // Root setup mirrors Evaluator::evaluate: inherited attributes
    // (failing before any visit is counted), then the sequence. The lanes
    // persist across rounds, so the per-member refill (and the
    // provided-check it subsumes) only runs when the values could differ
    // from what the lanes hold.
    std::string FailMsg;
    bool Ok = true;
    if (FillRoot) {
      const PhylumId Start = AG.prod(Shape.Prods[0]).Lhs;
      for (const SlotAttr &IA : CP->InhByPhylum[Start]) {
        auto Given =
            std::find_if(RootInh.begin(), RootInh.end(),
                         [&](const auto &P) { return P.first == IA.Attr; });
        if (Given == RootInh.end()) {
          FailMsg = "inherited attribute '" + AG.attr(IA.Attr).Name +
                    "' of the start phylum was not provided";
          Ok = false;
          break;
        }
        Value *Lane = S.Arena.lane(0, IA.Slot);
        for (unsigned M = 0; M != NumMembers; ++M)
          Lane[M] = Given->second;
        S.Arena.setComputed(0, IA.Slot);
      }
    }

    const CompiledSeq *Seq =
        Ok ? CP->seqFor(Shape.Prods[0], Plan.RootPartition) : nullptr;
    if (Ok && !Seq) {
      FailMsg = "no visit sequence for the root operator";
      Ok = false;
    }
    if (Ok) {
      FNC2_SPAN("merged.visits");
      if (Kernel) {
        // A compiled cohort kernel (the native backend's SoA entry point)
        // replaces the interpreted shadow walk; the fills, the root
        // sequence check above and scatter-back stay on this side.
        CohortKernel::Shard Sh{Shape,           NumMembers,
                               S.Arena,         S.PartitionAt.data(),
                               S.Touched.data(), S.ArgBuf.data()};
        Ok = Kernel->run(Sh, WS, FailMsg);
      } else {
        for (unsigned V = 1; Ok && V <= Seq->NumVisits; ++V)
          Ok = runMergedVisit(Shape, 0, Seq, V, NumMembers, S, WS, FailMsg);
      }
    }

    S.Ok = Ok;
    if (!Ok) {
      // Shape-determined failure: every member fails at the same
      // instruction with the same diagnostic. Unlike the sequential
      // engine's partial attribution, failed trees are reset.
      for (unsigned M = 0; M != NumMembers; ++M) {
        const uint32_t Idx = C.Members[X.Begin + M];
        TreeOk[Idx] = 0;
        if (Outcomes)
          (*Outcomes)[Idx].Diags.error(FailMsg);
        else
          WorkerFails[Worker].emplace_back(Idx, FailMsg);
        Trees[Idx].resetAttributes();
      }
    }
  });

  Stats = FormStats;
  for (const MergedStats &WS : WorkerStats)
    Stats.merge(WS);
  SessionResult Result;
  Result.NumTrees = static_cast<unsigned>(Trees.size());
  Result.NumSucceeded = static_cast<unsigned>(
      std::count(TreeOk.begin(), TreeOk.end(), uint8_t(1)));
  Result.Stats.RulesEvaluated = Stats.RulesEvaluated;
  Result.Stats.VisitsPerformed = Stats.VisitsPerformed;
  Result.Stats.InstructionsExecuted = Stats.InstructionsExecuted;
  for (FailList &FL : WorkerFails)
    for (auto &F : FL)
      Result.Failures.push_back(std::move(F));
  // Any failure keeps the refill (and its diagnostics) live for the next
  // round; failures are shape-deterministic, so this costs nothing on the
  // all-success steady state.
  LanesLaidOut = true;
  RootLanesValid = Result.allSucceeded();
  Evaluated = true;
  return Result;
}

const Value &MergedBatchSession::rootSlot(size_t TreeIdx,
                                          unsigned Slot) const {
  assert(Batch && TreeIdx < TreeLoc.size() && "rootSlot() before bind()");
  const auto [It, M] = TreeLoc[TreeIdx];
  if (It == ~uint32_t(0) || !Evaluated) {
    // Fallback trees are always attributed in place; cohort trees read
    // through to their frames once flush() has moved the lanes out.
    return (*Batch)[TreeIdx].root()->slot(Slot);
  }
  return Shards[It].Arena.lane(0, Slot)[M];
}

void MergedBatchSession::flush() {
  FNC2_SPAN("session.flush");
  if (!Evaluated)
    return;
  Pool.parallelFor(Shards.size(), [&](size_t It, unsigned) {
    Shard &S = Shards[It];
    if (!S.Ok)
      return; // The evaluation already reset these trees.
    const Item &X = Items[It];
    scatterShard(Set.Cohorts[X.Cohort].Shape, X.End - X.Begin, S);
  });
  // Scatter moved the lane contents into the frames (root-inherited lanes
  // included); require a fresh evaluate() before the next flush (or lane
  // read), and a refill of the root lanes.
  Evaluated = false;
  RootLanesValid = false;
}

void MergedBatchSession::release() {
  Batch = nullptr;
  Set.LevelBuf.clear();
  Set.CapBuf.clear();
  for (Shard &S : Shards) {
    S.Rows.clear();
    S.CapRows.clear();
    S.LexPtrs.clear();
  }
}
