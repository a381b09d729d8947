//===- tests/NativeMergedTest.cpp - Native SoA cohort engine --------------===//
//
// The vectorized native batch path, beyond the differential family suite:
//
//  - the emitted SoA C++ for the desk calculator matches a committed golden
//    (regenerate with FNC2_UPDATE_GOLDENS=1 after an intentional emitter
//    change) and emission is deterministic;
//  - the FnInliner pass lowers SpecGen's molga-generated rule bodies, so
//    both emitters inline them instead of calling through the interpreter's
//    closures (the fix for the call-heavy native regression);
//  - warm start: one cold compile produces a single shared object exporting
//    both the scalar and the SoA entry points; a fresh backend binds both
//    from the disk cache with zero compiler invocations;
//  - the engine reproduces the interpreted merged engine's attribution and
//    folded counters on mixed-shape batches, including the per-tree
//    fallback split;
//  - concurrent evaluators over one dlopen()ed SoA module are race-free
//    (the TSan gate in ci.sh runs this suite; the ASan gate runs it too,
//    covering the emitted member loops under sanitizers).
//
// Every test that needs a host C++ compiler skips cleanly when none is
// found.
//
//===----------------------------------------------------------------------===//

#include "FamilyCheck.h"

#include "codegen/FnInliner.h"
#include "codegen/SoAEmitter.h"
#include "eval/MergedBatchSession.h"
#include "olga/Driver.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/SpecGen.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace fnc2;
using fnc2::testutil::cloneTree;
using fnc2::testutil::expectSameAttribution;

namespace {

namespace fs = std::filesystem;

std::string goldenPath(const std::string &Name) {
  return std::string(FNC2_GOLDEN_DIR) + "/" + Name;
}

void checkGolden(const std::string &Name, const std::string &Actual) {
  const std::string Path = goldenPath(Name);
  if (std::getenv("FNC2_UPDATE_GOLDENS")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden " << Path
                         << " (regenerate with FNC2_UPDATE_GOLDENS=1)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Actual)
      << "emitted source drifted from " << Path
      << " (if the emitter change is intentional, regenerate with "
         "FNC2_UPDATE_GOLDENS=1 and bump kEmitterVersion)";
}

std::string uniqueTempDir(const std::string &Tag) {
  static unsigned Counter = 0;
  fs::path P = fs::path(::testing::TempDir()) /
               (Tag + "-" + std::to_string(::getpid()) + "-" +
                std::to_string(Counter++));
  fs::create_directories(P);
  return P.string();
}

/// Desk calculator with its generated plan — the backends' anchor workload.
struct DeskFixture {
  DiagnosticEngine GrammarDiags, GenDiags;
  AttributeGrammar AG;
  GeneratedEvaluator GE;
  CompiledPlan CP;

  DeskFixture()
      : AG(workloads::deskCalculator(GrammarDiags)),
        GE(generateEvaluator(AG, GenDiags)), CP(GE.Plan) {
    EXPECT_TRUE(GE.Success) << GenDiags.dump();
  }
};

template <typename EvalT>
void provideRootInherited(const AttributeGrammar &AG, EvalT &E) {
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      E.setRootInherited(A, Value::ofInt(7));
}

/// A mixed-shape batch: \p Clones copies each of a few generated shapes
/// (cohorts), plus a handful of unique trees (fallback under threshold).
std::vector<Tree> mixedBatch(const AttributeGrammar &AG, unsigned Shapes,
                             unsigned Clones, unsigned Uniques,
                             uint64_t Seed) {
  TreeGenerator Gen(AG, Seed);
  std::vector<Tree> Batch;
  for (unsigned S = 0; S != Shapes; ++S) {
    Tree T = Gen.generate(40 + 17 * S);
    for (unsigned C = 0; C != Clones; ++C)
      Batch.push_back(cloneTree(AG, T));
  }
  for (unsigned U = 0; U != Uniques; ++U)
    Batch.push_back(Gen.generate(500 + 97 * U));
  return Batch;
}

//===----------------------------------------------------------------------===//
// Emission
//===----------------------------------------------------------------------===//

TEST(SoaEmitterTest, DeskSoaSourceMatchesGolden) {
  DeskFixture F;
  PlanWalker W(F.CP);
  CppEmitResult R = emitSoaCpp(F.AG, W);
  EXPECT_GT(R.Bodies, 0u);
  EXPECT_GT(R.DispatchTables, 0u);
  EXPECT_GT(R.InlinedRules, 0u) << "desk's annotated rules should inline";
  EXPECT_GT(R.CopyRules, 0u);
  EXPECT_GT(R.ConstRules, 0u) << "emptyEnv is a zero-argument constant";
  checkGolden("native_merged_desk.golden", R.Source);
}

TEST(SoaEmitterTest, EmissionIsDeterministic) {
  DeskFixture F;
  PlanWalker W1(F.CP), W2(F.CP);
  EXPECT_EQ(emitSoaCpp(F.AG, W1).Source, emitSoaCpp(F.AG, W2).Source);
}

TEST(SoaEmitterTest, FnInlinerLowersSpecGenBodies) {
  // SpecGen grammars have no NativeExpr annotations: without the inliner
  // every non-copy rule is a tier-4 gather+call through the interpreter's
  // closures. The inliner must lower the simple molga bodies so both
  // emitters classify those sites as AST-inlined.
  workloads::SystemAg Ag = workloads::systemAgSuite().front();
  DiagnosticEngine Diags;
  olga::CompileResult C = olga::compileMolga(Ag.Source, Diags);
  ASSERT_TRUE(C.Success) << Diags.dump();
  const AttributeGrammar &AG = C.Grammars[0].AG;

  FnInlineTable Inl = inlineSemanticFns(AG);
  EXPECT_GT(Inl.Lowered, 0u) << "no SpecGen rule body lowered";

  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();
  CompiledPlan CP(GE.Plan);
  PlanWalker W(CP);
  CppEmitResult Soa = emitSoaCpp(AG, W);
  EXPECT_GT(Soa.AstInlinedRules, 0u)
      << "SoA emitter left every lowered body on the call path";
  CppEmitResult Scalar = emitNativeCpp(AG, W);
  EXPECT_GT(Scalar.AstInlinedRules, 0u)
      << "scalar emitter left every lowered body on the call path";
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

TEST(NativeMergedTest, WarmStartBindsBothEntryPointsWithoutCompiler) {
  if (!NativeBackend::available())
    GTEST_SKIP() << "no host C++ compiler";
  DeskFixture F;
  const std::string Dir = uniqueTempDir("fnc2-native-merged-warm");

  // Cold: one compile produces one object exporting both entry points.
  NativeBackend Cold({Dir, /*UseMemo=*/false});
  NativeBuildResult B = Cold.build(F.AG, F.CP);
  ASSERT_TRUE(B.Module) << B.Reason;
  EXPECT_TRUE(B.CompilerInvoked);
  EXPECT_EQ(Cold.stats().Compiles, 1u);
  ASSERT_NE(B.Module->run(), nullptr);
  ASSERT_NE(B.Module->soaRun(), nullptr);
  B.Module.reset(); // dlclose

  // Warm: a fresh backend binds both from the container, zero compiles.
  NativeBackend Warm({Dir, /*UseMemo=*/false});
  NativeBuildResult W = Warm.build(F.AG, F.CP);
  ASSERT_TRUE(W.Module) << W.Reason;
  EXPECT_TRUE(W.FromCache);
  EXPECT_FALSE(W.CompilerInvoked);
  EXPECT_EQ(Warm.stats().Compiles, 0u);
  EXPECT_GE(Warm.stats().CompileSkipped, 1u);
  ASSERT_NE(W.Module->soaRun(), nullptr);

  // Both engines evaluate through the warm-bound object.
  ThreadPool Pool(2);
  std::vector<Tree> Batch = mixedBatch(F.AG, 2, 5, 0, 77);
  NativeCohortKernel K(F.CP, W.Module);
  MergedBatchEvaluator NM(F.GE.Plan, F.CP, Pool);
  NM.setKernel(&K);
  provideRootInherited(F.AG, NM);
  BatchResult R = NM.evaluate(Batch);
  ASSERT_TRUE(R.allSucceeded()) << R.Outcomes[0].Diags.dump();

  Tree T = cloneTree(F.AG, Batch[0]);
  NativeEvaluator NE(F.CP, W.Module);
  provideRootInherited(F.AG, NE);
  DiagnosticEngine D;
  ASSERT_TRUE(NE.evaluate(T, D)) << D.dump();
  expectSameAttribution(F.AG, Batch[0].root(), T.root(),
                        "native-merged/warm-scalar");
}

//===----------------------------------------------------------------------===//
// Engine semantics
//===----------------------------------------------------------------------===//

TEST(NativeMergedTest, MatchesInterpretedMergedEngine) {
  if (!NativeBackend::available())
    GTEST_SKIP() << "no host C++ compiler";
  DeskFixture F;
  NativeBuildResult B = NativeBackend::shared().build(F.AG, F.CP);
  ASSERT_TRUE(B.Module) << B.Reason;

  ThreadPool Pool(4);
  // Mixed batch: cohorts above threshold AND unique fallback trees, so
  // both shard kinds run. Default thresholds on both engines.
  std::vector<Tree> Ref = mixedBatch(F.AG, 3, 8, 5, 42);
  std::vector<Tree> Got;
  for (const Tree &T : Ref)
    Got.push_back(cloneTree(F.AG, T));

  MergedBatchEvaluator ME(F.GE.Plan, F.CP, Pool);
  provideRootInherited(F.AG, ME);
  BatchResult RRef = ME.evaluate(Ref);
  ASSERT_TRUE(RRef.allSucceeded()) << RRef.Outcomes[0].Diags.dump();

  NativeCohortKernel K(F.CP, B.Module);
  MergedBatchEvaluator NM(F.GE.Plan, F.CP, Pool);
  NM.setKernel(&K);
  provideRootInherited(F.AG, NM);
  BatchResult RGot = NM.evaluate(Got);
  ASSERT_TRUE(RGot.allSucceeded()) << RGot.Outcomes[0].Diags.dump();

  for (size_t I = 0; I != Ref.size(); ++I)
    expectSameAttribution(F.AG, Ref[I].root(), Got[I].root(),
                          "native-merged/vs-interpreted");
  const MergedStats &A = ME.mergedStats();
  const MergedStats &N = NM.mergedStats();
  EXPECT_EQ(N.TreesMerged, A.TreesMerged);
  EXPECT_EQ(N.TreesFallback, A.TreesFallback);
  EXPECT_GT(N.TreesMerged, 0u) << "batch formed no cohorts";
  EXPECT_GT(N.TreesFallback, 0u) << "batch exercised no fallback";
  EXPECT_EQ(N.RulesEvaluated, A.RulesEvaluated);
  EXPECT_EQ(N.VisitsPerformed, A.VisitsPerformed);
  EXPECT_EQ(N.InstructionsExecuted, A.InstructionsExecuted);

  // Re-evaluating the already attributed batch is the hot path (scatter
  // elides every store): attribution must not drift.
  BatchResult RAgain = NM.evaluate(Got);
  ASSERT_TRUE(RAgain.allSucceeded());
  for (size_t I = 0; I != Ref.size(); ++I)
    expectSameAttribution(F.AG, Ref[I].root(), Got[I].root(),
                          "native-merged/re-eval");
}

//===----------------------------------------------------------------------===//
// Resident sessions
//===----------------------------------------------------------------------===//

/// Every lexeme-carrying node of \p T, pre-order.
std::vector<TreeNode *> lexemeNodes(Tree &T) {
  std::vector<TreeNode *> Out, Stack{T.root()};
  while (!Stack.empty()) {
    TreeNode *N = Stack.back();
    Stack.pop_back();
    if (!N->Lexeme.isUnit())
      Out.push_back(N);
    for (unsigned I = 0; I != N->arity(); ++I)
      Stack.push_back(N->child(I));
  }
  return Out;
}

/// The sequential reference: one Evaluator per tree of \p Trees, root
/// inherited attributes set to \p RootInh; \p Total sums their counters.
bool evaluatePerTree(const DeskFixture &F, std::vector<Tree> &Trees,
                     EvalStats &Total, int64_t RootInh = 7) {
  for (Tree &T : Trees) {
    Evaluator E(F.GE.Plan, F.CP);
    for (AttrId A : F.AG.phylum(F.AG.Start).Attrs)
      if (F.AG.attr(A).isInherited())
        E.setRootInherited(A, Value::ofInt(RootInh));
    DiagnosticEngine D;
    if (!E.evaluate(T, D)) {
      ADD_FAILURE() << "sequential reference failed: " << D.dump();
      return false;
    }
    Total.merge(E.stats());
  }
  return true;
}

TEST(MergedBatchSessionTest, FlushedAttributionMatchesMergedEngine) {
  DeskFixture F;
  ThreadPool Pool(4);
  constexpr unsigned Shapes = 3, Clones = 8, Uniques = 5;
  std::vector<Tree> Ref = mixedBatch(F.AG, Shapes, Clones, Uniques, 42);
  std::vector<Tree> Got;
  for (const Tree &T : Ref)
    Got.push_back(cloneTree(F.AG, T));

  // The oracle is the per-tree sequential engine, not the one-shot merged
  // engine: that one runs this very session, so it would agree with it
  // by construction.
  EvalStats A;
  ASSERT_TRUE(evaluatePerTree(F, Ref, A));

  MergedBatchSession S(F.GE.Plan, F.CP, Pool);
  provideRootInherited(F.AG, S);
  S.bind(Got);
  SessionResult RGot = S.evaluate();
  ASSERT_TRUE(RGot.allSucceeded())
      << (RGot.Failures.empty() ? "" : RGot.Failures[0].second);

  // Every clone merges (threshold 4), every unique tree falls back, and the
  // dynamic counters fold to the sequential per-tree sums.
  const MergedStats &B = S.mergedStats();
  EXPECT_EQ(B.TreesMerged, Shapes * Clones);
  EXPECT_EQ(B.TreesFallback, Uniques);
  EXPECT_GT(B.TreesFallback, 0u) << "batch exercised no fallback";
  EXPECT_EQ(B.RulesEvaluated, A.RulesEvaluated);
  EXPECT_EQ(B.VisitsPerformed, A.VisitsPerformed);
  EXPECT_EQ(B.InstructionsExecuted, A.InstructionsExecuted);

  // rootSlot reads the resident lanes before flush and must agree with
  // the flushed frames after.
  std::vector<Value> RootAttr0(Got.size());
  for (size_t I = 0; I != Got.size(); ++I)
    RootAttr0[I] = S.rootSlot(I, 0);
  S.flush();
  for (size_t I = 0; I != Got.size(); ++I) {
    expectSameAttribution(F.AG, Ref[I].root(), Got[I].root(),
                          "session/vs-sequential");
    EXPECT_TRUE(RootAttr0[I].equals(Got[I].root()->slot(0)))
        << "rootSlot drifted from the flushed frame, tree " << I;
  }

  // flush() is one-shot per evaluation: a second flush must not disturb
  // the frames (scatter already moved the lanes out).
  S.flush();
  for (size_t I = 0; I != Got.size(); ++I)
    expectSameAttribution(F.AG, Ref[I].root(), Got[I].root(),
                          "session/double-flush");
}

TEST(MergedBatchSessionTest, LeafAndRootInputChangesPropagateAcrossRounds) {
  DeskFixture F;
  ThreadPool Pool(2);
  std::vector<Tree> Ref = mixedBatch(F.AG, 3, 8, 3, 99);
  std::vector<Tree> Got;
  for (const Tree &T : Ref)
    Got.push_back(cloneTree(F.AG, T));

  MergedBatchSession S(F.GE.Plan, F.CP, Pool);
  provideRootInherited(F.AG, S);
  S.bind(Got);
  ASSERT_TRUE(S.evaluate().allSucceeded());

  // Round 2: new leaf data and new root inputs on pinned structure. The
  // session must re-read both; a fresh per-tree sequential evaluation of
  // identically mutated trees is the oracle.
  for (std::vector<Tree> *Batch : {&Ref, &Got})
    for (Tree &T : *Batch)
      for (TreeNode *N : lexemeNodes(T))
        if (N->Lexeme.isInt())
          N->Lexeme = Value::ofInt(N->Lexeme.asInt() * 3 + 1);
  for (AttrId A : F.AG.phylum(F.AG.Start).Attrs)
    if (F.AG.attr(A).isInherited())
      S.setRootInherited(A, Value::ofInt(11));

  SessionResult R2 = S.evaluate();
  ASSERT_TRUE(R2.allSucceeded());
  S.flush();

  EvalStats RefStats;
  ASSERT_TRUE(evaluatePerTree(F, Ref, RefStats, 11));
  EXPECT_EQ(R2.Stats.RulesEvaluated, RefStats.RulesEvaluated);
  EXPECT_EQ(R2.Stats.VisitsPerformed, RefStats.VisitsPerformed);
  EXPECT_EQ(R2.Stats.InstructionsExecuted, RefStats.InstructionsExecuted);

  for (size_t I = 0; I != Got.size(); ++I)
    expectSameAttribution(F.AG, Ref[I].root(), Got[I].root(),
                          "session/round-2");
}

TEST(MergedBatchSessionTest, NativeKernelMatchesInterpretedSession) {
  if (!NativeBackend::available())
    GTEST_SKIP() << "no host C++ compiler";
  DeskFixture F;
  NativeBuildResult B = NativeBackend::shared().build(F.AG, F.CP);
  ASSERT_TRUE(B.Module) << B.Reason;

  ThreadPool Pool(4);
  std::vector<Tree> Ref = mixedBatch(F.AG, 3, 8, 5, 42);
  std::vector<Tree> Got;
  for (const Tree &T : Ref)
    Got.push_back(cloneTree(F.AG, T));

  MergedBatchSession SRef(F.GE.Plan, F.CP, Pool);
  provideRootInherited(F.AG, SRef);
  SRef.bind(Ref);
  SessionResult RRef = SRef.evaluate();
  ASSERT_TRUE(RRef.allSucceeded());

  MergedBatchSession SGot(F.GE.Plan, F.CP, Pool);
  NativeCohortKernel K(F.CP, B.Module);
  SGot.setKernel(&K);
  provideRootInherited(F.AG, SGot);
  SGot.bind(Got);
  SessionResult RGot = SGot.evaluate();
  ASSERT_TRUE(RGot.allSucceeded())
      << (RGot.Failures.empty() ? "" : RGot.Failures[0].second);

  EXPECT_EQ(RGot.Stats.RulesEvaluated, RRef.Stats.RulesEvaluated);
  EXPECT_EQ(RGot.Stats.VisitsPerformed, RRef.Stats.VisitsPerformed);
  EXPECT_EQ(RGot.Stats.InstructionsExecuted,
            RRef.Stats.InstructionsExecuted);

  SRef.flush();
  SGot.flush();
  for (size_t I = 0; I != Got.size(); ++I)
    expectSameAttribution(F.AG, Ref[I].root(), Got[I].root(),
                          "session/native-vs-interp");

  // Swapping the kernel between rounds (the bench does) must not change
  // the attribution: rebind-free interp round over the same lanes.
  SGot.setKernel(nullptr);
  ASSERT_TRUE(SGot.evaluate().allSucceeded());
  SGot.flush();
  for (size_t I = 0; I != Got.size(); ++I)
    expectSameAttribution(F.AG, Ref[I].root(), Got[I].root(),
                          "session/kernel-swap");
}

TEST(NativeMergedConcurrencyTest, ConcurrentEvaluatorsShareOneSoaModule) {
  if (!NativeBackend::available())
    GTEST_SKIP() << "no host C++ compiler";
  DeskFixture F;
  NativeBuildResult B = NativeBackend::shared().build(F.AG, F.CP);
  ASSERT_TRUE(B.Module) << B.Reason;

  constexpr unsigned NumThreads = 8;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Failures{0};
  for (unsigned I = 0; I != NumThreads; ++I)
    Threads.emplace_back([&, I] {
      // Each session owns its trees, pool and evaluator; only the
      // dlopen()ed module (code, PlanInfo, bound constants) is shared and
      // read-only. Threshold 1 forces every tree through the SoA kernels.
      ThreadPool Pool(2);
      NativeCohortKernel K(F.CP, B.Module);
      MergedBatchEvaluator NM(F.GE.Plan, F.CP, Pool);
      NM.setKernel(&K);
      NM.setCohortThreshold(1);
      provideRootInherited(F.AG, NM);
      std::vector<Tree> Batch = mixedBatch(F.AG, 2, 6, 0, 100 + I);
      for (unsigned R = 0; R != 10; ++R) {
        BatchResult Res = NM.evaluate(Batch);
        if (!Res.allSucceeded())
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
}

} // namespace
