//===- tests/NativeBackendTest.cpp - Native codegen backend ---------------===//
//
// The native backend's own lifecycle, beyond the differential family suite:
//
//  - the emitted C++ for the desk calculator matches a committed golden
//    (regenerate with FNC2_UPDATE_GOLDENS=1 after an intentional emitter
//    change) and emission is deterministic;
//  - dlopen lifecycle: cold compile -> evaluate -> drop the last module
//    (dlclose) -> rebind from the disk cache without the compiler;
//  - the artifact container self-heals: a tampered extracted .so is
//    repaired from the container, a tampered container forces a recompile;
//  - the engine reproduces the interpreted engine's attribution, stats and
//    diagnostics; concurrent sessions over one dlopen()ed module are
//    race-free (the TSan gate in ci.sh runs this suite; the ASan gate runs
//    it too, covering the dlopen/dlclose path).
//
// Every test that needs a host C++ compiler skips cleanly when none is
// found.
//
//===----------------------------------------------------------------------===//

#include "FamilyCheck.h"

#include "codegen/CppEmitter.h"
#include "support/HostCompiler.h"
#include "workloads/ClassicGrammars.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace fnc2;
using namespace fnc2::native;
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

/// Desk calculator with its generated plan — the backend's anchor workload.
struct DeskFixture {
  DiagnosticEngine GrammarDiags, GenDiags;
  AttributeGrammar AG;
  GeneratedEvaluator GE;
  const CompiledPlan &CP;

  DeskFixture()
      : AG(workloads::deskCalculator(GrammarDiags)),
        GE(generateEvaluator(AG, GenDiags)), CP(GE.Compiled->CP) {
    EXPECT_TRUE(GE.Success) << GenDiags.dump();
  }
};

template <typename EvalT>
void provideRootInherited(const AttributeGrammar &AG, EvalT &E) {
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      E.setRootInherited(A, Value::ofInt(7));
}

/// Cold-builds into \p Dir with the process memo disabled, so every
/// lifecycle step below exercises the disk cache, not the memo.
NativeBuildResult buildInto(const std::string &Dir, const DeskFixture &F) {
  NativeBackend Backend({Dir, /*UseMemo=*/false});
  return Backend.build(F.AG, F.CP);
}

/// The single native-<key> container/.so pair a build leaves in \p Dir.
struct CachedPair {
  std::string Container, So;
};
CachedPair cachedFiles(const std::string &Dir) {
  CachedPair P;
  for (const auto &E : fs::directory_iterator(Dir)) {
    const std::string Path = E.path().string();
    if (Path.ends_with(".fnc2a"))
      P.Container = Path;
    else if (Path.ends_with(".so"))
      P.So = Path;
  }
  return P;
}

void scribble(const std::string &Path) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << "not a shared object";
}

//===----------------------------------------------------------------------===//
// Emission
//===----------------------------------------------------------------------===//

TEST(NativeEmitterTest, DeskSourceMatchesGolden) {
  DeskFixture F;
  PlanWalker W(F.CP);
  CppEmitResult R = emitNativeCpp(F.AG, W);
  EXPECT_GT(R.Bodies, 0u);
  EXPECT_GT(R.DispatchTables, 0u);
  EXPECT_GT(R.InlinedRules, 0u) << "desk's annotated rules should inline";
  EXPECT_GT(R.CopyRules, 0u);
  EXPECT_GT(R.ConstRules, 0u) << "emptyEnv is a zero-argument constant";
  checkGolden("native_desk.golden", R.Source);
}

TEST(NativeEmitterTest, EmissionIsDeterministic) {
  DeskFixture F;
  PlanWalker W1(F.CP), W2(F.CP);
  EXPECT_EQ(emitNativeCpp(F.AG, W1).Source, emitNativeCpp(F.AG, W2).Source);
}

TEST(NativeEmitterTest, KeySeparatesGrammarsAndIsStable) {
  DeskFixture F;
  DiagnosticEngine D2, G2;
  AttributeGrammar Repmin = workloads::repmin(D2);
  GeneratedEvaluator RepminGE = generateEvaluator(Repmin, G2);
  ASSERT_TRUE(RepminGE.Success);
  const CompiledPlan &RepminCP = RepminGE.Compiled->CP;
  EXPECT_EQ(NativeBackend::nativeKey(F.AG, F.CP),
            NativeBackend::nativeKey(F.AG, F.CP));
  EXPECT_NE(NativeBackend::nativeKey(F.AG, F.CP),
            NativeBackend::nativeKey(Repmin, RepminCP));
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

TEST(NativeBackendTest, LoadEvaluateUnloadReloadFromCache) {
  if (!NativeBackend::available())
    GTEST_SKIP() << "no host C++ compiler";
  DeskFixture F;
  const std::string Dir = uniqueTempDir("fnc2-native-lifecycle");

  // Reference attribution from the interpreted engine.
  TreeGenerator Gen(F.AG, 11);
  Tree Ref = Gen.generate(120);
  DiagnosticEngine D;
  Evaluator Interp(F.CP);
  provideRootInherited(F.AG, Interp);
  ASSERT_TRUE(Interp.evaluate(Ref, D)) << D.dump();

  // Cold: the compiler runs, the container and .so land in the cache dir.
  NativeBuildResult Cold = buildInto(Dir, F);
  ASSERT_TRUE(Cold.Module) << Cold.Reason;
  EXPECT_TRUE(Cold.CompilerInvoked);
  EXPECT_FALSE(Cold.FromCache);
  ASSERT_FALSE(cachedFiles(Dir).Container.empty());
  ASSERT_FALSE(cachedFiles(Dir).So.empty());
  {
    Tree T = cloneTree(F.AG, Ref);
    NativeEvaluator NE(F.CP, Cold.Module);
    provideRootInherited(F.AG, NE);
    ASSERT_TRUE(NE.evaluate(T, D)) << D.dump();
    expectSameAttribution(F.AG, Ref.root(), T.root(), "native/cold");
  }

  // Unload: dropping the last module dlclose()s the object...
  Cold.Module.reset();

  // ...and a fresh backend rebinds it from disk without the compiler.
  NativeBuildResult Warm = buildInto(Dir, F);
  ASSERT_TRUE(Warm.Module) << Warm.Reason;
  EXPECT_FALSE(Warm.CompilerInvoked);
  EXPECT_TRUE(Warm.FromCache);
  {
    Tree T = cloneTree(F.AG, Ref);
    NativeEvaluator NE(F.CP, Warm.Module);
    provideRootInherited(F.AG, NE);
    ASSERT_TRUE(NE.evaluate(T, D)) << D.dump();
    expectSameAttribution(F.AG, Ref.root(), T.root(), "native/warm");
  }
}

TEST(NativeBackendTest, TamperedSharedObjectIsRepairedFromContainer) {
  if (!NativeBackend::available())
    GTEST_SKIP() << "no host C++ compiler";
  DeskFixture F;
  const std::string Dir = uniqueTempDir("fnc2-native-repair");
  NativeBuildResult Cold = buildInto(Dir, F);
  ASSERT_TRUE(Cold.Module) << Cold.Reason;
  Cold.Module.reset();

  scribble(cachedFiles(Dir).So);

  NativeBackend Backend({Dir, /*UseMemo=*/false});
  NativeBuildResult Warm = Backend.build(F.AG, F.CP);
  ASSERT_TRUE(Warm.Module) << Warm.Reason;
  EXPECT_TRUE(Warm.FromCache);
  EXPECT_FALSE(Warm.CompilerInvoked);
  EXPECT_EQ(Backend.stats().CacheHits, 1u);
  EXPECT_EQ(Backend.stats().CompileSkipped, 1u);
}

TEST(NativeBackendTest, TamperedContainerForcesRecompile) {
  if (!NativeBackend::available())
    GTEST_SKIP() << "no host C++ compiler";
  DeskFixture F;
  const std::string Dir = uniqueTempDir("fnc2-native-reject");
  NativeBuildResult Cold = buildInto(Dir, F);
  ASSERT_TRUE(Cold.Module) << Cold.Reason;
  Cold.Module.reset();

  scribble(cachedFiles(Dir).Container);

  NativeBackend Backend({Dir, /*UseMemo=*/false});
  NativeBuildResult Again = Backend.build(F.AG, F.CP);
  ASSERT_TRUE(Again.Module) << Again.Reason;
  EXPECT_TRUE(Again.CompilerInvoked);
  EXPECT_EQ(Backend.stats().CacheRejects, 1u);
  EXPECT_EQ(Backend.stats().Compiles, 1u);
}

TEST(NativeBackendTest, MemoServesRepeatBuildsWithoutDisk) {
  if (!NativeBackend::available())
    GTEST_SKIP() << "no host C++ compiler";
  DeskFixture F;
  NativeBackend Backend({uniqueTempDir("fnc2-native-memo"), true});
  NativeBuildResult First = Backend.build(F.AG, F.CP);
  ASSERT_TRUE(First.Module) << First.Reason;
  NativeBuildResult Second = Backend.build(F.AG, F.CP);
  ASSERT_TRUE(Second.Module) << Second.Reason;
  EXPECT_TRUE(Second.FromCache);
  EXPECT_EQ(Backend.stats().MemoHits, 1u);
  EXPECT_EQ(Backend.stats().Compiles, 1u);
}

//===----------------------------------------------------------------------===//
// Engine semantics
//===----------------------------------------------------------------------===//

TEST(NativeEvaluatorTest, StatsAndDiagnosticsMatchInterpretedEngine) {
  if (!NativeBackend::available())
    GTEST_SKIP() << "no host C++ compiler";
  DeskFixture F;
  NativeBuildResult B = NativeBackend::shared().build(F.AG, F.CP);
  ASSERT_TRUE(B.Module) << B.Reason;

  TreeGenerator Gen(F.AG, 5);
  Tree Ref = Gen.generate(200);
  DiagnosticEngine D;
  Evaluator Interp(F.CP);
  provideRootInherited(F.AG, Interp);
  ASSERT_TRUE(Interp.evaluate(Ref, D)) << D.dump();

  Tree T = cloneTree(F.AG, Ref);
  NativeEvaluator NE(F.CP, B.Module);
  provideRootInherited(F.AG, NE);
  ASSERT_TRUE(NE.evaluate(T, D)) << D.dump();
  expectSameAttribution(F.AG, Ref.root(), T.root(), "native/stats");
  EXPECT_EQ(NE.stats().RulesEvaluated, Interp.stats().RulesEvaluated);
  EXPECT_EQ(NE.stats().VisitsPerformed, Interp.stats().VisitsPerformed);
  EXPECT_EQ(NE.stats().InstructionsExecuted,
            Interp.stats().InstructionsExecuted);

  // Re-evaluating the same (already attributed) tree is the native hot
  // path: no reset walk, elided re-stores — attribution must not drift.
  ASSERT_TRUE(NE.evaluate(T, D)) << D.dump();
  expectSameAttribution(F.AG, Ref.root(), T.root(), "native/re-eval");

  // Diagnostics parity with the interpreted engine.
  DiagnosticEngine Empty1, Empty2;
  Tree Hollow(F.AG);
  Evaluator I2(F.CP);
  NativeEvaluator N2(F.CP, B.Module);
  EXPECT_FALSE(I2.evaluate(Hollow, Empty1));
  EXPECT_FALSE(N2.evaluate(Hollow, Empty2));
  EXPECT_EQ(Empty1.dump(), Empty2.dump());
}

TEST(NativeEvaluatorTest, ConcurrentSessionsShareOneModule) {
  if (!NativeBackend::available())
    GTEST_SKIP() << "no host C++ compiler";
  DeskFixture F;
  NativeBuildResult B = NativeBackend::shared().build(F.AG, F.CP);
  ASSERT_TRUE(B.Module) << B.Reason;

  TreeGenerator Gen(F.AG, 23);
  Tree Ref = Gen.generate(150);
  DiagnosticEngine RefD;
  Evaluator Interp(F.CP);
  provideRootInherited(F.AG, Interp);
  ASSERT_TRUE(Interp.evaluate(Ref, RefD)) << RefD.dump();

  constexpr unsigned NumThreads = 8;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Failures{0};
  for (unsigned I = 0; I != NumThreads; ++I)
    Threads.emplace_back([&] {
      // Each session owns its tree and evaluator; only the dlopen()ed
      // module (code, PlanInfo, bound constants) is shared and read-only.
      Tree T = cloneTree(F.AG, Ref);
      NativeEvaluator NE(F.CP, B.Module);
      provideRootInherited(F.AG, NE);
      DiagnosticEngine D;
      for (unsigned R = 0; R != 20; ++R)
        if (!NE.evaluate(T, D))
          Failures.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
}

} // namespace
