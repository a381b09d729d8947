//===- tests/ConcurrencyStressTest.cpp - shared-plan race gate ------------===//
//
// Stresses the parallel batch engine's sharing contract: one immutable
// EvaluationPlan evaluated from many threads over disjoint trees, repeatedly.
// Built under -DFNC2_SANITIZE=thread (see ci.sh) this is the race gate for
// the shared read path — plan tables, semantic function closures, the
// molga runtime-diagnostics engine — and for the ThreadPool itself.
//
//===----------------------------------------------------------------------===//

#include "eval/BatchEvaluator.h"
#include "eval/MergedBatchEvaluator.h"
#include "fnc2/Generator.h"
#include "grammar/GrammarBuilder.h"
#include "olga/Driver.h"
#include "storage/BatchStorageEvaluator.h"
#include "support/ThreadPool.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/MiniPascal.h"
#include "workloads/SpecGen.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace fnc2;

namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(8);
  EXPECT_EQ(Pool.numThreads(), 8u);
  constexpr size_t N = 10000;
  std::vector<std::atomic<unsigned>> Hits(N);
  Pool.parallelFor(N, [&](size_t I, unsigned Worker) {
    EXPECT_LT(Worker, Pool.numThreads());
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << I;
}

TEST(ThreadPoolTest, ReusableAcrossBatchesOfAnySize) {
  ThreadPool Pool(4);
  for (size_t N : {0u, 1u, 2u, 7u, 64u, 255u}) {
    std::atomic<size_t> Sum{0};
    Pool.parallelFor(N, [&](size_t I, unsigned) {
      Sum.fetch_add(I + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(Sum.load(), N * (N + 1) / 2) << N;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolDegeneratesToSequential) {
  ThreadPool Pool(1);
  std::vector<size_t> Order;
  Pool.parallelFor(16, [&](size_t I, unsigned Worker) {
    EXPECT_EQ(Worker, 0u);
    Order.push_back(I); // no lock needed: sequential by contract
  });
  ASSERT_EQ(Order.size(), 16u);
  for (size_t I = 0; I != 16; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPoolTest, ParallelForShardsCoversEveryElementOnce) {
  ThreadPool Pool(8);
  for (size_t N : {0u, 1u, 5u, 64u, 1000u}) {
    for (size_t MaxShard : {1u, 7u, 64u, 4096u}) {
      std::vector<std::atomic<unsigned>> Hits(N);
      std::atomic<size_t> Shards{0};
      Pool.parallelForShards(N, MaxShard,
                             [&](size_t Begin, size_t End, unsigned Worker) {
                               EXPECT_LT(Worker, Pool.numThreads());
                               EXPECT_LT(Begin, End);
                               EXPECT_LE(End - Begin, MaxShard);
                               Shards.fetch_add(1, std::memory_order_relaxed);
                               for (size_t I = Begin; I != End; ++I)
                                 Hits[I].fetch_add(1,
                                                   std::memory_order_relaxed);
                             });
      for (size_t I = 0; I != N; ++I)
        EXPECT_EQ(Hits[I].load(), 1u) << N << "/" << MaxShard << "/" << I;
      EXPECT_EQ(Shards.load(), (N + MaxShard - 1) / MaxShard)
          << N << "/" << MaxShard;
    }
  }
}

/// Shared fixture: plan + storage for the desk calculator and for a
/// molga-compiled spec (the latter routes every semantic function through
/// the shared Program and runtime-diagnostics engine).
struct SharedPlanCase {
  AttributeGrammar AG;
  GeneratedEvaluator GE;
  olga::CompileResult Compile; // keeps molga Program alive
};

SharedPlanCase deskCase() {
  SharedPlanCase C;
  DiagnosticEngine Diags;
  C.AG = workloads::deskCalculator(Diags);
  DiagnosticEngine GD;
  C.GE = generateEvaluator(C.AG, GD);
  EXPECT_TRUE(C.GE.Success) << GD.dump();
  return C;
}

SharedPlanCase molgaCase() {
  SharedPlanCase C;
  workloads::SpecGenOptions Opts;
  Opts.Name = "Stress";
  Opts.Phyla = 5;
  Opts.AttrPairs = 2;
  Opts.Seed = 42;
  DiagnosticEngine Diags;
  C.Compile = olga::compileMolga(workloads::generateMolgaSpec(Opts), Diags);
  EXPECT_TRUE(C.Compile.Success) << Diags.dump();
  C.AG = C.Compile.Grammars[0].AG;
  DiagnosticEngine GD;
  C.GE = generateEvaluator(C.AG, GD);
  EXPECT_TRUE(C.GE.Success) << GD.dump();
  return C;
}

/// Evaluates disjoint trees of one shared plan from raw threads, each thread
/// its own interpreter, many rounds; verifies against a sequential
/// reference computed up front.
void stressSharedPlan(const SharedPlanCase &C, unsigned NumThreads,
                      unsigned Rounds) {
  const unsigned TreesPerThread = 4;
  TreeGenerator Gen(C.AG, 3);

  // Per thread, its own source trees and their reference root values.
  struct ThreadWork {
    std::vector<Tree> Trees;
    std::vector<std::vector<Value>> RefRootVals;
  };
  std::vector<ThreadWork> Work(NumThreads);
  for (ThreadWork &W : Work)
    for (unsigned I = 0; I != TreesPerThread; ++I) {
      Tree T = Gen.generate(80 + 17 * I);
      Evaluator E(C.GE.Compiled->CP);
      DiagnosticEngine D;
      ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
      const TreeNode *Root = T.root();
      W.RefRootVals.emplace_back(Root->Slots, Root->Slots + Root->FrameAttrs);
      W.Trees.push_back(std::move(T));
    }

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned TI = 0; TI != NumThreads; ++TI)
    Threads.emplace_back([&, TI] {
      ThreadWork &W = Work[TI];
      for (unsigned R = 0; R != Rounds; ++R)
        for (unsigned I = 0; I != TreesPerThread; ++I) {
          Evaluator E(C.GE.Compiled->CP);
          DiagnosticEngine D;
          if (!E.evaluate(W.Trees[I], D)) {
            ++Failures;
            continue;
          }
          for (unsigned A = 0; A != W.RefRootVals[I].size(); ++A)
            if (!W.RefRootVals[I][A].equals(W.Trees[I].root()->attrVal(A)))
              ++Failures;
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
}

TEST(ConcurrencyStressTest, ManyThreadsShareOneDeskPlan) {
  stressSharedPlan(deskCase(), 8, 12);
}

TEST(ConcurrencyStressTest, ManyThreadsShareOneMolgaPlan) {
  // Semantic functions here all route through the shared Program and the
  // shared runtime DiagnosticEngine — the audited mutation points.
  stressSharedPlan(molgaCase(), 8, 8);
}

TEST(ConcurrencyStressTest, BatchEvaluatorRepeatedOverSharedPlan) {
  SharedPlanCase C = molgaCase();
  ThreadPool Pool(8);
  BatchEvaluator BE(C.GE.Compiled->CP, Pool);

  TreeGenerator Gen(C.AG, 9);
  std::vector<Tree> Trees;
  std::vector<Value> RefOut;
  for (unsigned I = 0; I != 32; ++I) {
    Tree T = Gen.generate(60 + 5 * I);
    Evaluator E(C.GE.Compiled->CP);
    DiagnosticEngine D;
    ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
    RefOut.push_back(T.root()->attrVal(0));
    T.resetAttributes();
    Trees.push_back(std::move(T));
  }

  for (unsigned Round = 0; Round != 6; ++Round) {
    BatchResult R = BE.evaluate(Trees);
    ASSERT_TRUE(R.allSucceeded());
    ASSERT_EQ(R.Outcomes.size(), Trees.size());
    EXPECT_GT(R.Stats.RulesEvaluated, 0u);
    for (unsigned I = 0; I != Trees.size(); ++I)
      EXPECT_TRUE(RefOut[I].equals(Trees[I].root()->attrVal(0))) << I;
  }
}

TEST(ConcurrencyStressTest, BatchStorageEvaluatorRepeatedOverSharedPlan) {
  SharedPlanCase C = deskCase();
  ThreadPool Pool(8);
  BatchStorageEvaluator BSE(C.GE.Compiled->CP, C.GE.Compiled->CS, Pool);
  BSE.setMirrorToTree(true);

  TreeGenerator Gen(C.AG, 21);
  std::vector<Tree> Trees;
  for (unsigned I = 0; I != 24; ++I)
    Trees.push_back(Gen.generate(70 + 9 * I));

  for (unsigned Round = 0; Round != 6; ++Round) {
    BatchStorageResult R = BSE.evaluate(Trees);
    ASSERT_TRUE(R.allSucceeded());
    EXPECT_GT(R.Stats.RulesEvaluated, 0u);
    EXPECT_GT(R.Stats.PeakLiveCells, 0u);
  }
}

TEST(ConcurrencyStressTest, MergedEvaluatorShardsCohortsOverSharedPlan) {
  // The merged engine's race surface: cohorts of one shared CompiledPlan
  // sharded across 8 workers, every shard reading the same plan tables and
  // molga Program while writing its own SoA arena. Under TSan (ci.sh) this
  // gates the per-shard isolation contract.
  SharedPlanCase C = molgaCase();
  ThreadPool Pool(8);
  MergedBatchEvaluator ME(C.GE.Compiled->CP, Pool);
  ME.setCohortThreshold(2);
  ME.setShardMaxMembers(4); // 12 clones per shape -> 3 shards per cohort

  TreeGenerator Gen(C.AG, 13);
  std::vector<Tree> Sources;
  std::vector<Value> RefOut;
  for (unsigned I = 0; I != 8; ++I) {
    Tree T = Gen.generate(40 + 11 * I);
    Evaluator E(C.GE.Compiled->CP);
    DiagnosticEngine D;
    ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
    RefOut.push_back(T.root()->attrVal(0));
    T.resetAttributes();
    Sources.push_back(std::move(T));
  }

  std::vector<Tree> Trees;
  for (unsigned K = 0; K != 12; ++K)
    for (const Tree &S : Sources) {
      Tree Clone(C.AG);
      Clone.setRoot(S.clone(S.root()));
      Trees.push_back(std::move(Clone));
    }

  for (unsigned Round = 0; Round != 4; ++Round) {
    BatchResult R = ME.evaluate(Trees);
    ASSERT_TRUE(R.allSucceeded());
    ASSERT_EQ(R.Outcomes.size(), Trees.size());
    const MergedStats &MS = ME.mergedStats();
    EXPECT_EQ(MS.TreesMerged, Trees.size()) << "12 clones beat threshold 2";
    EXPECT_EQ(MS.TreesFallback, 0u);
    EXPECT_GE(MS.ShardsExecuted, MS.CohortsFormed);
    for (unsigned I = 0; I != Trees.size(); ++I)
      EXPECT_TRUE(RefOut[I % Sources.size()].equals(
          Trees[I].root()->attrVal(0)))
          << Round << "/" << I;
  }
}

TEST(ConcurrencyStressTest, MiniPascalCodeListsAcrossThreads) {
  // The string-heavy race surface: P-code instructions are interned strings
  // shared by every tree, symbol-table keys are bare pool pointers, and code
  // lists share concat results. Shape-unique programs take the merged
  // engine's per-tree fallback, whose chunks may land on a different worker
  // each round, so one thread frees what another built.
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::miniPascal(Diags);
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();

  std::vector<Tree> Trees;
  std::vector<workloads::PCodeResult> ByHand;
  for (uint64_t Seed = 0; Seed != 64; ++Seed) {
    DiagnosticEngine D;
    Trees.push_back(workloads::parseMiniPascal(
        AG, workloads::generateMiniPascalSource(12, 500 + Seed), D));
    ASSERT_FALSE(D.hasErrors()) << D.dump();
    ByHand.push_back(
        workloads::compileMiniPascalByHand(AG, Trees.back().root()));
  }

  ThreadPool Pool(4);
  MergedBatchEvaluator ME(GE.Compiled->CP, Pool);
  for (unsigned Round = 0; Round != 4; ++Round) {
    BatchResult R = ME.evaluate(Trees);
    ASSERT_TRUE(R.allSucceeded());
    ASSERT_EQ(R.Outcomes.size(), Trees.size());
    EXPECT_GT(ME.mergedStats().TreesFallback, 0u);
    for (unsigned I = 0; I != Trees.size(); ++I) {
      const workloads::PCodeResult Got = workloads::pcodeFromTree(AG, Trees[I]);
      EXPECT_EQ(Got.Code, ByHand[I].Code) << Round << "/" << I;
      EXPECT_EQ(Got.Errors, ByHand[I].Errors) << Round << "/" << I;
    }
  }
}

TEST(ConcurrencyStressTest, SharedDiagnosticEngineIsSynchronized) {
  // molga-lowered semantic functions report runtime errors through one
  // engine shared by every thread evaluating the plan; hammer that exact
  // pattern directly so TSan gates the engine's internal locking.
  DiagnosticEngine Shared;
  ThreadPool Pool(8);
  Pool.parallelFor(512, [&](size_t I, unsigned) {
    Shared.error("runtime error " + std::to_string(I));
    Shared.warning("warning " + std::to_string(I));
    if (I % 16 == 0)
      (void)Shared.dump();
    (void)Shared.hasErrors();
  });
  EXPECT_EQ(Shared.errorCount(), 512u);
  EXPECT_EQ(Shared.diagnostics().size(), 1024u);
}

TEST(ConcurrencyStressTest, FailingTreesCannotPoisonTheBatch) {
  // A grammar whose start phylum demands an inherited attribute: without it
  // every tree fails, each with its own diagnostics; providing it flips the
  // whole batch to success. Exercises the per-tree DiagnosticEngine path
  // concurrently.
  DiagnosticEngine Diags;
  GrammarBuilder B("needs-input");
  PhylumId X = B.phylum("X");
  AttrId H = B.inherited(X, "h", "int");
  AttrId S = B.synthesized(X, "s", "int");
  ProdId Leaf = B.production("Leaf", X, {});
  B.copy(Leaf, AttrOcc::onSymbol(0, S), AttrOcc::onSymbol(0, H));
  B.setStart(X);
  AttributeGrammar AG = B.finalize(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();

  ThreadPool Pool(8);
  BatchEvaluator BE(GE.Compiled->CP, Pool);
  std::vector<Tree> Trees;
  for (unsigned I = 0; I != 16; ++I) {
    DiagnosticEngine D;
    Trees.push_back(readTerm(AG, "Leaf", D));
  }

  BatchResult Fail = BE.evaluate(Trees);
  EXPECT_EQ(Fail.NumSucceeded, 0u);
  for (const BatchTreeOutcome &Out : Fail.Outcomes) {
    EXPECT_FALSE(Out.Success);
    EXPECT_NE(Out.Diags.dump().find("was not provided"), std::string::npos);
  }

  BE.setRootInherited(H, Value::ofInt(5));
  BatchResult Ok = BE.evaluate(Trees);
  EXPECT_TRUE(Ok.allSucceeded());
  for (const Tree &T : Trees)
    EXPECT_EQ(T.root()->attrVal(AG.attr(S).IndexInOwner).asInt(), 5);
}

} // namespace
