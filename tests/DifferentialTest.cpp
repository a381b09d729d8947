//===- tests/DifferentialTest.cpp - evaluator family equivalence ----------===//
//
// Differential testing across the evaluator family (in the spirit of
// systematic AG debugging): the exhaustive, demand-driven, storage-optimized
// and parallel batch evaluators share one semantics, so on every grammar and
// every tree they must produce structurally equal attribute values at every
// node, and the batch engine at N threads must match the sequential
// evaluator exactly.
//
//===----------------------------------------------------------------------===//

#include "FamilyCheck.h"
#include "olga/Driver.h"
#include "storage/BatchStorageEvaluator.h"
#include "storage/StorageEvaluator.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/MiniPascal.h"
#include "workloads/SpecGen.h"

#include <gtest/gtest.h>

using namespace fnc2;

namespace {

using namespace fnc2::testutil;

using GrammarFactory = AttributeGrammar (*)(DiagnosticEngine &);

struct ClassicCase {
  const char *Name;
  GrammarFactory Make;
  unsigned TreeSize;
};

// Names the case in test listings; the default byte dump would embed the
// load address of Name and Make, so the listed name would change per build.
void PrintTo(const ClassicCase &C, std::ostream *OS) { *OS << C.Name; }

class ClassicDifferentialTest : public ::testing::TestWithParam<ClassicCase> {
};

TEST_P(ClassicDifferentialTest, FamilyAgrees) {
  const ClassicCase &C = GetParam();
  DiagnosticEngine Diags;
  AttributeGrammar AG = C.Make(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  DiagnosticEngine GD;
  GeneratorOptions Opts;
  Opts.OagK = 1; // lets oag1Grammar order; harmless for the others
  GeneratedEvaluator GE = generateEvaluator(AG, GD, Opts);
  ASSERT_TRUE(GE.Success) << GD.dump();
  runFamily(AG, GE, 6, C.TreeSize, 11);
}

INSTANTIATE_TEST_SUITE_P(
    Grammars, ClassicDifferentialTest,
    ::testing::Values(ClassicCase{"desk", workloads::deskCalculator, 150},
                      ClassicCase{"binary", workloads::binaryNumbers, 150},
                      ClassicCase{"repmin", workloads::repmin, 150},
                      ClassicCase{"twoctx", workloads::twoContextGrammar, 20},
                      ClassicCase{"dnc", workloads::dncNotOagGrammar, 40},
                      ClassicCase{"oag1", workloads::oag1Grammar, 40}),
    [](const ::testing::TestParamInfo<ClassicCase> &I) {
      return I.param.Name;
    });

// Regression for the batch join: worker-local stats merged into the batch
// result must equal the sequential per-tree totals, with Sum counters
// adding and the storage peak merging as a maximum of per-worker peaks
// (never a sum — a sum would report a working set no worker ever had).
TEST(DifferentialTest, BatchStatsMergeMatchesSequential) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();

  TreeGenerator Gen(AG, 77);
  std::vector<Tree> Sources;
  for (unsigned I = 0; I != 24; ++I)
    Sources.push_back(Gen.generate(80 + 17 * I));

  // Sequential ground truth, accumulated through the schema-driven merge.
  EvalStats SeqEval;
  StorageStats SeqStorage;
  uint64_t MaxPeak = 0;
  for (const Tree &T : Sources) {
    Tree A = cloneTree(AG, T);
    Evaluator E(GE.Compiled->CP);
    DiagnosticEngine D;
    ASSERT_TRUE(E.evaluate(A, D)) << D.dump();
    SeqEval.merge(E.stats());

    Tree B = cloneTree(AG, T);
    StorageEvaluator SE(GE.Compiled->CP, GE.Compiled->CS);
    ASSERT_TRUE(SE.evaluate(B, D)) << D.dump();
    SeqStorage.merge(SE.stats());
    MaxPeak = std::max(MaxPeak, SE.stats().PeakLiveCells);
  }
  EXPECT_EQ(SeqStorage.PeakLiveCells, MaxPeak)
      << "StorageStats::merge takes the max of peaks";

  ThreadPool Pool(4);
  {
    std::vector<Tree> Batch;
    for (const Tree &T : Sources)
      Batch.push_back(cloneTree(AG, T));
    BatchEvaluator BE(GE.Compiled->CP, Pool);
    BatchResult R = BE.evaluate(Batch);
    ASSERT_TRUE(R.allSucceeded());
    EXPECT_EQ(R.Stats.RulesEvaluated, SeqEval.RulesEvaluated);
    EXPECT_EQ(R.Stats.VisitsPerformed, SeqEval.VisitsPerformed);
    EXPECT_EQ(R.Stats.InstructionsExecuted, SeqEval.InstructionsExecuted);
  }
  {
    std::vector<Tree> Batch;
    for (const Tree &T : Sources)
      Batch.push_back(cloneTree(AG, T));
    BatchStorageEvaluator BSE(GE.Compiled->CP, GE.Compiled->CS, Pool);
    BatchStorageResult R = BSE.evaluate(Batch);
    ASSERT_TRUE(R.allSucceeded());
    EXPECT_EQ(R.Stats.RulesEvaluated, SeqStorage.RulesEvaluated);
    EXPECT_EQ(R.Stats.TreeBaselineCells, SeqStorage.TreeBaselineCells);
    EXPECT_EQ(R.Stats.CopiesSkipped, SeqStorage.CopiesSkipped);
    EXPECT_EQ(R.Stats.PeakLiveCells, MaxPeak)
        << "batch join must not sum per-worker peaks";
  }
  // The merged engine's cohort-level counters (one bump of NumMembers per
  // cohort event) must fold to exactly the sum of the per-member sequential
  // counters — whether every tree merges or every tree falls back.
  for (unsigned Threshold : {1u, 1000000u}) {
    std::vector<Tree> Batch;
    for (const Tree &T : Sources)
      Batch.push_back(cloneTree(AG, T));
    MergedBatchEvaluator ME(GE.Compiled->CP, Pool);
    ME.setCohortThreshold(Threshold);
    BatchResult R = ME.evaluate(Batch);
    ASSERT_TRUE(R.allSucceeded());
    const MergedStats &MS = ME.mergedStats();
    EXPECT_EQ(MS.RulesEvaluated, SeqEval.RulesEvaluated)
        << "threshold " << Threshold;
    EXPECT_EQ(MS.VisitsPerformed, SeqEval.VisitsPerformed)
        << "threshold " << Threshold;
    EXPECT_EQ(MS.InstructionsExecuted, SeqEval.InstructionsExecuted)
        << "threshold " << Threshold;
    // BatchResult::Stats mirrors the merged fold.
    EXPECT_EQ(R.Stats.RulesEvaluated, MS.RulesEvaluated);
    EXPECT_EQ(R.Stats.VisitsPerformed, MS.VisitsPerformed);
    EXPECT_EQ(R.Stats.InstructionsExecuted, MS.InstructionsExecuted);
    EXPECT_EQ(MS.TreesMerged + MS.TreesFallback, Sources.size());
    if (Threshold == 1)
      EXPECT_EQ(MS.TreesFallback, 0u) << "threshold 1 merges every tree";
    else
      EXPECT_EQ(MS.TreesMerged, 0u) << "huge threshold falls back every tree";
  }
}

// The compiled instruction stream against an independent oracle on the
// flagship workload: real parsed programs rather than generated trees. The
// DemandEvaluator interprets the grammar's rules directly, never touching
// the CompiledPlan, so it checks the plan's lowering; the storage evaluator
// runs the same compiled plan under the space optimization.
TEST(DifferentialTest, MiniPascalCompiledMatchesInterpreted) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::miniPascal(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();

  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    std::string Src = workloads::generateMiniPascalSource(40, Seed);
    DiagnosticEngine PD;
    Tree T = workloads::parseMiniPascal(AG, Src, PD);
    ASSERT_FALSE(PD.hasErrors()) << PD.dump();

    Tree Compiled = cloneTree(AG, T);
    Evaluator CE(GE.Compiled->CP);
    DiagnosticEngine D1;
    ASSERT_TRUE(CE.evaluate(Compiled, D1)) << D1.dump();

    Tree Demand = cloneTree(AG, T);
    DemandEvaluator DE(AG);
    DiagnosticEngine D2;
    ASSERT_TRUE(DE.evaluateAll(Demand, D2)) << D2.dump();
    expectSameAttribution(AG, Demand.root(), Compiled.root(),
                          "minipascal/demand");
    EXPECT_LE(DE.stats().RulesEvaluated, CE.stats().RulesEvaluated)
        << "demand evaluation never runs more rules than the exhaustive one";

    Tree Storage = cloneTree(AG, T);
    StorageEvaluator SE(GE.Compiled->CP, GE.Compiled->CS);
    SE.setMirrorToTree(true);
    DiagnosticEngine D3;
    ASSERT_TRUE(SE.evaluate(Storage, D3)) << D3.dump();
    expectSameAttribution(AG, Compiled.root(), Storage.root(),
                          "minipascal/storage");
    EXPECT_EQ(SE.stats().RulesEvaluated, CE.stats().RulesEvaluated);
  }
}

TEST(DifferentialTest, SpecGenSystemSuiteFamilyAgrees) {
  for (const workloads::SystemAg &Ag : workloads::systemAgSuite()) {
    DiagnosticEngine Diags;
    olga::CompileResult C = olga::compileMolga(Ag.Source, Diags);
    ASSERT_TRUE(C.Success) << Ag.Name << ": " << Diags.dump();
    DiagnosticEngine GD;
    GeneratorOptions Opts;
    Opts.OagK = Ag.OagK;
    GeneratedEvaluator GE = generateEvaluator(C.Grammars[0].AG, GD, Opts);
    ASSERT_TRUE(GE.Success) << Ag.Name << ": " << GD.dump();
    runFamily(C.Grammars[0].AG, GE, 3, 160, 23);
  }
}

} // namespace
