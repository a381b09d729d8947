//===- tests/MergedBatchTest.cpp - shape-merged batch engine gate ---------===//
//
// The merged engine's dedicated suite: SoA arena geometry, the level-order
// walk, cohort formation (shape grouping, threshold fallback, empty /
// singleton / rootless inputs), merged-vs-sequential differentials over the
// classics and the SpecGen system suite, a seeded 10k-mixed-shape fuzz run,
// cohort-wide failure diagnostics, and the resident session's recovery
// from a failed round. The engine also rides along in every suite that
// calls testutil::runFamily() via the engine registry.
//
//===----------------------------------------------------------------------===//

#include "FamilyCheck.h"
#include "eval/MergedBatchEvaluator.h"
#include "grammar/GrammarBuilder.h"
#include "olga/Driver.h"
#include "storage/SoAFrames.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/SpecGen.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace fnc2;
using namespace fnc2::testutil;

namespace {

//===----------------------------------------------------------------------===//
// SoA arena
//===----------------------------------------------------------------------===//

TEST(SoAFrameArenaTest, LaneGeometryAndMaskWords) {
  SoAFrameArena A;
  // Position 2 exercises the 64-slot word boundary (65 real slots -> two
  // mask words) plus a lexeme pseudo-slot; position 1 is slotless.
  const uint16_t Real[] = {2, 0, 65, 64};
  const uint16_t Lanes[] = {3, 0, 66, 64};
  A.layout(Real, Lanes, 3);
  EXPECT_EQ(A.numMembers(), 3u);
  EXPECT_EQ(A.numPositions(), 4u);
  EXPECT_EQ(A.maskWords(0), 1u);
  EXPECT_EQ(A.maskWords(1), 0u);
  EXPECT_EQ(A.maskWords(2), 2u);
  EXPECT_EQ(A.maskWords(3), 1u);

  // Lanes are disjoint: stamp a distinct value into every (pos, slot,
  // member) cell, then read them all back.
  auto Stamp = [](size_t Pos, unsigned Slot, unsigned M) {
    return int64_t(Pos * 1000003 + Slot * 101 + M);
  };
  for (size_t Pos = 0; Pos != 4; ++Pos)
    for (unsigned Slot = 0; Slot != Lanes[Pos]; ++Slot)
      for (unsigned M = 0; M != 3; ++M)
        A.lane(Pos, Slot)[M] = Value::ofInt(Stamp(Pos, Slot, M));
  for (size_t Pos = 0; Pos != 4; ++Pos)
    for (unsigned Slot = 0; Slot != Lanes[Pos]; ++Slot)
      for (unsigned M = 0; M != 3; ++M)
        EXPECT_EQ(A.lane(Pos, Slot)[M].asInt(), Stamp(Pos, Slot, M))
            << Pos << "/" << Slot << "/" << M;

  // Computed bits: per-position words, TreeNode::ComputedBits layout.
  EXPECT_FALSE(A.computed(2, 64));
  A.setComputed(2, 64);
  EXPECT_TRUE(A.computed(2, 64));
  EXPECT_FALSE(A.computed(2, 0));
  EXPECT_EQ(A.mask(2)[1], uint64_t(1));
  EXPECT_EQ(A.mask(2)[0], uint64_t(0));
  A.setComputed(3, 63);
  EXPECT_EQ(A.mask(3)[0], uint64_t(1) << 63);

  // Re-layout resets values and bits while reusing storage.
  A.layout(Real, Lanes, 2);
  EXPECT_EQ(A.numMembers(), 2u);
  EXPECT_FALSE(A.computed(2, 64));
  EXPECT_TRUE(A.lane(0, 0)[0].isUnit());
}

TEST(SoAFrameArenaTest, AppendLevelOrderGivesContiguousChildBlocks) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Mul(Num<2>,Num<3>)))", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();

  std::vector<TreeNode *> Level;
  appendLevelOrder(T.root(), Level);
  ASSERT_EQ(Level.size(), size_t(T.size()));
  EXPECT_EQ(Level[0], T.root());
  // FirstChild[P] = 1 + sum of arities before P maps every (position, son)
  // pair onto the position of the actual child pointer.
  size_t NextChild = 1;
  for (size_t P = 0; P != Level.size(); ++P) {
    for (unsigned S = 0; S != Level[P]->arity(); ++S)
      EXPECT_EQ(Level[NextChild + S], Level[P]->child(S)) << P << "/" << S;
    NextChild += Level[P]->arity();
  }
  EXPECT_EQ(NextChild, Level.size());
}

//===----------------------------------------------------------------------===//
// Cohort formation
//===----------------------------------------------------------------------===//

struct DeskFixture {
  AttributeGrammar AG;
  GeneratedEvaluator GE;
};

DeskFixture deskFixture() {
  DeskFixture F;
  DiagnosticEngine Diags;
  F.AG = workloads::deskCalculator(Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.dump();
  DiagnosticEngine GD;
  F.GE = generateEvaluator(F.AG, GD);
  EXPECT_TRUE(F.GE.Success) << GD.dump();
  return F;
}

Tree deskTerm(const AttributeGrammar &AG, const std::string &Term) {
  DiagnosticEngine D;
  Tree T = readTerm(AG, Term, D);
  EXPECT_FALSE(D.hasErrors()) << Term << ": " << D.dump();
  return T;
}

TEST(MergedBatchTest, CohortFormationGroupsByShapeNotLexeme) {
  DeskFixture F = deskFixture();
  ThreadPool Pool(2);
  MergedBatchEvaluator ME(F.GE.Plan, Pool);
  ME.setCohortThreshold(2);

  // Three shapes: A x3 (same shape, different lexemes), B x2, C x1.
  std::vector<Tree> Trees;
  Trees.push_back(deskTerm(F.AG, "Calc(Num<1>)"));                        // A
  Trees.push_back(deskTerm(F.AG, "Calc(Add(Num<1>,Num<2>))"));            // B
  Trees.push_back(deskTerm(F.AG, "Calc(Num<2>)"));                        // A
  Trees.push_back(deskTerm(F.AG, "Calc(Add(Num<3>,Mul(Num<4>,Num<5>)))")); // C
  Trees.push_back(deskTerm(F.AG, "Calc(Num<3>)"));                        // A
  Trees.push_back(deskTerm(F.AG, "Calc(Add(Num<6>,Num<7>))"));            // B

  CohortSet Set = ME.formCohorts(Trees);
  ASSERT_EQ(Set.Cohorts.size(), 2u);
  std::vector<std::vector<uint32_t>> Members;
  for (const Cohort &C : Set.Cohorts) {
    // Every member really has the cohort's shape.
    for (uint32_t M : C.Members) {
      ASSERT_EQ(Set.level(M).size(), C.Shape.Prods.size());
      for (size_t P = 0; P != C.Shape.Prods.size(); ++P)
        EXPECT_EQ(Set.level(M)[P]->Prod, C.Shape.Prods[P]);
    }
    Members.push_back(C.Members);
    std::sort(Members.back().begin(), Members.back().end());
  }
  std::sort(Members.begin(), Members.end());
  EXPECT_EQ(Members[0], (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(Members[1], (std::vector<uint32_t>{1, 5}));
  EXPECT_EQ(Set.Fallback, (std::vector<uint32_t>{3}));

  const MergedStats &MS = ME.mergedStats();
  EXPECT_EQ(MS.TreesMerged, 5u);
  EXPECT_EQ(MS.TreesFallback, 1u);
  EXPECT_EQ(MS.CohortsFormed, 2u);
  EXPECT_EQ(MS.CohortsLt4, 3u) << "all three shape groups are under 4";
  EXPECT_EQ(MS.CohortsLt16 + MS.CohortsLt64 + MS.CohortsLt256 +
                MS.CohortsLt1024 + MS.CohortsGe1024,
            0u);

  // Desk's Num reads its lexeme, so every cohort shape must carry lexeme
  // pseudo-slot positions.
  for (const Cohort &C : Set.Cohorts) {
    EXPECT_FALSE(C.Shape.LexemePositions.empty());
    for (uint32_t P : C.Shape.LexemePositions)
      EXPECT_EQ(C.Shape.LaneSlots[P], C.Shape.RealSlots[P] + 1);
  }
}

TEST(MergedBatchTest, EmptySingletonAndRootlessBatches) {
  DeskFixture F = deskFixture();
  ThreadPool Pool(2);
  MergedBatchEvaluator ME(F.GE.Plan, Pool);

  // Empty batch: no cohorts, no outcomes, zero stats.
  std::vector<Tree> Empty;
  BatchResult R0 = ME.evaluate(Empty);
  EXPECT_TRUE(R0.Outcomes.empty());
  EXPECT_TRUE(R0.allSucceeded());
  EXPECT_EQ(ME.mergedStats().RulesEvaluated, 0u);

  // A singleton under threshold 1 forms a one-member cohort and matches
  // the sequential evaluator.
  std::vector<Tree> One;
  One.push_back(deskTerm(F.AG, "Calc(Add(Num<20>,Num<22>))"));
  Tree Ref = cloneTree(F.AG, One[0]);
  Evaluator E(F.GE.Plan);
  DiagnosticEngine D;
  ASSERT_TRUE(E.evaluate(Ref, D)) << D.dump();

  ME.setCohortThreshold(1);
  BatchResult R1 = ME.evaluate(One);
  ASSERT_TRUE(R1.allSucceeded()) << R1.Outcomes[0].Diags.dump();
  expectSameAttribution(F.AG, Ref.root(), One[0].root(), "singleton");
  EXPECT_EQ(ME.mergedStats().TreesMerged, 1u);
  EXPECT_EQ(ME.mergedStats().CohortsFormed, 1u);
  EXPECT_EQ(ME.mergedStats().RulesEvaluated, E.stats().RulesEvaluated);

  // A rootless tree rides the fallback path and fails with the classic
  // engine's empty-tree diagnostic; its healthy sibling still succeeds.
  std::vector<Tree> Mixed;
  Mixed.push_back(Tree(F.AG));
  Mixed.push_back(deskTerm(F.AG, "Calc(Num<9>)"));
  BatchResult R2 = ME.evaluate(Mixed);
  EXPECT_EQ(R2.NumSucceeded, 1u);
  ASSERT_EQ(R2.Outcomes.size(), 2u);
  EXPECT_FALSE(R2.Outcomes[0].Success);
  EXPECT_NE(R2.Outcomes[0].Diags.dump().find("empty tree"), std::string::npos);
  EXPECT_TRUE(R2.Outcomes[1].Success);
  EXPECT_EQ(ME.mergedStats().TreesFallback, 1u);
}

TEST(MergedBatchTest, ThresholdFallbackAndMergedAgreeExactly) {
  DeskFixture F = deskFixture();
  ThreadPool Pool(4);
  TreeGenerator Gen(F.AG, 5);
  std::vector<Tree> Sources;
  for (unsigned I = 0; I != 10; ++I)
    Sources.push_back(Gen.generate(8 + 7 * I));

  auto RunWithThreshold = [&](unsigned Threshold, std::vector<Tree> &Batch,
                              MergedStats &Out) {
    for (const Tree &T : Sources) {
      Batch.push_back(cloneTree(F.AG, T));
      Batch.push_back(cloneTree(F.AG, T));
    }
    MergedBatchEvaluator ME(F.GE.Plan, Pool);
    ME.setCohortThreshold(Threshold);
    BatchResult R = ME.evaluate(Batch);
    EXPECT_TRUE(R.allSucceeded());
    Out = ME.mergedStats();
  };

  std::vector<Tree> Merged, Fallback;
  MergedStats MS, FS;
  RunWithThreshold(1, Merged, MS);
  RunWithThreshold(1000000, Fallback, FS);

  EXPECT_EQ(MS.TreesFallback, 0u);
  EXPECT_EQ(MS.TreesMerged, Merged.size());
  EXPECT_EQ(FS.TreesMerged, 0u);
  EXPECT_EQ(FS.TreesFallback, Fallback.size());
  // Identical attributions and identical folded counters either way.
  for (unsigned I = 0; I != Merged.size(); ++I)
    expectSameAttribution(F.AG, Fallback[I].root(), Merged[I].root(),
                          "threshold " + std::to_string(I));
  EXPECT_EQ(MS.RulesEvaluated, FS.RulesEvaluated);
  EXPECT_EQ(MS.VisitsPerformed, FS.VisitsPerformed);
  EXPECT_EQ(MS.InstructionsExecuted, FS.InstructionsExecuted);
}

//===----------------------------------------------------------------------===//
// Differentials: classics + SpecGen sweep
//===----------------------------------------------------------------------===//

void runMergedDifferential(const AttributeGrammar &AG,
                           const GeneratedEvaluator &GE, unsigned NumTrees,
                           unsigned TreeSize, uint64_t Seed) {
  TreeGenerator Gen(AG, Seed);
  std::vector<Tree> Sources;
  for (unsigned I = 0; I != NumTrees; ++I)
    Sources.push_back(Gen.generate(TreeSize + 13 * I));

  std::vector<Tree> Reference;
  EvalStats SeqTotal;
  for (const Tree &T : Sources) {
    Tree R = cloneTree(AG, T);
    Evaluator E(GE.Plan);
    provideRootInherited(AG, E);
    DiagnosticEngine D;
    ASSERT_TRUE(E.evaluate(R, D)) << AG.Name << ": " << D.dump();
    SeqTotal.merge(E.stats());
    Reference.push_back(std::move(R));
  }

  // Triplicate so every shape forms a cohort; shard size 2 forces several
  // shards per cohort so the sharded path is exercised too.
  std::vector<Tree> Batch;
  for (const Tree &T : Sources)
    for (unsigned K = 0; K != 3; ++K)
      Batch.push_back(cloneTree(AG, T));
  ThreadPool Pool(4);
  MergedBatchEvaluator ME(GE.Plan, Pool);
  ME.setCohortThreshold(1);
  ME.setShardMaxMembers(2);
  provideRootInherited(AG, ME);
  BatchResult R = ME.evaluate(Batch);
  ASSERT_TRUE(R.allSucceeded())
      << AG.Name << ": " << R.Outcomes[0].Diags.dump();
  for (unsigned I = 0; I != NumTrees; ++I)
    for (unsigned K = 0; K != 3; ++K)
      expectSameAttribution(AG, Reference[I].root(), Batch[3 * I + K].root(),
                            AG.Name + "/merged-diff");
  const MergedStats &MS = ME.mergedStats();
  EXPECT_EQ(MS.TreesFallback, 0u) << AG.Name;
  EXPECT_EQ(MS.RulesEvaluated, 3 * SeqTotal.RulesEvaluated) << AG.Name;
  EXPECT_EQ(MS.VisitsPerformed, 3 * SeqTotal.VisitsPerformed) << AG.Name;
  EXPECT_EQ(MS.InstructionsExecuted, 3 * SeqTotal.InstructionsExecuted)
      << AG.Name;
}

TEST(MergedBatchTest, ClassicsMergedMatchesSequential) {
  using Factory = AttributeGrammar (*)(DiagnosticEngine &);
  const Factory Factories[] = {
      workloads::deskCalculator,    workloads::binaryNumbers,
      workloads::repmin,            workloads::twoContextGrammar,
      workloads::dncNotOagGrammar,  workloads::oag1Grammar};
  for (Factory Make : Factories) {
    DiagnosticEngine Diags;
    AttributeGrammar AG = Make(Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
    DiagnosticEngine GD;
    GeneratorOptions Opts;
    Opts.OagK = 1; // lets oag1Grammar order; harmless for the others
    GeneratedEvaluator GE = generateEvaluator(AG, GD, Opts);
    ASSERT_TRUE(GE.Success) << AG.Name << ": " << GD.dump();
    SCOPED_TRACE(AG.Name);
    runMergedDifferential(AG, GE, 6, 30, 17);
  }
}

TEST(MergedBatchTest, SpecGenSystemSuiteMergedMatchesSequential) {
  for (const workloads::SystemAg &Ag : workloads::systemAgSuite()) {
    DiagnosticEngine Diags;
    olga::CompileResult C = olga::compileMolga(Ag.Source, Diags);
    ASSERT_TRUE(C.Success) << Ag.Name << ": " << Diags.dump();
    DiagnosticEngine GD;
    GeneratorOptions Opts;
    Opts.OagK = Ag.OagK;
    GeneratedEvaluator GE = generateEvaluator(C.Grammars[0].AG, GD, Opts);
    ASSERT_TRUE(GE.Success) << Ag.Name << ": " << GD.dump();
    SCOPED_TRACE(Ag.Name);
    runMergedDifferential(C.Grammars[0].AG, GE, 4, 60, 29);
  }
}

//===----------------------------------------------------------------------===//
// Seeded mixed-shape fuzz
//===----------------------------------------------------------------------===//

TEST(MergedBatchTest, SeededTenThousandMixedShapeTreesFuzz) {
  DeskFixture F = deskFixture();

  // 500 generated base shapes, each cloned 20 times round-robin: 10k trees,
  // every shape group at least 20 strong (more where shapes collide), so
  // the default threshold merges everything.
  constexpr unsigned NumBases = 500;
  constexpr unsigned Clones = 20;
  TreeGenerator Gen(F.AG, 0xfeedbeef);
  std::vector<Tree> Bases;
  EvalStats Expected;
  for (unsigned I = 0; I != NumBases; ++I) {
    Bases.push_back(Gen.generate(6 + (I % 37)));
    Tree R = cloneTree(F.AG, Bases.back());
    Evaluator E(F.GE.Plan);
    DiagnosticEngine D;
    ASSERT_TRUE(E.evaluate(R, D)) << D.dump();
    for (unsigned K = 0; K != Clones; ++K)
      Expected.merge(E.stats());
    Bases[I] = std::move(R); // keep the attributed version as the reference
  }

  std::vector<Tree> Batch;
  Batch.reserve(size_t(NumBases) * Clones);
  for (unsigned K = 0; K != Clones; ++K)
    for (unsigned I = 0; I != NumBases; ++I)
      Batch.push_back(cloneTree(F.AG, Bases[I]));

  ThreadPool Pool(4);
  MergedBatchEvaluator ME(F.GE.Plan, Pool);
  BatchResult R = ME.evaluate(Batch);
  ASSERT_EQ(R.Outcomes.size(), Batch.size());
  ASSERT_TRUE(R.allSucceeded());

  const MergedStats &MS = ME.mergedStats();
  EXPECT_EQ(MS.TreesMerged, Batch.size());
  EXPECT_EQ(MS.TreesFallback, 0u);
  EXPECT_GT(MS.CohortsFormed, 0u);
  EXPECT_LE(MS.CohortsFormed, uint64_t(NumBases));
  EXPECT_EQ(MS.RulesEvaluated, Expected.RulesEvaluated);
  EXPECT_EQ(MS.VisitsPerformed, Expected.VisitsPerformed);
  EXPECT_EQ(MS.InstructionsExecuted, Expected.InstructionsExecuted);
  // The histogram covers every shape group exactly once.
  EXPECT_EQ(MS.CohortsLt4 + MS.CohortsLt16 + MS.CohortsLt64 + MS.CohortsLt256 +
                MS.CohortsLt1024 + MS.CohortsGe1024,
            MS.CohortsFormed);

  for (unsigned K = 0; K != Clones; ++K)
    for (unsigned I = 0; I != NumBases; ++I)
      expectSameAttribution(F.AG, Bases[I].root(),
                            Batch[size_t(K) * NumBases + I].root(),
                            "fuzz base " + std::to_string(I));
}

//===----------------------------------------------------------------------===//
// Failure semantics
//===----------------------------------------------------------------------===//

TEST(MergedBatchTest, FailingCohortMatchesSequentialDiagnostics) {
  // A grammar whose start phylum demands an inherited attribute: without it
  // every member of the cohort fails at the same point with the sequential
  // engine's exact diagnostic; providing it flips the batch to success.
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

  // The sequential diagnostic to match.
  DiagnosticEngine SD;
  Tree SeqTree = readTerm(AG, "Leaf", SD);
  Evaluator SE(GE.Plan);
  ASSERT_FALSE(SE.evaluate(SeqTree, SD));
  const std::string SeqMsg = SD.dump();
  EXPECT_EQ(SE.stats().VisitsPerformed, 0u);

  ThreadPool Pool(2);
  MergedBatchEvaluator ME(GE.Plan, Pool);
  ME.setCohortThreshold(1);
  std::vector<Tree> Trees;
  for (unsigned I = 0; I != 8; ++I) {
    DiagnosticEngine D;
    Trees.push_back(readTerm(AG, "Leaf", D));
  }

  BatchResult Fail = ME.evaluate(Trees);
  EXPECT_EQ(Fail.NumSucceeded, 0u);
  for (const BatchTreeOutcome &Out : Fail.Outcomes) {
    EXPECT_FALSE(Out.Success);
    EXPECT_EQ(Out.Diags.dump(), SeqMsg);
  }
  // The failure fires before any visit, exactly like the sequential run,
  // and failed members' trees are reset, not left partially attributed.
  EXPECT_EQ(ME.mergedStats().VisitsPerformed, 0u);
  EXPECT_EQ(ME.mergedStats().RulesEvaluated, 0u);
  for (const Tree &T : Trees)
    EXPECT_FALSE(T.root()->attrComputed(AG.attr(S).IndexInOwner));

  ME.setRootInherited(H, Value::ofInt(5));
  BatchResult Ok = ME.evaluate(Trees);
  EXPECT_TRUE(Ok.allSucceeded());
  for (const Tree &T : Trees)
    EXPECT_EQ(T.root()->attrVal(AG.attr(S).IndexInOwner).asInt(), 5);
  EXPECT_EQ(ME.mergedStats().TreesMerged, Trees.size());
}

TEST(MergedBatchSessionTest, UnsetRootInheritedFailsThenRecovers) {
  // The resident session's failure-then-recovery path: with the start
  // phylum's inherited attribute unset, every tree of a mixed batch (two
  // cohorts plus per-tree fallbacks) fails with the sequential engine's
  // diagnostic and cohort trees are reset; setting the attribute must make
  // the next round refill the root lanes and succeed.
  DiagnosticEngine Diags;
  GrammarBuilder B("chain-input");
  PhylumId X = B.phylum("X");
  AttrId H = B.inherited(X, "h", "int");
  AttrId S = B.synthesized(X, "s", "int");
  ProdId Leaf = B.production("Leaf", X, {});
  B.copy(Leaf, AttrOcc::onSymbol(0, S), AttrOcc::onSymbol(0, H));
  ProdId Pair = B.production("Pair", X, {X, X});
  B.copy(Pair, AttrOcc::onSymbol(1, H), AttrOcc::onSymbol(0, H));
  B.copy(Pair, AttrOcc::onSymbol(2, H), AttrOcc::onSymbol(1, S));
  B.copy(Pair, AttrOcc::onSymbol(0, S), AttrOcc::onSymbol(2, S));
  B.setStart(X);
  AttributeGrammar AG = B.finalize(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();

  // Two shapes of five trees each merge (threshold 4); the two shapes of
  // one or two trees fall back.
  const std::pair<const char *, unsigned> Terms[] = {
      {"Leaf", 5},
      {"Pair(Leaf, Pair(Leaf, Leaf))", 5},
      {"Pair(Leaf, Leaf)", 2},
      {"Pair(Pair(Leaf, Leaf), Leaf)", 1}};
  std::vector<Tree> Trees;
  std::vector<bool> Merged;
  for (const auto &[Term, Count] : Terms)
    for (unsigned I = 0; I != Count; ++I) {
      DiagnosticEngine D;
      Trees.push_back(readTerm(AG, Term, D));
      ASSERT_FALSE(D.hasErrors()) << D.dump();
      Merged.push_back(Count >= 4);
    }

  // The sequential diagnostic: a fallback failure carries its dump, a
  // cohort failure its one message.
  DiagnosticEngine SD;
  Tree SeqTree = readTerm(AG, "Leaf", SD);
  Evaluator SE(GE.Plan);
  ASSERT_FALSE(SE.evaluate(SeqTree, SD));
  ASSERT_EQ(SD.diagnostics().size(), 1u);
  const std::string SeqDump = SD.dump();
  const std::string SeqMsg = SD.diagnostics().front().Message;

  // Attribute every tree first (sequentially, with the input given), so
  // that the failed round's reset is observable.
  const unsigned SSlot = AG.attr(S).IndexInOwner;
  for (Tree &T : Trees) {
    Evaluator E(GE.Plan);
    E.setRootInherited(H, Value::ofInt(3));
    DiagnosticEngine D;
    ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
    ASSERT_TRUE(T.root()->attrComputed(SSlot));
  }

  ThreadPool Pool(2);
  MergedBatchSession Session(GE.Plan, Pool);
  Session.bind(Trees);
  EXPECT_EQ(Session.mergedStats().TreesMerged, 10u);
  EXPECT_EQ(Session.mergedStats().TreesFallback, 3u);

  SessionResult Fail = Session.evaluate();
  EXPECT_EQ(Fail.NumSucceeded, 0u);
  ASSERT_EQ(Fail.Failures.size(), Trees.size());
  for (const auto &[Idx, Msg] : Fail.Failures) {
    EXPECT_FALSE(Session.succeeded(Idx));
    EXPECT_EQ(Msg, Merged[Idx] ? SeqMsg : SeqDump) << "tree " << Idx;
  }
  EXPECT_EQ(Session.mergedStats().VisitsPerformed, 0u);
  EXPECT_EQ(Session.mergedStats().RulesEvaluated, 0u);
  // Failed trees are reset: none keeps its earlier attribute.
  for (const Tree &T : Trees)
    EXPECT_FALSE(T.root()->attrComputed(SSlot));
  Session.flush(); // Scatters nothing from failed shards.
  for (const Tree &T : Trees)
    EXPECT_FALSE(T.root()->attrComputed(SSlot));

  Session.setRootInherited(H, Value::ofInt(5));
  SessionResult Ok = Session.evaluate();
  ASSERT_TRUE(Ok.allSucceeded())
      << (Ok.Failures.empty() ? "" : Ok.Failures[0].second);
  for (size_t I = 0; I != Trees.size(); ++I)
    EXPECT_EQ(Session.rootSlot(I, SSlot).asInt(), 5);
  Session.flush();

  EvalStats RefStats;
  for (size_t I = 0; I != Trees.size(); ++I) {
    Tree Ref = cloneTree(AG, Trees[I]);
    Evaluator E(GE.Plan);
    E.setRootInherited(H, Value::ofInt(5));
    DiagnosticEngine D;
    ASSERT_TRUE(E.evaluate(Ref, D)) << D.dump();
    RefStats.merge(E.stats());
    expectSameAttribution(AG, Ref.root(), Trees[I].root(),
                          "recovered tree " + std::to_string(I));
  }
  EXPECT_EQ(Ok.Stats.RulesEvaluated, RefStats.RulesEvaluated);
  EXPECT_EQ(Ok.Stats.VisitsPerformed, RefStats.VisitsPerformed);
  EXPECT_EQ(Ok.Stats.InstructionsExecuted, RefStats.InstructionsExecuted);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(MergedBatchTest, EngineRegistryListsMergedEngine) {
  bool Found = false;
  for (const EngineSpec &Spec : engineFamily())
    Found |= std::string_view(Spec.Name) == "merged-batch";
  EXPECT_TRUE(Found) << "merged engine must ride every runFamily() suite";
}

} // namespace
