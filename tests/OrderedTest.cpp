//===- tests/OrderedTest.cpp - partitions & transformation tests ----------===//

#include "analysis/Oag.h"
#include "eval/CompiledPlan.h"
#include "ordered/Transform.h"
#include "visitseq/VisitSequence.h"
#include "workloads/ClassicGrammars.h"

#include <gtest/gtest.h>

using namespace fnc2;

namespace {

TEST(PartitionTest, FromLinearGroupsRuns) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  PhylumId List = AG.findPhylum("List");
  // Attribute order in owner: scale(0, inh), val(1, syn), len(2, syn).
  auto P = TotallyOrderedPartition::fromLinear(AG, List, {2, 0, 1});
  // len (syn) first, then scale (inh), then val (syn): 3 blocks.
  ASSERT_EQ(P.numBlocks(), 3u);
  EXPECT_EQ(P.Blocks[0].Kind, AttrKind::Synthesized);
  EXPECT_EQ(P.Blocks[1].Kind, AttrKind::Inherited);
  EXPECT_EQ(P.numVisits(), 2u);
  EXPECT_EQ(P.visitOf(2), 1u); // len returned by visit 1
  EXPECT_EQ(P.visitOf(0), 2u); // scale passed down for visit 2
  EXPECT_EQ(P.visitOf(1), 2u); // val returned by visit 2
}

TEST(PartitionTest, FromLinearMergesSameKindRuns) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::twoContextGrammar(Diags);
  PhylumId X = AG.findPhylum("X");
  // h1(0) h2(1) inh; s1(2) s2(3) syn; linear h1 h2 s1 s2 gives 2 blocks.
  auto P = TotallyOrderedPartition::fromLinear(AG, X, {0, 1, 2, 3});
  EXPECT_EQ(P.numBlocks(), 2u);
  EXPECT_EQ(P.numVisits(), 1u);
}

TEST(PartitionTest, FromRelationPeelsChain) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::twoContextGrammar(Diags);
  PhylumId X = AG.findPhylum("X");
  BitMatrix DS(4, 4);
  DS.set(0, 2); // h1 -> s1
  DS.set(2, 1); // s1 -> h2
  DS.set(1, 3); // h2 -> s2
  auto P = TotallyOrderedPartition::fromRelation(AG, X, DS);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->numBlocks(), 4u);
  EXPECT_EQ(P->numVisits(), 2u);
  EXPECT_LT(P->blockOf(0), P->blockOf(2));
  EXPECT_LT(P->blockOf(2), P->blockOf(1));
}

TEST(PartitionTest, FromRelationFailsOnCycle) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::twoContextGrammar(Diags);
  PhylumId X = AG.findPhylum("X");
  BitMatrix DS(4, 4);
  DS.set(0, 2);
  DS.set(2, 0);
  EXPECT_FALSE(TotallyOrderedPartition::fromRelation(AG, X, DS).has_value());
}

TEST(PartitionTest, EmptyPartitionHasOneStructuralVisit) {
  TotallyOrderedPartition P;
  EXPECT_EQ(P.numVisits(), 1u);
}

TEST(TransformTest, SingleContextGrammarsCollapseToOnePartition) {
  DiagnosticEngine Diags;
  AttributeGrammar Gs[] = {workloads::deskCalculator(Diags),
                           workloads::binaryNumbers(Diags),
                           workloads::repmin(Diags)};
  ASSERT_FALSE(Diags.hasErrors());
  for (const AttributeGrammar &AG : Gs) {
    SncResult Snc = runSncTest(AG);
    ASSERT_TRUE(Snc.IsSNC) << AG.Name;
    TransformResult R = sncToLOrdered(AG, Snc, ReuseMode::LongInclusion);
    ASSERT_TRUE(R.Success) << AG.Name << ": " << R.FailureReason;
    EXPECT_EQ(R.MaxPartitionsPerPhylum, 1u) << AG.Name;
    EXPECT_DOUBLE_EQ(R.AvgPartitionsPerPhylum, 1.0) << AG.Name;
  }
}

TEST(TransformTest, TwoContextGrammarNeedsTwoPartitions) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::twoContextGrammar(Diags);
  SncResult Snc = runSncTest(AG);
  ASSERT_TRUE(Snc.IsSNC);

  TransformResult Long = sncToLOrdered(AG, Snc, ReuseMode::LongInclusion);
  ASSERT_TRUE(Long.Success) << Long.FailureReason;
  PhylumId X = AG.findPhylum("X");
  EXPECT_EQ(Long.Partitions[X].size(), 2u)
      << "the opposite context orders are genuinely incompatible";
  // The leaf production of X needs one visit sequence per partition.
  ProdId Leaf = AG.findProd("LeafX");
  EXPECT_EQ(Long.Instances[Leaf].size(), 2u);

  TransformResult Eq = sncToLOrdered(AG, Snc, ReuseMode::Equality);
  ASSERT_TRUE(Eq.Success);
  EXPECT_GE(Eq.Partitions[X].size(), Long.Partitions[X].size());
}

TEST(TransformTest, LongInclusionNeverWorseThanEquality) {
  DiagnosticEngine Diags;
  AttributeGrammar Gs[] = {
      workloads::deskCalculator(Diags), workloads::binaryNumbers(Diags),
      workloads::repmin(Diags), workloads::twoContextGrammar(Diags),
      workloads::dncNotOagGrammar(Diags), workloads::oag1Grammar(Diags)};
  ASSERT_FALSE(Diags.hasErrors());
  for (const AttributeGrammar &AG : Gs) {
    SncResult Snc = runSncTest(AG);
    ASSERT_TRUE(Snc.IsSNC) << AG.Name;
    TransformResult Long = sncToLOrdered(AG, Snc, ReuseMode::LongInclusion);
    TransformResult Eq = sncToLOrdered(AG, Snc, ReuseMode::Equality);
    ASSERT_TRUE(Long.Success && Eq.Success) << AG.Name;
    EXPECT_LE(Long.TotalPartitions, Eq.TotalPartitions) << AG.Name;
    EXPECT_LE(Long.NumInstances, Eq.NumInstances) << AG.Name;
  }
}

TEST(TransformTest, DncNotOagGrammarIsTransformable) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::dncNotOagGrammar(Diags);
  SncResult Snc = runSncTest(AG);
  ASSERT_TRUE(Snc.IsSNC);
  TransformResult R = sncToLOrdered(AG, Snc, ReuseMode::LongInclusion);
  ASSERT_TRUE(R.Success) << R.FailureReason;
  EXPECT_GT(R.NumInstances, 0u);
}

TEST(TransformTest, LinearOrdersRespectDependencies) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  SncResult Snc = runSncTest(AG);
  TransformResult R = sncToLOrdered(AG, Snc, ReuseMode::LongInclusion);
  ASSERT_TRUE(R.Success);
  for (ProdId P = 0; P != AG.numProds(); ++P) {
    for (const TransformInstance &Inst : R.Instances[P]) {
      const ProductionInfo &PI = AG.info(P);
      ASSERT_EQ(Inst.Linear.size(), PI.numOccs());
      std::vector<unsigned> Pos(PI.numOccs());
      for (unsigned I = 0; I != Inst.Linear.size(); ++I)
        Pos[Inst.Linear[I]] = I;
      for (unsigned From = 0; From != PI.numOccs(); ++From)
        for (unsigned To : PI.DepGraph.successors(From))
          EXPECT_LT(Pos[From], Pos[To])
              << AG.prod(P).Name << ": dependency violated";
    }
  }
}

TEST(UniformInstancesTest, WrapsOagPartitions) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  OagResult Oag = runOagTest(AG);
  ASSERT_TRUE(Oag.IsOAG);
  TransformResult R = uniformInstances(AG, Oag.Partitions);
  ASSERT_TRUE(R.Success) << R.FailureReason;
  EXPECT_EQ(R.NumInstances, AG.numProds());
  EXPECT_EQ(R.MaxPartitionsPerPhylum, 1u);
}

TEST(VisitSeqTest, DeskCalculatorSingleVisitShape) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  OagResult Oag = runOagTest(AG);
  ASSERT_TRUE(Oag.IsOAG);
  TransformResult TR = uniformInstances(AG, Oag.Partitions);
  EvaluationPlan Plan;
  DiagnosticEngine D;
  ASSERT_TRUE(buildVisitSequences(AG, TR, Plan, D)) << D.dump();
  EXPECT_EQ(Plan.numSequences(), AG.numProds());

  CompiledPlan CP(Plan);
  const CompiledSeq *Add = CP.seqFor(AG.findProd("Add"), 0);
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add->NumVisits, 1u);
  // Shape: one body (BEGIN is compiled away) of evals and two child visits,
  // ending in the LEAVE of visit 1.
  uint32_t I = CP.bodyStart(*Add, 1);
  unsigned Visits = 0;
  for (; CP.Instrs[I].Kind != CompiledInstr::Op::Leave; ++I)
    Visits += CP.Instrs[I].Kind == CompiledInstr::Op::Visit;
  EXPECT_EQ(Visits, 2u);
  EXPECT_EQ(CP.Instrs[I].VisitNo, 1u);
}

TEST(VisitSeqTest, EveryRuleEvaluatedExactlyOnce) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  SncResult Snc = runSncTest(AG);
  TransformResult TR = sncToLOrdered(AG, Snc);
  EvaluationPlan Plan;
  DiagnosticEngine D;
  ASSERT_TRUE(buildVisitSequences(AG, TR, Plan, D)) << D.dump();
  for (const VisitSequence &Seq : Plan.Seqs) {
    std::vector<unsigned> Count(AG.numRules(), 0);
    for (const VisitInstr &I : Seq.Instrs)
      if (I.Kind == VisitInstr::Op::Eval)
        for (RuleId R : I.Rules)
          ++Count[R];
    for (RuleId R : AG.prod(Seq.Prod).Rules)
      EXPECT_EQ(Count[R], 1u)
          << AG.prod(Seq.Prod).Name << " rule " << AG.rule(R).FnName;
  }
}

TEST(VisitSeqTest, ChildVisitsAreSequentialAndComplete) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  SncResult Snc = runSncTest(AG);
  TransformResult TR = sncToLOrdered(AG, Snc);
  EvaluationPlan Plan;
  DiagnosticEngine D;
  ASSERT_TRUE(buildVisitSequences(AG, TR, Plan, D)) << D.dump();
  for (const VisitSequence &Seq : Plan.Seqs) {
    const Production &Pr = AG.prod(Seq.Prod);
    std::vector<unsigned> Next(Pr.arity(), 1);
    for (const VisitInstr &I : Seq.Instrs) {
      if (I.Kind != VisitInstr::Op::Visit)
        continue;
      EXPECT_EQ(I.VisitNo, Next[I.Child]) << Pr.Name;
      ++Next[I.Child];
    }
    for (unsigned C = 0; C != Pr.arity(); ++C) {
      unsigned Expected =
          Plan.Partitions[Pr.Rhs[C]][Seq.ChildPartition[C]].numVisits();
      EXPECT_EQ(Next[C] - 1, Expected) << Pr.Name << " child " << C;
    }
  }
}

TEST(VisitSeqTest, DumpMentionsAllInstructionKinds) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  SncResult Snc = runSncTest(AG);
  TransformResult TR = sncToLOrdered(AG, Snc);
  EvaluationPlan Plan;
  DiagnosticEngine D;
  ASSERT_TRUE(buildVisitSequences(AG, TR, Plan, D));
  std::string Dump = Plan.dump();
  EXPECT_NE(Dump.find("BEGIN 1"), std::string::npos);
  EXPECT_NE(Dump.find("VISIT"), std::string::npos);
  EXPECT_NE(Dump.find("EVAL"), std::string::npos);
  EXPECT_NE(Dump.find("LEAVE"), std::string::npos);
}

} // namespace
