//===- tests/IncrementalTest.cpp - incremental evaluation tests -----------===//

#include "analysis/Classify.h"
#include "incremental/Incremental.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"

#include <gtest/gtest.h>

using namespace fnc2;

namespace {

static EvaluationPlan planFor(const AttributeGrammar &AG) {
  SncResult Snc = runSncTest(AG);
  EXPECT_TRUE(Snc.IsSNC) << AG.Name;
  OagResult Oag = runOagTest(AG, 1);
  TransformResult TR = Oag.IsOAG ? uniformInstances(AG, Oag.Partitions)
                                 : sncToLOrdered(AG, Snc);
  EXPECT_TRUE(TR.Success) << TR.FailureReason;
  EvaluationPlan Plan;
  DiagnosticEngine D;
  EXPECT_TRUE(buildVisitSequences(AG, TR, Plan, D)) << D.dump();
  return Plan;
}

static Value rootAttr(const AttributeGrammar &AG, const Tree &T,
                      const std::string &Name) {
  PhylumId Start = AG.prod(T.root()->Prod).Lhs;
  AttrId A = AG.findAttr(Start, Name);
  EXPECT_NE(A, InvalidId);
  return T.root()->attrVal(AG.attr(A).IndexInOwner);
}

TEST(IncrementalTest, SimpleEditPropagates) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  IncrementalEvaluator IE(CP);

  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Num<2>))", D);
  ASSERT_TRUE(IE.initial(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "result").asInt(), 3);

  // Replace Num<2> by Num<40>.
  TreeNode *Old = T.root()->child(0)->child(1);
  IE.replaceSubtree(T, Old, T.makeLeaf(AG.findProd("Num"), Value::ofInt(40)));
  ASSERT_TRUE(IE.update(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "result").asInt(), 41);
}

TEST(IncrementalTest, EqualValueCutsPropagation) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  IncrementalEvaluator IE(CP);

  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Add(Num<2>,Num<0>)))", D);
  ASSERT_TRUE(IE.initial(T, D)) << D.dump();

  // Replace Num<2> by Sub(Num<5>,Num<3>): same value 2, so the root rule
  // must never be recomputed.
  TreeNode *Old = T.root()->child(0)->child(1)->child(0);
  DiagnosticEngine D2;
  Tree Template = readTerm(AG, "Calc(Sub(Num<5>,Num<3>))", D2);
  IE.replaceSubtree(T, Old, T.clone(Template.root()->child(0)));
  IE.resetStats();
  ASSERT_TRUE(IE.update(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "result").asInt(), 3);
  EXPECT_GT(IE.stats().ValuesUnchanged, 0u)
      << "the replacement computes the same value";
}

TEST(IncrementalTest, TwoVisitGrammarEdit) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::repmin(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  IncrementalEvaluator IE(CP);

  DiagnosticEngine D;
  Tree T = readTerm(AG, "Top(Fork(Leaf<5>,Fork(Leaf<7>,Leaf<9>)))", D);
  ASSERT_TRUE(IE.initial(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "rep").asString(), "(5,(5,5))");

  // Lower the global minimum: every leaf's rep changes.
  TreeNode *Old = T.root()->child(0)->child(1)->child(0); // Leaf<7>
  IE.replaceSubtree(T, Old, T.makeLeaf(AG.findProd("Leaf"), Value::ofInt(1)));
  ASSERT_TRUE(IE.update(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "rep").asString(), "(1,(1,1))");

  // Raise it again so the minimum moves back to another leaf.
  TreeNode *Old2 = T.root()->child(0)->child(1)->child(0);
  IE.replaceSubtree(T, Old2, T.makeLeaf(AG.findProd("Leaf"), Value::ofInt(8)));
  ASSERT_TRUE(IE.update(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "rep").asString(), "(5,(5,5))");
}

TEST(IncrementalTest, MultipleEditsBeforeUpdate) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  IncrementalEvaluator IE(CP);

  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Mul(Num<2>,Num<3>)))", D);
  ASSERT_TRUE(IE.initial(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "result").asInt(), 7);

  ProdId Num = AG.findProd("Num");
  IE.replaceSubtree(T, T.root()->child(0)->child(0),
                    T.makeLeaf(Num, Value::ofInt(10)));
  IE.replaceSubtree(T, T.root()->child(0)->child(1)->child(1),
                    T.makeLeaf(Num, Value::ofInt(4)));
  ASSERT_TRUE(IE.update(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "result").asInt(), 18);
}

TEST(IncrementalTest, StrategiesAgree) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);

  TreeGenerator Gen(AG, 21);
  for (unsigned Round = 0; Round != 6; ++Round) {
    Tree T1 = Gen.generate(150);
    DiagnosticEngine D;
    Tree T2(AG);
    T2.setRoot(T1.clone(T1.root()));

    IncrementalEvaluator A(CP), B(CP);
    ASSERT_TRUE(A.initial(T1, D)) << D.dump();
    ASSERT_TRUE(B.initial(T2, D)) << D.dump();

    // Same random edit in both trees.
    auto pickNode = [&](Tree &T, unsigned Hops) {
      TreeNode *N = T.root();
      while (Hops-- && N->arity() != 0)
        N = N->child(Hops % N->arity());
      return N;
    };
    unsigned Hops = 2 + Round;
    TreeNode *E1 = pickNode(T1, Hops);
    TreeNode *E2 = pickNode(T2, Hops);
    ASSERT_EQ(writeTerm(AG, E1), writeTerm(AG, E2));
    ProdId Num = AG.findProd("Num");
    A.replaceSubtree(T1, E1, T1.makeLeaf(Num, Value::ofInt(777)));
    B.replaceSubtree(T2, E2, T2.makeLeaf(Num, Value::ofInt(777)));

    ASSERT_TRUE(A.update(T1, D, UpdateStrategy::StartAnywhere)) << D.dump();
    ASSERT_TRUE(B.update(T2, D, UpdateStrategy::FromRoot)) << D.dump();
    EXPECT_TRUE(rootAttr(AG, T1, "result")
                    .equals(rootAttr(AG, T2, "result")));
  }
}

TEST(IncrementalTest, AgreesWithFullReevaluation) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator Full(CP);
  IncrementalEvaluator IE(CP);

  TreeGenerator Gen(AG, 5);
  Tree T = Gen.generate(300);
  DiagnosticEngine D;
  ASSERT_TRUE(IE.initial(T, D)) << D.dump();

  // A sequence of random edits, each followed by an incremental update and
  // a from-scratch check on a cloned tree.
  TreeGenerator EditGen(AG, 77);
  for (unsigned Edit = 0; Edit != 8; ++Edit) {
    // Pick a random Exp node (walk down a few steps).
    TreeNode *N = T.root()->child(0);
    for (unsigned Hop = 0; Hop != Edit % 5 && N->arity() != 0; ++Hop)
      N = N->child((Edit + Hop) % N->arity());
    PhylumId Phy = AG.prod(N->Prod).Lhs;
    auto Fresh = EditGen.generateNode(T, Phy, 10 + Edit * 3);
    IE.replaceSubtree(T, N, std::move(Fresh));
    ASSERT_TRUE(IE.update(T, D)) << D.dump();
    Value Incremental = rootAttr(AG, T, "result");

    Tree Check(AG);
    Check.setRoot(T.clone(T.root()));
    ASSERT_TRUE(Full.evaluate(Check, D)) << D.dump();
    EXPECT_TRUE(Incremental.equals(rootAttr(AG, Check, "result")))
        << "edit " << Edit;
  }
}

TEST(IncrementalTest, WorkProportionalToAffectedRegion) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  IncrementalEvaluator IE(CP);

  TreeGenerator Gen(AG, 9);
  Tree T = Gen.generate(4000);
  unsigned TreeSize = T.size();
  DiagnosticEngine D;
  ASSERT_TRUE(IE.initial(T, D)) << D.dump();

  // Edit a deep leaf-ish node.
  TreeNode *N = T.root()->child(0);
  while (N->arity() != 0)
    N = N->child(N->arity() - 1);
  TreeNode *Parent = N->Parent;
  unsigned Idx = N->IndexInParent;
  IE.replaceSubtree(T, Parent->child(Idx),
                    T.makeLeaf(AG.findProd("Num"), Value::ofInt(123456)));
  IE.resetStats();
  ASSERT_TRUE(IE.update(T, D)) << D.dump();

  const IncrementalStats &S = IE.stats();
  EXPECT_LT(S.RulesReevaluated, TreeSize / 4)
      << "incremental work must be far below tree size " << TreeSize;
  EXPECT_GT(S.VisitsSkipped + S.RulesSkipped, 0u);
}

TEST(IncrementalTest, CustomEqualityWidensCutoff) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  IncrementalEvaluator IE(CP);
  // Application-specific comparison: integers equal modulo 100 (e.g. only
  // the order of magnitude matters downstream).
  IE.setEquality([](const Value &A, const Value &B) {
    if (A.isInt() && B.isInt())
      return A.asInt() % 100 == B.asInt() % 100;
    return A.equals(B);
  });

  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<7>,Num<1>))", D);
  ASSERT_TRUE(IE.initial(T, D)) << D.dump();
  IE.replaceSubtree(T, T.root()->child(0)->child(0),
                    T.makeLeaf(AG.findProd("Num"), Value::ofInt(107)));
  IE.resetStats();
  ASSERT_TRUE(IE.update(T, D)) << D.dump();
  // 107 ~ 7 under the custom equality: the sum is never recomputed.
  EXPECT_EQ(rootAttr(AG, T, "result").asInt(), 8);
  EXPECT_GT(IE.stats().ValuesUnchanged, 0u);
}

TEST(IncrementalTest, EditOnMultiPartitionGrammar) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::twoContextGrammar(Diags);
  SncResult Snc = runSncTest(AG);
  TransformResult TR = sncToLOrdered(AG, Snc);
  ASSERT_TRUE(TR.Success);
  EvaluationPlan Plan;
  DiagnosticEngine D;
  ASSERT_TRUE(buildVisitSequences(AG, TR, Plan, D)) << D.dump();
  CompiledPlan CP(Plan);
  IncrementalEvaluator IE(CP);

  Tree T = readTerm(AG, "Top(CtxA(LeafX))", D);
  ASSERT_TRUE(IE.initial(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "out").asInt(), 103);

  // Replace the leaf: partitions must carry over to the fresh node.
  IE.replaceSubtree(T, T.root()->child(0)->child(0),
                    T.makeLeaf(AG.findProd("LeafX"), Value()));
  ASSERT_TRUE(IE.update(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "out").asInt(), 103);
}

} // namespace
