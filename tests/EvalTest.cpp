//===- tests/EvalTest.cpp - evaluator end-to-end tests --------------------===//

#include "analysis/Classify.h"
#include "eval/DemandEvaluator.h"
#include "eval/Evaluator.h"
#include "grammar/GrammarBuilder.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"

#include <gtest/gtest.h>

using namespace fnc2;

namespace {

/// Builds an evaluation plan for \p AG via the full cascade: OAG partitions
/// when ordered, otherwise the SNC-to-l-ordered transformation.
static EvaluationPlan planFor(const AttributeGrammar &AG,
                              ReuseMode Mode = ReuseMode::LongInclusion) {
  SncResult Snc = runSncTest(AG);
  EXPECT_TRUE(Snc.IsSNC) << AG.Name;
  OagResult Oag = runOagTest(AG, 1);
  TransformResult TR = Oag.IsOAG ? uniformInstances(AG, Oag.Partitions)
                                 : sncToLOrdered(AG, Snc, Mode);
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

TEST(EvalTest, DeskCalculatorArithmetic) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);

  struct Case {
    const char *Term;
    int64_t Expected;
  } Cases[] = {
      {"Calc(Num<42>)", 42},
      {"Calc(Add(Num<1>,Num<2>))", 3},
      {"Calc(Sub(Num<10>,Num<4>))", 6},
      {"Calc(Mul(Add(Num<1>,Num<2>),Num<5>))", 15},
      {"Calc(Let<\"x\">(Num<7>,Add(Var<\"x\">,Var<\"x\">)))", 14},
      {"Calc(Let<\"x\">(Num<2>,Let<\"y\">(Num<3>,Mul(Var<\"x\">,Var<\"y\">))))",
       6},
      {"Calc(Let<\"x\">(Num<1>,Let<\"x\">(Num<2>,Var<\"x\">)))", 2},
      {"Calc(Var<\"undefined\">)", 0},
  };
  for (const auto &C : Cases) {
    DiagnosticEngine D;
    Tree T = readTerm(AG, C.Term, D);
    ASSERT_FALSE(D.hasErrors()) << C.Term << ": " << D.dump();
    ASSERT_TRUE(E.evaluate(T, D)) << C.Term << ": " << D.dump();
    EXPECT_EQ(rootAttr(AG, T, "result").asInt(), C.Expected) << C.Term;
  }
}

TEST(EvalTest, BinaryNumbersIntegerPart) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  DiagnosticEngine D;
  // 1101 = 13; values are in 1/1024 fixed point.
  Tree T = readTerm(
      AG, "Integer(Pair(Pair(Pair(Single(One),One),Zero),One))", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "val").asInt(), 13 * 1024);
}

TEST(EvalTest, BinaryNumbersFraction) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  DiagnosticEngine D;
  // 1.11 = 1 + 1/2 + 1/4 = 1.75 => 1792/1024.
  Tree T = readTerm(AG, "Fraction(Single(One),Pair(Single(One),One))", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "val").asInt(), 1024 + 512 + 256);
}

TEST(EvalTest, RepminBroadcast) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::repmin(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Top(Fork(Fork(Leaf<5>,Leaf<2>),Leaf<9>))", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "rep").asString(), "((2,2),2)");
}

TEST(EvalTest, TwoContextGrammarUsesPartitionCarryingVisits) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::twoContextGrammar(Diags);
  // Not DNC/OAG: must go through the transformation with 2 partitions.
  SncResult Snc = runSncTest(AG);
  ASSERT_TRUE(Snc.IsSNC);
  TransformResult TR = sncToLOrdered(AG, Snc, ReuseMode::LongInclusion);
  ASSERT_TRUE(TR.Success) << TR.FailureReason;
  EvaluationPlan Plan;
  DiagnosticEngine D;
  ASSERT_TRUE(buildVisitSequences(AG, TR, Plan, D)) << D.dump();
  CompiledPlan CP(Plan);
  Evaluator E(CP);

  // CtxA: h1=100, s1=h1+1=101, h2=s1+1=102, s2=h2+1=103, out=s2.
  Tree TA = readTerm(AG, "Top(CtxA(LeafX))", D);
  ASSERT_TRUE(E.evaluate(TA, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, TA, "out").asInt(), 103);

  // CtxB: h2=200, s2=201, h1=202, s1=203, out=s1.
  Tree TB = readTerm(AG, "Top(CtxB(LeafX))", D);
  ASSERT_TRUE(E.evaluate(TB, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, TB, "out").asInt(), 203);
}

TEST(EvalTest, DncNotOagGrammarEvaluates) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::dncNotOagGrammar(Diags);
  SncResult Snc = runSncTest(AG);
  TransformResult TR = sncToLOrdered(AG, Snc);
  ASSERT_TRUE(TR.Success) << TR.FailureReason;
  EvaluationPlan Plan;
  DiagnosticEngine D;
  ASSERT_TRUE(buildVisitSequences(AG, TR, Plan, D)) << D.dump();
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  // Conflict12(LeafX, LeafX): left h1=10 -> s1=11; right h1=s1+1=12 ->
  // s1=13; right h2=20 -> s2=21; left h2=s2+1=22 -> s2=23;
  // out = left.s2 + right.s1 = 23 + 13 = 36.
  Tree T = readTerm(AG, "Conflict12(LeafX,LeafX)", D);
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "out").asInt(), 36);
}

TEST(EvalTest, Oag1GrammarEvaluates) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::oag1Grammar(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  DiagnosticEngine D;
  // Same dataflow as the Conflict12 case of the triangle grammar.
  Tree T = readTerm(AG, "Conflict(LeafX,LeafX)", D);
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  EXPECT_EQ(rootAttr(AG, T, "out").asInt(), 36);
}

TEST(EvalTest, StatsCountRulesAndVisits) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Num<2>))", D);
  ASSERT_TRUE(E.evaluate(T, D));
  EXPECT_GT(E.stats().RulesEvaluated, 0u);
  EXPECT_EQ(E.stats().VisitsPerformed, 4u) << "one visit per node";
  E.resetStats();
  EXPECT_EQ(E.stats().RulesEvaluated, 0u);
}

TEST(EvalTest, StatsExportToMetricsRegistry) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Mul(Num<3>,Num<4>))", D);
  ASSERT_TRUE(E.evaluate(T, D));

  MetricsRegistry R;
  E.stats().exportTo(R);
  EXPECT_EQ(R.value("eval.rules_evaluated"), E.stats().RulesEvaluated);
  EXPECT_EQ(R.value("eval.visits_performed"), E.stats().VisitsPerformed);
  EXPECT_EQ(R.value("eval.instructions_executed"),
            E.stats().InstructionsExecuted);
  EXPECT_EQ(R.size(), EvalStats::schema().size());

  // Exporting again merges (all EvalStats counters are sums).
  E.stats().exportTo(R);
  EXPECT_EQ(R.value("eval.rules_evaluated"), 2 * E.stats().RulesEvaluated);
}

// A memoizing demand evaluator computes each instance at most once, so on
// the same tree it can never run more rule applications than the
// exhaustive evaluator (which computes each instance exactly once).
TEST(EvalTest, DemandEvaluatesNoMoreRulesThanExhaustive) {
  for (int GrammarIdx = 0; GrammarIdx != 3; ++GrammarIdx) {
    DiagnosticEngine Diags;
    AttributeGrammar AG = GrammarIdx == 0   ? workloads::deskCalculator(Diags)
                          : GrammarIdx == 1 ? workloads::binaryNumbers(Diags)
                                            : workloads::repmin(Diags);
    EvaluationPlan Plan = planFor(AG);
    CompiledPlan CP(Plan);
    TreeGenerator Gen(AG, 41 + GrammarIdx);
    Tree T = Gen.generate(200);
    Tree T2(AG);
    T2.setRoot(T.clone(T.root()));

    Evaluator E(CP);
    DemandEvaluator DE(AG);
    DiagnosticEngine D;
    ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
    ASSERT_TRUE(DE.evaluateAll(T2, D)) << D.dump();
    EXPECT_LE(DE.stats().RulesEvaluated, E.stats().RulesEvaluated) << AG.Name;
    EXPECT_GT(DE.stats().RulesEvaluated, 0u) << AG.Name;
  }
}

TEST(EvalTest, MissingRootInheritedReported) {
  DiagnosticEngine Diags;
  GrammarBuilder B("needs-input");
  PhylumId X = B.phylum("X");
  AttrId H = B.inherited(X, "h", "int");
  AttrId S = B.synthesized(X, "s", "int");
  ProdId Leaf = B.production("Leaf", X, {});
  B.copy(Leaf, AttrOcc::onSymbol(0, S), AttrOcc::onSymbol(0, H));
  B.setStart(X);
  AttributeGrammar AG = B.finalize(Diags);
  ASSERT_FALSE(Diags.hasErrors());

  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Leaf", D);
  EXPECT_FALSE(E.evaluate(T, D));
  EXPECT_NE(D.dump().find("was not provided"), std::string::npos);

  // Providing the value makes it work.
  DiagnosticEngine D2;
  E.setRootInherited(H, Value::ofInt(11));
  ASSERT_TRUE(E.evaluate(T, D2)) << D2.dump();
  EXPECT_EQ(rootAttr(AG, T, "s").asInt(), 11);
}

TEST(EvalTest, DemandEvaluatorAgreesWithVisitSequences) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  DemandEvaluator DE(AG);

  TreeGenerator Gen(AG, 99);
  for (unsigned Round = 0; Round != 5; ++Round) {
    Tree T1 = Gen.generate(50 + Round * 37);
    DiagnosticEngine D;
    ASSERT_TRUE(E.evaluate(T1, D)) << D.dump();
    Value Static = rootAttr(AG, T1, "result");
    ASSERT_TRUE(DE.evaluateAll(T1, D)) << D.dump();
    Value Demand = rootAttr(AG, T1, "result");
    EXPECT_TRUE(Static.equals(Demand)) << writeTerm(AG, T1.root());
  }
}

TEST(EvalTest, DemandEvaluatorAgreesOnTwoVisitGrammar) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::repmin(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  DemandEvaluator DE(AG);
  TreeGenerator Gen(AG, 5);
  for (unsigned Round = 0; Round != 5; ++Round) {
    Tree T = Gen.generate(80);
    DiagnosticEngine D;
    ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
    Value A = rootAttr(AG, T, "rep");
    ASSERT_TRUE(DE.evaluateAll(T, D)) << D.dump();
    EXPECT_TRUE(A.equals(rootAttr(AG, T, "rep")));
  }
}

TEST(EvalTest, DemandEvaluatorDetectsRuntimeCycle) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::circularGrammar(Diags);
  DemandEvaluator DE(AG);
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Top(Leaf)", D);
  ASSERT_FALSE(D.hasErrors());
  EXPECT_FALSE(DE.evaluateAll(T, D));
  EXPECT_NE(D.dump().find("circular"), std::string::npos);
}

TEST(EvalTest, ExhaustiveEvaluationFillsEveryInstance) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  TreeGenerator Gen(AG, 17);
  Tree T = Gen.generate(120);
  DiagnosticEngine D;
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();

  // Every attribute instance of every node must be computed.
  std::vector<TreeNode *> Stack = {T.root()};
  while (!Stack.empty()) {
    TreeNode *N = Stack.back();
    Stack.pop_back();
    unsigned NumAttrs = AG.phylum(AG.prod(N->Prod).Lhs).Attrs.size();
    ASSERT_EQ(unsigned(N->FrameAttrs), NumAttrs);
    for (unsigned I = 0; I != NumAttrs; ++I)
      EXPECT_TRUE(N->attrComputed(I)) << "uncomputed attribute instance";
    for (auto &C : N->Children)
      Stack.push_back(C.get());
  }
}

// Property sweep: visit-sequence evaluation and demand evaluation agree on
// random trees across grammars and seeds.
class EvalAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(EvalAgreementTest, StaticAndDemandAgree) {
  auto [GrammarIdx, Seed] = GetParam();
  DiagnosticEngine Diags;
  AttributeGrammar AG = GrammarIdx == 0   ? workloads::deskCalculator(Diags)
                        : GrammarIdx == 1 ? workloads::binaryNumbers(Diags)
                                          : workloads::repmin(Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  Evaluator E(CP);
  DemandEvaluator DE(AG);

  TreeGenerator Gen(AG, Seed);
  Tree T = Gen.generate(60 + Seed * 13 % 100);
  DiagnosticEngine D;
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  PhylumId Start = AG.prod(T.root()->Prod).Lhs;
  std::vector<Value> StaticVals(T.root()->Slots,
                                T.root()->Slots + T.root()->FrameAttrs);
  ASSERT_TRUE(DE.evaluateAll(T, D)) << D.dump();
  for (unsigned I = 0; I != AG.phylum(Start).Attrs.size(); ++I)
    EXPECT_TRUE(StaticVals[I].equals(T.root()->attrVal(I)));
}

INSTANTIATE_TEST_SUITE_P(
    Grammars, EvalAgreementTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

} // namespace
