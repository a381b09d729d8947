//===- tests/TreeTest.cpp - attributed tree unit tests --------------------===//

#include "tree/Tree.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"

#include <gtest/gtest.h>

#include <limits>

using namespace fnc2;

namespace {

class TreeTest : public ::testing::Test {
protected:
  void SetUp() override {
    AG = workloads::deskCalculator(Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  }
  DiagnosticEngine Diags;
  AttributeGrammar AG{};
};

TEST_F(TreeTest, MakeAndValidate) {
  Tree T(AG);
  ProdId Num = AG.findProd("Num");
  ProdId Add = AG.findProd("Add");
  ProdId Calc = AG.findProd("Calc");
  std::vector<std::unique_ptr<TreeNode>> Kids;
  Kids.push_back(T.makeLeaf(Num, Value::ofInt(1)));
  Kids.push_back(T.makeLeaf(Num, Value::ofInt(2)));
  auto Sum = T.make(Add, std::move(Kids));
  std::vector<std::unique_ptr<TreeNode>> Top;
  Top.push_back(std::move(Sum));
  T.setRoot(T.make(Calc, std::move(Top)));

  DiagnosticEngine D;
  EXPECT_TRUE(T.validate(D)) << D.dump();
  EXPECT_EQ(T.size(), 4u);
  EXPECT_EQ(T.root()->child(0)->Parent, T.root());
  EXPECT_EQ(T.root()->child(0)->IndexInParent, 0u);
}

TEST_F(TreeTest, TermRoundTrip) {
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Mul(Num<2>,Num<3>)))", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  ASSERT_NE(T.root(), nullptr);
  EXPECT_EQ(T.size(), 6u);
  EXPECT_EQ(writeTerm(AG, T.root()), "Calc(Add(Num<1>,Mul(Num<2>,Num<3>)))");
}

TEST_F(TreeTest, TermWithStringLexeme) {
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Let<\"x\">(Num<5>,Var<\"x\">))", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  EXPECT_EQ(writeTerm(AG, T.root()), "Calc(Let<\"x\">(Num<5>,Var<\"x\">))");
}

TEST_F(TreeTest, TermSyntaxErrors) {
  struct Case {
    const char *Text;
    const char *ExpectSubstring;
  } Cases[] = {
      {"Nope(Num<1>)", "unknown operator"},
      {"Calc(Add(Num<1>))", "expects 2 children"},
      {"Calc(Num<1>) trailing", "trailing input"},
      {"Calc(Num)", "requires a lexeme"},
      {"Add(Num<1>,Num<2>)(", "trailing"},
  };
  for (const auto &C : Cases) {
    DiagnosticEngine D;
    readTerm(AG, C.Text, D);
    EXPECT_TRUE(D.hasErrors()) << C.Text;
    EXPECT_NE(D.dump().find(C.ExpectSubstring), std::string::npos)
        << C.Text << " => " << D.dump();
  }
}

TEST_F(TreeTest, TermLexemesSpanInt64) {
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Min = std::numeric_limits<int64_t>::min();
  for (int64_t V : {Max, Min}) {
    DiagnosticEngine D;
    Tree T = readTerm(AG, "Calc(Num<" + std::to_string(V) + ">)", D);
    ASSERT_FALSE(D.hasErrors()) << V << ": " << D.dump();
    EXPECT_EQ(T.root()->child(0)->Lexeme.asInt(), V);
  }
  for (const char *Text :
       {"Calc(Num<9223372036854775808>)", "Calc(Num<-9223372036854775809>)",
        "Calc(Num<99999999999999999999999>)"}) {
    DiagnosticEngine D;
    Tree T = readTerm(AG, Text, D);
    EXPECT_EQ(D.errorCount(), 1u) << Text << " => " << D.dump();
    EXPECT_NE(D.dump().find("lexeme out of range"), std::string::npos)
        << Text << " => " << D.dump();
    EXPECT_EQ(T.root(), nullptr) << Text;
  }
}

TEST_F(TreeTest, TermRejectsWrongPhylum) {
  DiagnosticEngine D;
  // Calc expects an Exp child; Calc itself is a Prog operator.
  readTerm(AG, "Calc(Calc(Num<1>))", D);
  EXPECT_TRUE(D.hasErrors());
}

TEST_F(TreeTest, ReplaceSubtree) {
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Num<2>))", D);
  ASSERT_FALSE(D.hasErrors());
  TreeNode *Old = T.root()->child(0)->child(1); // Num<2>
  auto Fresh = T.makeLeaf(AG.findProd("Num"), Value::ofInt(9));
  auto Detached = T.replaceSubtree(Old, std::move(Fresh));
  EXPECT_EQ(writeTerm(AG, T.root()), "Calc(Add(Num<1>,Num<9>))");
  EXPECT_EQ(Detached->Lexeme.asInt(), 2);
  EXPECT_EQ(Detached->Parent, nullptr);
  DiagnosticEngine D2;
  EXPECT_TRUE(T.validate(D2)) << D2.dump();
}

TEST_F(TreeTest, ReplaceRoot) {
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Num<1>)", D);
  DiagnosticEngine D2;
  Tree T2 = readTerm(AG, "Calc(Num<42>)", D2);
  auto NewRoot = T.clone(T2.root());
  T.replaceSubtree(T.root(), std::move(NewRoot));
  EXPECT_EQ(writeTerm(AG, T.root()), "Calc(Num<42>)");
}

TEST_F(TreeTest, CloneIsDeepAndIndependent) {
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Num<2>))", D);
  auto Copy = T.clone(T.root());
  EXPECT_EQ(writeTerm(AG, Copy.get()), writeTerm(AG, T.root()));
  Copy->child(0)->child(0)->Lexeme = Value::ofInt(100);
  EXPECT_EQ(T.root()->child(0)->child(0)->Lexeme.asInt(), 1);
}

TEST_F(TreeTest, GeneratorHitsTargetSizeApproximately) {
  TreeGenerator Gen(AG, 42);
  Tree T = Gen.generate(200);
  DiagnosticEngine D;
  EXPECT_TRUE(T.validate(D)) << D.dump();
  EXPECT_GE(T.size(), 50u);
  EXPECT_LE(T.size(), 400u);
}

TEST_F(TreeTest, GeneratorIsDeterministic) {
  TreeGenerator G1(AG, 7), G2(AG, 7);
  Tree T1 = G1.generate(100), T2 = G2.generate(100);
  EXPECT_EQ(writeTerm(AG, T1.root()), writeTerm(AG, T2.root()));
  TreeGenerator G3(AG, 8);
  Tree T3 = G3.generate(100);
  EXPECT_NE(writeTerm(AG, T1.root()), writeTerm(AG, T3.root()));
}

TEST(TreeGenGrammars, GeneratesForAllClassicGrammars) {
  DiagnosticEngine Diags;
  AttributeGrammar Gs[] = {
      workloads::deskCalculator(Diags), workloads::binaryNumbers(Diags),
      workloads::repmin(Diags), workloads::twoContextGrammar(Diags)};
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  for (const AttributeGrammar &AG : Gs) {
    TreeGenerator Gen(AG, 3);
    Tree T = Gen.generate(64);
    DiagnosticEngine D;
    EXPECT_TRUE(T.validate(D)) << AG.Name << ": " << D.dump();
    EXPECT_GE(T.size(), 2u) << AG.Name;
  }
}

} // namespace
