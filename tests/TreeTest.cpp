//===- tests/TreeTest.cpp - attributed tree unit tests --------------------===//

#include "eval/Evaluator.h"
#include "fnc2/Generator.h"
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

//===----------------------------------------------------------------------===//
// FrameArena: chunks grow with the tree, frames never move, and fresh frames
// are initialised even though chunk memory is not zero-filled.
//===----------------------------------------------------------------------===//

constexpr size_t kMaxChunk = 64 * 1024;

/// Desk grammar and its evaluator, for the tests that evaluate real trees.
class FrameArenaTest : public ::testing::Test {
protected:
  void SetUp() override {
    AG = workloads::deskCalculator(Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
    GE = generateEvaluator(AG, Diags);
    ASSERT_TRUE(GE.Success) << Diags.dump();
  }
  Tree evaluated(const char *Term) {
    DiagnosticEngine D;
    Tree T = readTerm(AG, Term, D);
    Evaluator E(GE.Compiled->CP);
    EXPECT_TRUE(E.evaluate(T, D)) << D.dump();
    return T;
  }
  DiagnosticEngine Diags;
  AttributeGrammar AG{};
  GeneratedEvaluator GE;
};

TEST_F(FrameArenaTest, FramesStayIntactAcrossChunkBoundaries) {
  FrameArena A;
  struct Frame {
    Value *Vals;
    uint64_t *Words;
  };
  std::vector<Frame> Frames;
  // 3 Values + 1 word per frame: 4000 frames cross every doubling step
  // from the first chunk up to several capped ones.
  for (unsigned I = 0; I != 4000; ++I) {
    auto [Vals, Words] = A.allocFrame(3, 1);
    for (unsigned S = 0; S != 3; ++S)
      Vals[S] = Value::ofInt(int64_t(I) * 3 + S);
    Words[0] = ~uint64_t(I);
    Frames.push_back({Vals, Words});
  }
  EXPECT_GT(A.reservedBytes(), 3 * kMaxChunk);
  for (unsigned I = 0; I != Frames.size(); ++I) {
    for (unsigned S = 0; S != 3; ++S)
      ASSERT_EQ(Frames[I].Vals[S].asInt(), int64_t(I) * 3 + S) << I;
    ASSERT_EQ(Frames[I].Words[0], ~uint64_t(I)) << I;
    // The bitmap words follow the frame's Value run directly.
    ASSERT_EQ(static_cast<void *>(Frames[I].Vals + 3),
              static_cast<void *>(Frames[I].Words));
  }
}

TEST_F(FrameArenaTest, OversizedFrameGetsItsOwnChunk) {
  FrameArena A;
  auto [Small, SmallWords] = A.allocFrame(2, 1);
  Small[1] = Value::ofInt(7);
  SmallWords[0] = 2;
  const size_t Before = A.reservedBytes();

  constexpr unsigned Big = kMaxChunk / sizeof(Value) + 1000;
  constexpr unsigned BigWords = (Big + 63) / 64;
  auto [Vals, Words] = A.allocFrame(Big, BigWords);
  EXPECT_EQ(A.reservedBytes() - Before,
            Big * sizeof(Value) + BigWords * sizeof(uint64_t));
  for (unsigned S = 0; S != Big; ++S)
    ASSERT_TRUE(Vals[S].isUnit()) << S;
  for (unsigned W = 0; W != BigWords; ++W)
    ASSERT_EQ(Words[W], 0u) << W;
  Vals[Big - 1] = Value::ofInt(9);
  Words[BigWords - 1] = 1;

  auto [After, AfterWords] = A.allocFrame(2, 1);
  After[0] = Value::ofInt(11);
  EXPECT_EQ(AfterWords[0], 0u);
  EXPECT_EQ(Small[1].asInt(), 7);
  EXPECT_EQ(SmallWords[0], 2u);
  EXPECT_EQ(Vals[Big - 1].asInt(), 9);
  EXPECT_EQ(Words[BigWords - 1], 1u);
}

TEST_F(FrameArenaTest, FreshFramesAreInitialisedOnRecycledMemory) {
  // Each round's arena is likely to get the previous round's freed chunks
  // back from the allocator, left full of non-default Values and set bits.
  for (unsigned Round = 0; Round != 4; ++Round) {
    FrameArena A;
    for (unsigned I = 0; I != 600; ++I) {
      auto [Vals, Words] = A.allocFrame(5, 2);
      for (unsigned S = 0; S != 5; ++S)
        ASSERT_TRUE(Vals[S].isUnit()) << Round << ' ' << I << ' ' << S;
      ASSERT_EQ(Words[0], 0u);
      ASSERT_EQ(Words[1], 0u);
      for (unsigned S = 0; S != 5; ++S)
        Vals[S] = Value::ofString("garbage");
      Words[0] = Words[1] = ~uint64_t(0);
    }
  }
}

TEST_F(FrameArenaTest, DestroyingTheArenaReleasesItsValues) {
  // The probe is a non-empty list the arena's frames share. An rvalue
  // listAppend extends the vector in place only when its value is the sole
  // owner, and otherwise copies and leaves the value as it was, so the
  // result's identity tells whether the arena still holds references.
  Value Probe = Value::ofList({Value::ofString("frame-arena-release-probe")});
  const void *Id = Probe.identity();
  {
    FrameArena A;
    for (unsigned I = 0; I != 200; ++I) {
      auto [Vals, Words] = A.allocFrame(4, 1);
      Vals[I % 4] = Probe;
    }
    Value Copied = std::move(Probe).listAppend(Value::ofInt(1));
    EXPECT_NE(Copied.identity(), Id) << "the arena's frames share the probe";
    ASSERT_EQ(Probe.identity(), Id);
  }
  Value Extended = std::move(Probe).listAppend(Value::ofInt(2));
  EXPECT_EQ(Extended.identity(), Id) << "the arena released every copy";
  ASSERT_EQ(Extended.asList().size(), 2u);
  EXPECT_EQ(Extended.asList()[1].asInt(), 2);
}

TEST_F(FrameArenaTest, SmallTreeReservesAtMostOneKiB) {
  Tree T = evaluated("Calc(Add(Num<1>,Mul(Num<2>,Num<3>)))");
  ASSERT_EQ(T.size(), 6u);
  EXPECT_EQ(T.root()->attrVal(0).asInt(), 7);
  const size_t Reserved = T.root()->Arena->reservedBytes();
  EXPECT_GT(Reserved, 0u);
  EXPECT_LE(Reserved, 1024u);
}

TEST_F(FrameArenaTest, DetachedSubtreeOutlivesItsTree) {
  const AttrId Val = AG.findAttr(AG.findPhylum("Exp"), "val");
  const unsigned ValSlot = AG.attr(Val).IndexInOwner;
  std::unique_ptr<TreeNode> Detached;
  {
    Tree T = evaluated("Calc(Add(Num<1>,Mul(Num<2>,Num<3>)))");
    Detached = T.replaceSubtree(T.root()->child(0),
                                T.makeLeaf(AG.findProd("Num"), Value::ofInt(0)));
  }
  ASSERT_TRUE(Detached->hasFrame());
  EXPECT_EQ(Detached->attrVal(ValSlot).asInt(), 7);
  EXPECT_EQ(Detached->child(1)->attrVal(ValSlot).asInt(), 6);
  EXPECT_EQ(Detached->child(1)->child(1)->attrVal(ValSlot).asInt(), 3);
}

} // namespace
