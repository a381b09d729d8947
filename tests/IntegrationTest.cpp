//===- tests/IntegrationTest.cpp - whole-system cross checks --------------===//
//
// End-to-end properties across the whole pipeline:
//
//  * every evaluator (visit-sequence, demand-driven, storage-optimized,
//    incremental-after-initial) computes identical attributions on random
//    trees over every system-suite grammar;
//  * incremental fuzzing on mini-Pascal: random edit sequences keep the
//    incremental attribution equal to a from-scratch evaluation;
//  * the emitted C for every suite grammar is structurally sound;
//  * term I/O round-trips over random trees of every workload grammar.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "eval/DemandEvaluator.h"
#include "eval/Evaluator.h"
#include "fnc2/Generator.h"
#include "incremental/Incremental.h"
#include "olga/Driver.h"
#include "storage/StorageEvaluator.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/MiniPascal.h"
#include "workloads/SpecGen.h"

#include <gtest/gtest.h>

using namespace fnc2;

namespace {

/// Snapshot of every attribute instance in a tree.
static std::vector<std::pair<const TreeNode *, std::vector<Value>>>
snapshot(const Tree &T) {
  std::vector<std::pair<const TreeNode *, std::vector<Value>>> Out;
  std::vector<const TreeNode *> Work = {T.root()};
  while (!Work.empty()) {
    const TreeNode *N = Work.back();
    Work.pop_back();
    Out.emplace_back(N, std::vector<Value>(N->Slots, N->Slots + N->FrameAttrs));
    for (const auto &C : N->Children)
      Work.push_back(C.get());
  }
  return Out;
}

static void expectSameAttribution(
    const AttributeGrammar &AG,
    const std::vector<std::pair<const TreeNode *, std::vector<Value>>> &A,
    const Tree &T, const char *What) {
  auto B = snapshot(T);
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I != A.size(); ++I) {
    ASSERT_EQ(A[I].first, B[I].first) << What;
    ASSERT_EQ(A[I].second.size(), B[I].second.size()) << What;
    for (size_t J = 0; J != A[I].second.size(); ++J)
      EXPECT_TRUE(A[I].second[J].equals(B[I].second[J]))
          << What << ": " << AG.prod(A[I].first->Prod).Name << " attr " << J;
  }
}

class SuiteAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SuiteAgreement, AllEvaluatorsAgreeOnSuiteGrammar) {
  int Index = GetParam();
  auto Suite = workloads::systemAgSuite();
  ASSERT_LT(static_cast<size_t>(Index), Suite.size());
  DiagnosticEngine Diags;
  olga::CompileResult R = olga::compileMolga(Suite[Index].Source, Diags);
  ASSERT_TRUE(R.Success) << Diags.dump();
  const AttributeGrammar &AG = R.Grammars[0].AG;
  DiagnosticEngine GD;
  GeneratorOptions Opts;
  Opts.OagK = Suite[Index].OagK;
  GeneratedEvaluator GE = generateEvaluator(AG, GD, Opts);
  ASSERT_TRUE(GE.Success) << GD.dump();

  TreeGenerator Gen(AG, 17 + Index);
  Tree T = Gen.generate(600);
  ASSERT_GT(T.size(), 10u);

  // Reference: visit-sequence evaluator.
  Evaluator E(GE.Compiled->CP);
  DiagnosticEngine D;
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  auto Ref = snapshot(T);

  // Demand-driven.
  DemandEvaluator DE(AG);
  ASSERT_TRUE(DE.evaluateAll(T, D)) << D.dump();
  expectSameAttribution(AG, Ref, T, "demand-driven");

  // Storage-optimized (mirrored into the tree for comparison).
  StorageEvaluator SE(GE.Compiled->CP, GE.Compiled->CS);
  SE.setMirrorToTree(true);
  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
  expectSameAttribution(AG, Ref, T, "storage-optimized");

  // Incremental initial run.
  IncrementalEvaluator IE(GE.Compiled->CP);
  ASSERT_TRUE(IE.initial(T, D)) << D.dump();
  expectSameAttribution(AG, Ref, T, "incremental-initial");

  // No semantic-rule runtime errors anywhere.
  EXPECT_FALSE(R.Grammars[0].RuntimeDiags->hasErrors())
      << R.Grammars[0].RuntimeDiags->dump();
}

INSTANTIATE_TEST_SUITE_P(SystemSuite, SuiteAgreement,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

TEST(IncrementalFuzz, MiniPascalRandomEditSequences) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::miniPascal(Diags);
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();

  for (uint64_t Seed : {3u, 14u, 159u}) {
    std::string Src = workloads::generateMiniPascalSource(60, Seed);
    DiagnosticEngine D;
    Tree T = workloads::parseMiniPascal(AG, Src, D);
    ASSERT_FALSE(D.hasErrors()) << D.dump();
    IncrementalEvaluator IE(GE.Compiled->CP);
    ASSERT_TRUE(IE.initial(T, D)) << D.dump();

    TreeGenerator EditGen(AG, Seed * 7919);
    Evaluator Full(GE.Compiled->CP);
    for (unsigned Edit = 0; Edit != 10; ++Edit) {
      // Walk to a random Expr node and replace it by a fresh random one.
      TreeNode *N = T.root();
      for (unsigned Hop = 0; Hop != 30; ++Hop) {
        if (N->arity() == 0)
          break;
        TreeNode *Next = N->child((Seed + Edit + Hop) % N->arity());
        N = Next;
        if (AG.phylum(AG.prod(N->Prod).Lhs).Name == "Expr" &&
            (Edit + Hop) % 3 == 0)
          break;
      }
      if (AG.phylum(AG.prod(N->Prod).Lhs).Name != "Expr" || !N->Parent)
        continue;
      auto Fresh =
          EditGen.generateNode(T, AG.prod(N->Prod).Lhs, 6 + Edit % 9);
      IE.replaceSubtree(T, N, std::move(Fresh));
      UpdateStrategy Strategy = Edit % 2 ? UpdateStrategy::FromRoot
                                         : UpdateStrategy::StartAnywhere;
      ASSERT_TRUE(IE.update(T, D, Strategy)) << D.dump();

      // Cross-check against a from-scratch evaluation of a clone.
      Tree Check(AG);
      Check.setRoot(T.clone(T.root()));
      ASSERT_TRUE(Full.evaluate(Check, D)) << D.dump();
      workloads::PCodeResult Inc = workloads::pcodeFromTree(AG, T);
      workloads::PCodeResult Scratch = workloads::pcodeFromTree(AG, Check);
      ASSERT_EQ(Inc.Code, Scratch.Code) << "seed " << Seed << " edit "
                                        << Edit;
      ASSERT_EQ(Inc.Errors, Scratch.Errors);
    }
  }
}

TEST(EmittedCIntegrity, SuiteGrammarsEmitBalancedC) {
  auto Suite = workloads::systemAgSuite();
  for (const workloads::SystemAg &Ag : Suite) {
    DiagnosticEngine D;
    olga::CompileResult R = olga::compileMolga(Ag.Source, D);
    ASSERT_TRUE(R.Success) << Ag.Name;
    DiagnosticEngine GD;
    GeneratorOptions Opts;
    Opts.OagK = Ag.OagK;
    GeneratedEvaluator GE = generateEvaluator(R.Grammars[0].AG, GD, Opts);
    ASSERT_TRUE(GE.Success) << Ag.Name;
    CEmitStats Stats;
    DiagnosticEngine ED;
    std::string C = emitC(R.Grammars[0], GE, Stats, ED);
    EXPECT_FALSE(ED.hasErrors()) << Ag.Name << ": " << ED.dump();
    long Balance = 0, Parens = 0;
    for (char Ch : C) {
      Balance += Ch == '{';
      Balance -= Ch == '}';
      Parens += Ch == '(';
      Parens -= Ch == ')';
    }
    EXPECT_EQ(Balance, 0) << Ag.Name;
    EXPECT_EQ(Parens, 0) << Ag.Name;
    EXPECT_EQ(Stats.Rules, R.Grammars[0].AG.numRules()) << Ag.Name;
    EXPECT_EQ(Stats.VisitSequences, GE.Plan.numSequences()) << Ag.Name;
  }
}

TEST(TermRoundTrip, RandomTreesOverWorkloadGrammars) {
  DiagnosticEngine Diags;
  AttributeGrammar Gs[] = {
      workloads::deskCalculator(Diags), workloads::binaryNumbers(Diags),
      workloads::repmin(Diags), workloads::miniPascal(Diags)};
  ASSERT_FALSE(Diags.hasErrors());
  for (const AttributeGrammar &AG : Gs) {
    for (uint64_t Seed : {1u, 2u, 3u}) {
      TreeGenerator Gen(AG, Seed);
      Tree T = Gen.generate(120);
      std::string Text = writeTerm(AG, T.root());
      DiagnosticEngine D;
      Tree Back = readTerm(AG, Text, D);
      ASSERT_FALSE(D.hasErrors()) << AG.Name << ": " << D.dump();
      EXPECT_EQ(writeTerm(AG, Back.root()), Text) << AG.Name;
      DiagnosticEngine VD;
      EXPECT_TRUE(Back.validate(VD)) << VD.dump();
    }
  }
}

TEST(StorageOnSuite, OptimizedRunsMatchReferenceRootOutputs) {
  auto Suite = workloads::systemAgSuite();
  for (const workloads::SystemAg &Ag : Suite) {
    DiagnosticEngine D;
    olga::CompileResult R = olga::compileMolga(Ag.Source, D);
    ASSERT_TRUE(R.Success) << Ag.Name;
    const AttributeGrammar &AG = R.Grammars[0].AG;
    DiagnosticEngine GD;
    GeneratorOptions Opts;
    Opts.OagK = Ag.OagK;
    GeneratedEvaluator GE = generateEvaluator(AG, GD, Opts);
    ASSERT_TRUE(GE.Success) << Ag.Name;

    TreeGenerator Gen(AG, 31);
    Tree T = Gen.generate(400);
    Evaluator E(GE.Compiled->CP);
    DiagnosticEngine ED;
    ASSERT_TRUE(E.evaluate(T, ED)) << Ag.Name << ": " << ED.dump();
    PhylumId Root = AG.prod(T.root()->Prod).Lhs;
    AttrId Out = AG.findAttr(Root, "out");
    ASSERT_NE(Out, InvalidId);
    Value Ref = T.root()->attrVal(AG.attr(Out).IndexInOwner);

    StorageEvaluator SE(GE.Compiled->CP, GE.Compiled->CS);
    SE.setMirrorToTree(true);
    ASSERT_TRUE(SE.evaluate(T, ED)) << Ag.Name << ": " << ED.dump();
    EXPECT_TRUE(Ref.equals(T.root()->attrVal(AG.attr(Out).IndexInOwner)))
        << Ag.Name;
    EXPECT_GT(SE.stats().reductionFactor(), 1.0) << Ag.Name;
  }
}

} // namespace
