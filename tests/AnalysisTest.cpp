//===- tests/AnalysisTest.cpp - circularity test suite --------------------===//

#include "analysis/Classify.h"
#include "olga/Driver.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/SpecGen.h"

#include <gtest/gtest.h>

using namespace fnc2;

namespace {

TEST(SncTest, AcceptsDeskCalculator) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  SncResult R = runSncTest(AG);
  EXPECT_TRUE(R.IsSNC);
  EXPECT_TRUE(R.Witness.empty());
  // Exp: env -> val in the IO relation (value depends on environment).
  PhylumId Exp = AG.findPhylum("Exp");
  AttrId Env = AG.findAttr(Exp, "env");
  AttrId Val = AG.findAttr(Exp, "val");
  EXPECT_TRUE(R.IO[Exp].test(AG.attr(Env).IndexInOwner,
                             AG.attr(Val).IndexInOwner));
}

TEST(SncTest, AcceptsBinaryNumbersWithLenScaleFeedback) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  SncResult R = runSncTest(AG);
  EXPECT_TRUE(R.IsSNC);
  PhylumId List = AG.findPhylum("List");
  AttrId Scale = AG.findAttr(List, "scale");
  AttrId Val = AG.findAttr(List, "val");
  AttrId Len = AG.findAttr(List, "len");
  EXPECT_TRUE(R.IO[List].test(AG.attr(Scale).IndexInOwner,
                              AG.attr(Val).IndexInOwner));
  // len does not depend on scale.
  EXPECT_FALSE(R.IO[List].test(AG.attr(Scale).IndexInOwner,
                               AG.attr(Len).IndexInOwner));
}

TEST(SncTest, RejectsCircularGrammarWithWitness) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::circularGrammar(Diags);
  SncResult R = runSncTest(AG);
  EXPECT_FALSE(R.IsSNC);
  ASSERT_FALSE(R.Witness.empty());
  EXPECT_EQ(AG.prod(R.Witness.Prod).Name, "Top");
  std::string Trace = formatCircularityTrace(AG, R.Witness, &R.IO, nullptr);
  EXPECT_NE(Trace.find("circularity in operator 'Top'"), std::string::npos);
  EXPECT_NE(Trace.find("induced from below"), std::string::npos) << Trace;
}

TEST(NcTest, AgreesWithSncOnClassicGrammars) {
  DiagnosticEngine Diags;
  // On these grammars plain NC and SNC coincide.
  AttributeGrammar Good[] = {workloads::deskCalculator(Diags),
                             workloads::binaryNumbers(Diags),
                             workloads::repmin(Diags),
                             workloads::twoContextGrammar(Diags)};
  ASSERT_FALSE(Diags.hasErrors());
  for (const AttributeGrammar &AG : Good) {
    NcResult R = runNcTest(AG);
    EXPECT_FALSE(R.GaveUp) << AG.Name;
    EXPECT_TRUE(R.IsNC) << AG.Name;
  }
  AttributeGrammar Bad = workloads::circularGrammar(Diags);
  NcResult R = runNcTest(Bad);
  EXPECT_FALSE(R.IsNC);
  EXPECT_FALSE(R.Witness.empty());
}

TEST(DncTest, AcceptsSingleContextGrammars) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  SncResult Snc = runSncTest(AG);
  ASSERT_TRUE(Snc.IsSNC);
  DncResult R = runDncTest(AG, Snc);
  EXPECT_TRUE(R.IsDNC);
  // The fraction context injects len -> scale from above on List.
  PhylumId List = AG.findPhylum("List");
  AttrId Scale = AG.findAttr(List, "scale");
  AttrId Len = AG.findAttr(List, "len");
  EXPECT_TRUE(R.OI[List].test(AG.attr(Len).IndexInOwner,
                              AG.attr(Scale).IndexInOwner));
}

TEST(DncTest, RejectsTwoContextGrammar) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::twoContextGrammar(Diags);
  SncResult Snc = runSncTest(AG);
  ASSERT_TRUE(Snc.IsSNC) << "two-context grammar must be SNC";
  DncResult R = runDncTest(AG, Snc);
  EXPECT_FALSE(R.IsDNC) << "opposite context orders union into an OI cycle";
  EXPECT_FALSE(R.Witness.empty());
}

TEST(OagTest, DeskCalculatorIsOag0) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  OagResult R = runOagTest(AG, 0);
  ASSERT_TRUE(R.IsOAG);
  EXPECT_EQ(R.UsedK, 0u);
  // Exp gets the 1-visit partition [env | val].
  PhylumId Exp = AG.findPhylum("Exp");
  EXPECT_EQ(R.Partitions[Exp].numVisits(), 1u);
  EXPECT_EQ(R.Partitions[Exp].numBlocks(), 2u);
}

TEST(OagTest, BinaryNumbersIsOag0WithTwoVisits) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  OagResult R = runOagTest(AG, 0);
  ASSERT_TRUE(R.IsOAG);
  PhylumId List = AG.findPhylum("List");
  EXPECT_EQ(R.Partitions[List].numVisits(), 2u)
      << R.Partitions[List].str(AG, List);
  // len comes back in visit 1, scale goes down in visit 2.
  AttrId Len = AG.findAttr(List, "len");
  AttrId Scale = AG.findAttr(List, "scale");
  EXPECT_LT(R.Partitions[List].blockOf(AG.attr(Len).IndexInOwner),
            R.Partitions[List].blockOf(AG.attr(Scale).IndexInOwner));
}

TEST(OagTest, Oag1GrammarNeedsOneRepair) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::oag1Grammar(Diags);
  OagResult R0 = runOagTest(AG, 0);
  EXPECT_FALSE(R0.IsOAG) << "must fail with the default peel";
  EXPECT_FALSE(R0.Witness.empty());
  OagResult R1 = runOagTest(AG, 1);
  ASSERT_TRUE(R1.IsOAG) << "one repair round must fix the partition";
  EXPECT_EQ(R1.UsedK, 1u);
  PhylumId X = AG.findPhylum("X");
  EXPECT_EQ(R1.Partitions[X].numVisits(), 2u)
      << R1.Partitions[X].str(AG, X);
}

TEST(OagTest, ConflictTriangleNeedsSeveralRepairs) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::dncNotOagGrammar(Diags);
  // The triangle of sibling conflicts defeats the default test and a single
  // repair round; only a larger budget eventually splits all pairings.
  EXPECT_FALSE(runOagTest(AG, 0).IsOAG);
  EXPECT_FALSE(runOagTest(AG, 1).IsOAG);
  OagResult R = runOagTest(AG, 8);
  if (R.IsOAG)
    EXPECT_GE(R.UsedK, 2u);
  // It is DNC regardless.
  SncResult Snc = runSncTest(AG);
  ASSERT_TRUE(Snc.IsSNC);
  EXPECT_TRUE(runDncTest(AG, Snc).IsDNC);
}

TEST(ClassifyTest, ClassCascade) {
  DiagnosticEngine Diags;
  struct Case {
    AttributeGrammar AG;
    AgClass Expected;
    const char *Name;
  };
  Case Cases[] = {
      {workloads::deskCalculator(Diags), AgClass::OAG, "OAG(0)"},
      {workloads::binaryNumbers(Diags), AgClass::OAG, "OAG(0)"},
      {workloads::repmin(Diags), AgClass::OAG, "OAG(0)"},
      {workloads::circularGrammar(Diags), AgClass::NotSNC, "not SNC"},
      {workloads::twoContextGrammar(Diags), AgClass::SNC, "SNC"},
      {workloads::dncNotOagGrammar(Diags), AgClass::DNC, "DNC"},
  };
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  for (auto &C : Cases) {
    ClassifyResult R = classifyGrammar(C.AG, 0);
    EXPECT_EQ(R.Class, C.Expected) << C.AG.Name;
    EXPECT_EQ(R.className(), C.Name) << C.AG.Name;
  }
  // With a bigger repair budget the OAG(1) grammar classifies as OAG(1).
  ClassifyResult R = classifyGrammar(workloads::oag1Grammar(Diags), 2);
  EXPECT_EQ(R.Class, AgClass::OAG);
  EXPECT_EQ(R.className(), "OAG(1)");
}

TEST(ClassifyTest, CascadeSkipsLaterPhasesOnFailure) {
  DiagnosticEngine Diags;
  ClassifyResult R = classifyGrammar(workloads::circularGrammar(Diags));
  EXPECT_FALSE(R.DncRan);
  EXPECT_FALSE(R.OagRan);
  ClassifyResult R2 = classifyGrammar(workloads::twoContextGrammar(Diags));
  EXPECT_TRUE(R2.DncRan);
  EXPECT_FALSE(R2.OagRan) << "OAG must not run when DNC fails";
}

TEST(PhylumRelationTest, TotalPairsCountsAcrossPhyla) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  SncResult R = runSncTest(AG);
  EXPECT_GT(R.IO.totalPairs(), 0u);
}

//===----------------------------------------------------------------------===//
// Worklist cascade vs naive reference
//===----------------------------------------------------------------------===//

/// Runs the cascade under \p Opts and \p Ref and asserts bit-identical
/// relations, identical class verdicts and identical cycle witnesses. The
/// fixpoints are chaotic iterations of one monotone operator on a finite
/// lattice, so any strategy reaches the same least fixpoint; the witness is
/// picked post-convergence in ProdId order on both sides.
void expectCascadeAgrees(const AttributeGrammar &AG, const GfaOptions &Opts,
                         const char *Tag) {
  GfaOptions Ref;
  Ref.NaiveFixpoint = true;
  ClassifyResult A = classifyGrammar(AG, /*OagK=*/1, Ref);
  ClassifyResult B = classifyGrammar(AG, /*OagK=*/1, Opts);

  EXPECT_EQ(A.className(), B.className()) << Tag;
  EXPECT_EQ(A.Snc.IsSNC, B.Snc.IsSNC) << Tag;
  EXPECT_TRUE(A.Snc.IO == B.Snc.IO) << Tag << ": IO relations differ";
  EXPECT_EQ(A.Snc.Witness.Prod, B.Snc.Witness.Prod) << Tag;
  EXPECT_EQ(A.Snc.Witness.Cycle, B.Snc.Witness.Cycle) << Tag;
  ASSERT_EQ(A.DncRan, B.DncRan) << Tag;
  if (A.DncRan) {
    EXPECT_EQ(A.Dnc.IsDNC, B.Dnc.IsDNC) << Tag;
    EXPECT_TRUE(A.Dnc.OI == B.Dnc.OI) << Tag << ": OI relations differ";
    EXPECT_EQ(A.Dnc.Witness.Prod, B.Dnc.Witness.Prod) << Tag;
    EXPECT_EQ(A.Dnc.Witness.Cycle, B.Dnc.Witness.Cycle) << Tag;
  }
  ASSERT_EQ(A.OagRan, B.OagRan) << Tag;
  if (A.OagRan) {
    EXPECT_EQ(A.Oag.IsOAG, B.Oag.IsOAG) << Tag;
    EXPECT_EQ(A.Oag.UsedK, B.Oag.UsedK) << Tag;
    EXPECT_TRUE(A.Oag.IDS == B.Oag.IDS) << Tag << ": IDS relations differ";
    EXPECT_EQ(A.Oag.Witness.Prod, B.Oag.Witness.Prod) << Tag;
    EXPECT_EQ(A.Oag.Witness.Cycle, B.Oag.Witness.Cycle) << Tag;
  }
}

using GrammarFactory = AttributeGrammar (*)(DiagnosticEngine &);

const std::pair<const char *, GrammarFactory> ClassicCases[] = {
    {"deskCalculator", workloads::deskCalculator},
    {"binaryNumbers", workloads::binaryNumbers},
    {"repmin", workloads::repmin},
    {"circularGrammar", workloads::circularGrammar},
    {"twoContextGrammar", workloads::twoContextGrammar},
    {"dncNotOagGrammar", workloads::dncNotOagGrammar},
    {"oag1Grammar", workloads::oag1Grammar},
};

TEST(CascadeDifferentialTest, WorklistAgreesWithNaiveOnClassics) {
  for (auto [Name, Make] : ClassicCases) {
    DiagnosticEngine Diags;
    AttributeGrammar AG = Make(Diags);
    expectCascadeAgrees(AG, GfaOptions{}, Name);
  }
}

TEST(CascadeDifferentialTest, AgreesOnSpecGenSweep) {
  using Shape = workloads::SpecGenOptions::Shape;
  for (Shape S : {Shape::Oag0, Shape::Oag1, Shape::Dnc}) {
    for (uint64_t Seed : {7u, 21u}) {
      workloads::SpecGenOptions Opts;
      Opts.Name = "CascadeDiff";
      Opts.Phyla = 6;
      Opts.OperatorsPerPhylum = 3;
      Opts.AttrPairs = 2;
      Opts.ClassShape = S;
      Opts.Seed = Seed;
      DiagnosticEngine Diags;
      olga::CompileResult C =
          olga::compileMolga(workloads::generateMolgaSpec(Opts), Diags);
      ASSERT_TRUE(C.Success) << Diags.dump();
      std::string Tag = "shape=" + std::to_string(unsigned(S)) +
                        " seed=" + std::to_string(Seed);
      expectCascadeAgrees(C.Grammars[0].AG, GfaOptions{}, Tag.c_str());
    }
  }
}

// The compile benchmark's two largest SpecGen grammars (Phyla/Ops/AttrPairs
// 28/6/4 DNC-shaped and 48/8/7 OAG(0)-shaped, seed 7). S4 has 385
// productions with up to 42 occurrences each, so its later rounds re-close
// cached closures edge by edge (closeWithEdge) and through the seeded
// Warshall pass — the paths the small sweep above barely reaches.
TEST(CascadeDifferentialTest, AgreesOnCompileRosterGrammars) {
  using Shape = workloads::SpecGenOptions::Shape;
  struct Size {
    const char *Name;
    unsigned Phyla, Ops, AttrPairs;
    Shape ClassShape;
  };
  for (const Size &S : {Size{"specgen-S3-dnc", 28, 6, 4, Shape::Dnc},
                        Size{"specgen-S4", 48, 8, 7, Shape::Oag0}}) {
    workloads::SpecGenOptions Opts;
    Opts.Name = "Scale" + std::to_string(S.Phyla);
    Opts.Phyla = S.Phyla;
    Opts.OperatorsPerPhylum = S.Ops;
    Opts.AttrPairs = S.AttrPairs;
    Opts.ClassShape = S.ClassShape;
    Opts.Seed = 7;
    DiagnosticEngine Diags;
    olga::CompileResult C =
        olga::compileMolga(workloads::generateMolgaSpec(Opts), Diags);
    ASSERT_TRUE(C.Success) << Diags.dump();
    expectCascadeAgrees(C.Grammars[0].AG, GfaOptions{}, S.Name);
  }
}

} // namespace
