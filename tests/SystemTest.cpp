//===- tests/SystemTest.cpp - pipeline, workloads, tools, codegen ---------===//

#include "codegen/CEmitter.h"
#include "eval/Evaluator.h"
#include "support/HostCompiler.h"
#include "fnc2/Generator.h"
#include "grammar/GrammarBuilder.h"
#include "olga/Parser.h"
#include "olga/Driver.h"
#include "tools/Companion.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/MiniPascal.h"
#include "workloads/SpecGen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace fnc2;

namespace {

//===----------------------------------------------------------------------===//
// Generator pipeline
//===----------------------------------------------------------------------===//

TEST(GeneratorTest, FullCascadeOnClassicGrammars) {
  DiagnosticEngine Diags;
  struct Case {
    AttributeGrammar AG;
    const char *Class;
  } Cases[] = {
      {workloads::deskCalculator(Diags), "OAG(0)"},
      {workloads::binaryNumbers(Diags), "OAG(0)"},
      {workloads::repmin(Diags), "OAG(0)"},
      {workloads::twoContextGrammar(Diags), "SNC"},
      {workloads::dncNotOagGrammar(Diags), "DNC"},
  };
  ASSERT_FALSE(Diags.hasErrors());
  for (auto &C : Cases) {
    DiagnosticEngine D;
    GeneratedEvaluator GE = generateEvaluator(C.AG, D);
    ASSERT_TRUE(GE.Success) << C.AG.Name << ": " << D.dump();
    EXPECT_EQ(GE.Classes.className(), C.Class) << C.AG.Name;
    EXPECT_GT(GE.Plan.numSequences(), 0u) << C.AG.Name;
    Table1Row Row = GE.statsRow(C.AG);
    EXPECT_EQ(Row.Phyla, C.AG.numPhyla());
    EXPECT_EQ(Row.Operators, C.AG.numProds());
    EXPECT_NEAR(Row.PctVars + Row.PctStacks + Row.PctNonTemp, 100.0, 1e-6);
  }
}

TEST(GeneratorTest, RejectsCircularWithTrace) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::circularGrammar(Diags);
  DiagnosticEngine D;
  GeneratedEvaluator GE = generateEvaluator(AG, D);
  EXPECT_FALSE(GE.Success);
  EXPECT_TRUE(D.hasErrors());
  EXPECT_NE(GE.Trace.find("circularity in operator"), std::string::npos);
}

TEST(GeneratorTest, OagKOptionChangesClass) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::oag1Grammar(Diags);
  DiagnosticEngine D;
  GeneratorOptions Opts;
  Opts.OagK = 0;
  EXPECT_EQ(generateEvaluator(AG, D, Opts).Classes.className(), "DNC");
  Opts.OagK = 1;
  DiagnosticEngine D2;
  EXPECT_EQ(generateEvaluator(AG, D2, Opts).Classes.className(), "OAG(1)");
}

//===----------------------------------------------------------------------===//
// Mini-Pascal
//===----------------------------------------------------------------------===//

class MiniPascalTest : public ::testing::Test {
protected:
  void SetUp() override {
    AG = workloads::miniPascal(Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
    DiagnosticEngine D;
    GE = generateEvaluator(AG, D);
    ASSERT_TRUE(GE.Success) << D.dump();
  }
  DiagnosticEngine Diags;
  AttributeGrammar AG{};
  GeneratedEvaluator GE;
};

TEST_F(MiniPascalTest, IsOrdered) {
  EXPECT_EQ(GE.Classes.className(), "OAG(0)");
}

TEST_F(MiniPascalTest, CompilesStraightLineProgram) {
  DiagnosticEngine D;
  Tree T = workloads::parseMiniPascal(
      AG, "var x: int; begin x := 1 + 2 * 3; write x; end", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  ASSERT_NE(T.root(), nullptr);
  Evaluator E(GE.Compiled->CP);
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  workloads::PCodeResult R = workloads::pcodeFromTree(AG, T);
  EXPECT_EQ(R.Errors, 0);
  std::vector<std::string> Expected = {"LIT 1", "LIT 2", "LIT 3", "MUL",
                                       "ADD",   "STO x", "LOD x", "WRI",
                                       "HLT"};
  EXPECT_EQ(R.Code, Expected);
}

TEST_F(MiniPascalTest, LabelsThreadThroughControlFlow) {
  DiagnosticEngine D;
  Tree T = workloads::parseMiniPascal(AG,
                                      "var x: int; begin "
                                      "if x < 1 then begin x := 1; end "
                                      "else begin x := 2; end; "
                                      "while x < 5 do begin x := x + 1; end; "
                                      "end",
                                      D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  Evaluator E(GE.Compiled->CP);
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  workloads::PCodeResult R = workloads::pcodeFromTree(AG, T);
  EXPECT_EQ(R.Errors, 0);
  // The if uses L0/L1, the while L2/L3: labels never collide.
  std::string Joined;
  for (const std::string &I : R.Code)
    Joined += I + ";";
  EXPECT_NE(Joined.find("JPC L0"), std::string::npos) << Joined;
  EXPECT_NE(Joined.find("JMP L1"), std::string::npos) << Joined;
  EXPECT_NE(Joined.find("LAB L2"), std::string::npos) << Joined;
  EXPECT_NE(Joined.find("JPC L3"), std::string::npos) << Joined;
}

TEST_F(MiniPascalTest, CountsStaticErrors) {
  struct Case {
    const char *Src;
    int64_t Errors;
  } Cases[] = {
      {"var x: int; begin x := 1; end", 0},
      {"begin x := 1; end", 1},                       // undeclared
      {"var x: int; var x: int; begin end", 1},       // redeclaration
      {"var b: bool; begin b := 1; end", 1},          // type mismatch
      {"var x: int; begin if x then begin end; end", 1}, // non-bool cond
      {"var x: int; begin while x + true < 2 do begin end; end", 3},
  };
  Evaluator E(GE.Compiled->CP);
  for (const auto &C : Cases) {
    DiagnosticEngine D;
    Tree T = workloads::parseMiniPascal(AG, C.Src, D);
    ASSERT_FALSE(D.hasErrors()) << C.Src << ": " << D.dump();
    ASSERT_TRUE(E.evaluate(T, D)) << C.Src << ": " << D.dump();
    EXPECT_EQ(workloads::pcodeFromTree(AG, T).Errors, C.Errors) << C.Src;
  }
}

class MiniPascalAgreement : public ::testing::TestWithParam<unsigned> {};

TEST_P(MiniPascalAgreement, GeneratedMatchesHandWritten) {
  unsigned Seed = GetParam();
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::miniPascal(Diags);
  ASSERT_FALSE(Diags.hasErrors());
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();
  Evaluator E(GE.Compiled->CP);

  std::string Src = workloads::generateMiniPascalSource(20 + Seed * 7, Seed);
  DiagnosticEngine D;
  Tree T = workloads::parseMiniPascal(AG, Src, D);
  ASSERT_FALSE(D.hasErrors()) << Src << "\n" << D.dump();
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  workloads::PCodeResult ByAg = workloads::pcodeFromTree(AG, T);
  workloads::PCodeResult ByHand =
      workloads::compileMiniPascalByHand(AG, T.root());
  EXPECT_EQ(ByAg.Code, ByHand.Code);
  EXPECT_EQ(ByAg.Errors, ByHand.Errors);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MiniPascalAgreement,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

//===----------------------------------------------------------------------===//
// SpecGen + the system suite
//===----------------------------------------------------------------------===//

TEST(SpecGenTest, GeneratedModulesCompile) {
  for (uint64_t Seed : {1u, 9u, 42u}) {
    std::string Src = workloads::generateMolgaModule("Mx", 12, Seed);
    DiagnosticEngine D;
    olga::CompileResult R = olga::compileMolga(Src, D);
    EXPECT_TRUE(R.Success) << Src << "\n" << D.dump();
    EXPECT_GT(R.Optimizer.TailRecursiveFuns, 0u);
  }
}

TEST(SpecGenTest, GeneratedSpecsCompileAndEvaluate) {
  workloads::SpecGenOptions Opts;
  Opts.Name = "Gx";
  Opts.Phyla = 6;
  Opts.AttrPairs = 2;
  Opts.Seed = 7;
  std::string Src = workloads::generateMolgaSpec(Opts);
  DiagnosticEngine D;
  olga::CompileResult R = olga::compileMolga(Src, D);
  ASSERT_TRUE(R.Success) << Src << "\n" << D.dump();
  const olga::LoweredGrammar &LG = R.Grammars[0];

  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(LG.AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();
  EXPECT_EQ(GE.Classes.className(), "OAG(0)");

  Evaluator E(GE.Compiled->CP);
  TreeGenerator Gen(LG.AG, 3);
  Tree T = Gen.generate(200);
  DiagnosticEngine TD;
  ASSERT_TRUE(E.evaluate(T, TD)) << TD.dump();
  EXPECT_FALSE(LG.RuntimeDiags->hasErrors()) << LG.RuntimeDiags->dump();
}

TEST(SpecGenTest, ShapeControlsClass) {
  workloads::SpecGenOptions Opts;
  Opts.Name = "Gs";
  Opts.Phyla = 4;
  Opts.Seed = 11;

  Opts.ClassShape = workloads::SpecGenOptions::Shape::Oag1;
  DiagnosticEngine D1;
  olga::CompileResult R1 = olga::compileMolga(generateMolgaSpec(Opts), D1);
  ASSERT_TRUE(R1.Success) << D1.dump();
  DiagnosticEngine G1;
  GeneratorOptions GO;
  GO.OagK = 1;
  EXPECT_EQ(generateEvaluator(R1.Grammars[0].AG, G1, GO).Classes.className(),
            "OAG(1)");

  Opts.ClassShape = workloads::SpecGenOptions::Shape::Dnc;
  DiagnosticEngine D2;
  olga::CompileResult R2 = olga::compileMolga(generateMolgaSpec(Opts), D2);
  ASSERT_TRUE(R2.Success) << D2.dump();
  DiagnosticEngine G2;
  EXPECT_EQ(generateEvaluator(R2.Grammars[0].AG, G2).Classes.className(),
            "DNC");
}

TEST(SystemSuiteTest, AllSevenAgsGenerateWithExpectedClasses) {
  auto Suite = workloads::systemAgSuite();
  ASSERT_EQ(Suite.size(), 7u);
  const char *ExpectedClass[] = {"OAG(0)", "OAG(0)", "OAG(0)", "OAG(0)",
                                 "DNC",    "OAG(0)", "OAG(1)"};
  for (size_t I = 0; I != Suite.size(); ++I) {
    DiagnosticEngine D;
    olga::CompileResult R = olga::compileMolga(Suite[I].Source, D);
    ASSERT_TRUE(R.Success) << Suite[I].Name << ": " << D.dump();
    DiagnosticEngine GD;
    GeneratorOptions Opts;
    Opts.OagK = Suite[I].OagK;
    GeneratedEvaluator GE = generateEvaluator(R.Grammars[0].AG, GD, Opts);
    ASSERT_TRUE(GE.Success) << Suite[I].Name << ": " << GD.dump();
    EXPECT_EQ(GE.Classes.className(), ExpectedClass[I]) << Suite[I].Name;
  }
}

//===----------------------------------------------------------------------===//
// Companion processors
//===----------------------------------------------------------------------===//

TEST(AsxTest, ReportsMiniPascalSignature) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::miniPascal(Diags);
  DiagnosticEngine D;
  AsxReport R = checkAbstractSyntax(AG, D);
  EXPECT_TRUE(R.WellDefined) << D.dump();
  EXPECT_EQ(R.Phyla, AG.numPhyla());
  EXPECT_GT(R.LeafOperators, 0u);
  EXPECT_EQ(R.MaxArity, 3u); // IfStmt
  std::string Sig = printAbstractSyntax(AG);
  EXPECT_NE(Sig.find("Prog (root)"), std::string::npos);
  EXPECT_NE(Sig.find("IfStmt(Expr, StmtList, StmtList)"), std::string::npos);
}

TEST(AsxTest, DetectsUnproductivePhylum) {
  GrammarBuilder B("bad");
  PhylumId X = B.phylum("X");
  PhylumId Y = B.phylum("Y");
  B.production("Loop", Y, {Y}); // Y only recurses: unproductive
  B.production("LeafX", X, {});
  B.setStart(X);
  DiagnosticEngine Diags;
  AttributeGrammar AG =
      B.finalize(Diags, {/*AutoCopy=*/false, /*CheckWellFormed=*/false});
  DiagnosticEngine D;
  AsxReport R = checkAbstractSyntax(AG, D);
  EXPECT_FALSE(R.WellDefined);
  EXPECT_NE(D.dump().find("unproductive"), std::string::npos);
}

TEST(PpatTest, UnparsesWithTemplatesAndFallback) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Mul(Num<2>,Var<\"x\">)))", D);
  ASSERT_FALSE(D.hasErrors());

  Unparser U(AG);
  U.setTemplate(AG.findProd("Add"),
                {UnparsePiece::text("("), UnparsePiece::child(0),
                 UnparsePiece::text(" + "), UnparsePiece::child(1),
                 UnparsePiece::text(")")});
  U.setTemplate(AG.findProd("Mul"),
                {UnparsePiece::child(0), UnparsePiece::text("*"),
                 UnparsePiece::child(1)});
  U.setTemplate(AG.findProd("Num"), {UnparsePiece::lexeme()});
  U.setTemplate(AG.findProd("Var"), {UnparsePiece::lexeme()});
  // Calc stays on the generic fallback.
  EXPECT_EQ(U.unparse(T.root()), "Calc((1 + 2*x))");
  EXPECT_EQ(U.numUserTemplates(), 4u);
  EXPECT_EQ(U.numFallbackOperators(), AG.numProds() - 4);
}

TEST(MkFnc2Test, BuildOrderAndCycles) {
  DiagnosticEngine D;
  olga::CompilationUnit U = olga::parseUnit(
      "module A end module B import A end grammar G import B end", D);
  ASSERT_FALSE(D.hasErrors());
  DiagnosticEngine D2;
  ModuleDepGraph G = buildModuleDepGraph(U, D2);
  ASSERT_FALSE(G.HasCycle) << D2.dump();
  ASSERT_EQ(G.BuildOrder.size(), 3u);
  // Dependencies come first.
  auto pos = [&](const std::string &N) {
    for (size_t I = 0; I != G.BuildOrder.size(); ++I)
      if (G.BuildOrder[I] == N)
        return I;
    return size_t(99);
  };
  EXPECT_LT(pos("A"), pos("B"));
  EXPECT_LT(pos("B"), pos("G"));

  DiagnosticEngine D3;
  olga::CompilationUnit U2 = olga::parseUnit(
      "module A import B end module B import A end", D3);
  DiagnosticEngine D4;
  ModuleDepGraph G2 = buildModuleDepGraph(U2, D4);
  EXPECT_TRUE(G2.HasCycle);
  EXPECT_FALSE(G2.Cycle.empty());
  EXPECT_TRUE(D4.hasErrors());
}

TEST(MkFnc2Test, UnknownImportReported) {
  DiagnosticEngine D;
  olga::CompilationUnit U = olga::parseUnit("module A import Ghost end", D);
  DiagnosticEngine D2;
  buildModuleDepGraph(U, D2);
  EXPECT_TRUE(D2.hasErrors());
  EXPECT_NE(D2.dump().find("unknown unit 'Ghost'"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Translation to C
//===----------------------------------------------------------------------===//

static const char *TinyCalcSource = R"molga(
module CLib
  fun double(x: int): int = x + x
  fun pick(n: int): int = match n with | 0 -> 1 | 1 -> 10 | 2 -> 100
                          | _ -> 0 end
end
grammar CG
  import CLib
  phylum A root
  attr A syn s : int
  operator Leaf() -> A lexeme int
  operator Pair(l: A, r: A) -> A
  rules for Leaf
    A.s := double(lexeme) + pick(lexeme)
  end
  rules for Pair
    A.s := l.s + r.s
  end
end
)molga";

TEST(CEmitterTest, EmitsCompleteTranslationUnit) {
  DiagnosticEngine D;
  olga::CompileResult R = olga::compileMolga(TinyCalcSource, D);
  ASSERT_TRUE(R.Success) << D.dump();
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(R.Grammars[0].AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();

  CEmitStats Stats;
  DiagnosticEngine ED;
  std::string C = emitC(R.Grammars[0], GE, Stats, ED);
  EXPECT_FALSE(ED.hasErrors()) << ED.dump();
  EXPECT_GT(Stats.Lines, 100u);
  EXPECT_EQ(Stats.Functions, 2u);
  EXPECT_EQ(Stats.Constructors, 2u);
  EXPECT_EQ(Stats.VisitSequences, GE.Plan.numSequences());
  EXPECT_NE(C.find("molga_double"), std::string::npos);
  EXPECT_NE(C.find("switch"), std::string::npos)
      << "the compiled match emits a decision-tree switch";
  EXPECT_NE(C.find("mk_Pair"), std::string::npos);
  EXPECT_NE(C.find("fnc_find_seq"), std::string::npos);

  // Structural sanity: balanced braces.
  long Balance = 0;
  for (char Ch : C) {
    Balance += Ch == '{';
    Balance -= Ch == '}';
  }
  EXPECT_EQ(Balance, 0);
}

TEST(CEmitterTest, EmittedCodeCompilesWithSystemCompiler) {
  DiagnosticEngine D;
  olga::CompileResult R = olga::compileMolga(TinyCalcSource, D);
  ASSERT_TRUE(R.Success) << D.dump();
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(R.Grammars[0].AG, GD);
  ASSERT_TRUE(GE.Success);
  CEmitStats Stats;
  DiagnosticEngine ED;
  std::string C = emitC(R.Grammars[0], GE, Stats, ED);

  const HostCompiler &Cc = findHostCc();
  if (!Cc.Found)
    GTEST_SKIP() << "no system C compiler available";
  std::string Path = ::testing::TempDir() + "/fnc2_emitted.c";
  std::ofstream(Path) << C;
  std::string Cmd = "\"" + Cc.Command + "\" -std=c99 -Wall " +
                    "-Wno-unused-function -c " + Path + " -o " + Path +
                    ".o 2> " + Path + ".log";
  int Rc = std::system(Cmd.c_str());
  if (Rc != 0) {
    std::ifstream Log(Path + ".log");
    std::string Err((std::istreambuf_iterator<char>(Log)),
                    std::istreambuf_iterator<char>());
    FAIL() << "emitted C failed to compile:\n" << Err;
  }
}

TEST(CEmitterTest, EmitCFunctionsOnly) {
  DiagnosticEngine D;
  olga::CompileResult R = olga::compileMolga(
      "module M const k : int = 3 fun f(x: int): int = x * k end", D);
  ASSERT_TRUE(R.Success) << D.dump();
  CEmitStats Stats;
  DiagnosticEngine ED;
  std::string C = emitCFunctions(*R.Prog, Stats, ED);
  EXPECT_EQ(Stats.Functions, 1u);
  EXPECT_NE(C.find("molga_const_k"), std::string::npos);
  EXPECT_NE(C.find("molga_f"), std::string::npos);
}

} // namespace
