//===- tests/FuzzSpecTest.cpp - seeded generator-cascade fuzzing ----------===//
//
// Seeded, deterministic fuzzing of the whole pipeline: SpecGen synthesizes
// well-typed molga sources across a sweep of seeds, sizes and class shapes
// (Oag0/Oag1/Dnc); each spec runs the front-end, the full generator cascade
// and an end-to-end evaluation. Well-formed specs must produce no
// diagnostics, the class assignment must be stable run-to-run, and nothing
// may crash. Sizes are chosen to keep the whole suite well under ten
// seconds.
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluator.h"
#include "fnc2/Generator.h"
#include "olga/Driver.h"
#include "tree/TreeGen.h"
#include "workloads/SpecGen.h"

#include <gtest/gtest.h>

#include <array>

using namespace fnc2;

namespace {

struct FuzzCase {
  workloads::SpecGenOptions::Shape Shape;
  uint64_t Seed;
  unsigned Phyla;
  unsigned Ops;
  unsigned Pairs;
};

const char *shapeName(workloads::SpecGenOptions::Shape S) {
  switch (S) {
  case workloads::SpecGenOptions::Shape::Oag0:
    return "Oag0";
  case workloads::SpecGenOptions::Shape::Oag1:
    return "Oag1";
  case workloads::SpecGenOptions::Shape::Dnc:
    return "Dnc";
  }
  return "?";
}

class FuzzSpecTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzSpecTest, CascadeIsCleanAndDeterministic) {
  const FuzzCase &C = GetParam();
  workloads::SpecGenOptions Opts;
  Opts.Name = "Fuzz";
  Opts.Phyla = C.Phyla;
  Opts.OperatorsPerPhylum = C.Ops;
  Opts.AttrPairs = C.Pairs;
  Opts.Funs = 4;
  Opts.ClassShape = C.Shape;
  Opts.Seed = C.Seed;

  std::string Src = workloads::generateMolgaSpec(Opts);
  ASSERT_FALSE(Src.empty());
  // Determinism of the generator itself.
  EXPECT_EQ(Src, workloads::generateMolgaSpec(Opts));

  DiagnosticEngine Diags;
  olga::CompileResult Compile = olga::compileMolga(Src, Diags);
  ASSERT_TRUE(Compile.Success) << Diags.dump();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.dump();
  ASSERT_EQ(Compile.Grammars.size(), 1u);
  const AttributeGrammar &AG = Compile.Grammars[0].AG;

  // The generator cascade succeeds without diagnostics; the sibling
  // conflicts injected for Oag1/Dnc shapes need the matching repair budget.
  unsigned OagK = C.Shape == workloads::SpecGenOptions::Shape::Oag0 ? 0 : 1;
  DiagnosticEngine GD;
  GeneratorOptions GOpts;
  GOpts.OagK = OagK;
  GeneratedEvaluator GE = generateEvaluator(AG, GD, GOpts);
  ASSERT_TRUE(GE.Success) << GD.dump();
  EXPECT_FALSE(GD.hasErrors()) << GD.dump();

  // Stable class assignment: the cascade re-run assigns the same class.
  DiagnosticEngine GD2;
  GeneratedEvaluator GE2 = generateEvaluator(AG, GD2, GOpts);
  ASSERT_TRUE(GE2.Success) << GD2.dump();
  EXPECT_EQ(GE.Classes.className(), GE2.Classes.className())
      << shapeName(C.Shape) << " seed " << C.Seed;
  EXPECT_EQ(GE.Plan.numSequences(), GE2.Plan.numSequences());

  // The shape controls the class: the Oag0 skeleton is ordered without
  // repairs; the injected conflicts demote exactly as designed.
  if (C.Shape == workloads::SpecGenOptions::Shape::Oag0)
    EXPECT_EQ(GE.Classes.className(), "OAG(0)") << Src;

  // End-to-end: a generated tree evaluates cleanly.
  TreeGenerator Gen(AG, C.Seed * 7919 + 13);
  Tree T = Gen.generate(120);
  Evaluator E(GE.Compiled->CP);
  DiagnosticEngine ED;
  ASSERT_TRUE(E.evaluate(T, ED)) << ED.dump();
  EXPECT_FALSE(ED.hasErrors()) << ED.dump();
  EXPECT_FALSE(Compile.Grammars[0].RuntimeDiags->hasErrors())
      << Compile.Grammars[0].RuntimeDiags->dump();
}

// Built at compile time so the padding bytes of every case are zero: test
// listings print FuzzCase as a byte dump, and stack garbage in the padding
// would make the listed test name change from build to build.
constexpr std::array<FuzzCase, 15> sweep() {
  std::array<FuzzCase, 15> Cases{};
  std::size_t I = 0;
  using Shape = workloads::SpecGenOptions::Shape;
  for (Shape S : {Shape::Oag0, Shape::Oag1, Shape::Dnc})
    for (uint64_t Seed : {1u, 2u, 3u, 5u, 8u})
      Cases[I++] = {S, Seed, unsigned(4 + Seed % 4), 3,
                    unsigned(1 + Seed % 2)};
  return Cases;
}

constexpr std::array<FuzzCase, 15> SweepCases = sweep();

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzSpecTest, ::testing::ValuesIn(SweepCases),
                         [](const ::testing::TestParamInfo<FuzzCase> &I) {
                           return std::string(shapeName(I.param.Shape)) +
                                  "_seed" + std::to_string(I.param.Seed);
                         });

} // namespace
