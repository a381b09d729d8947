//===- tests/StorageTest.cpp - space optimization tests -------------------===//

#include "analysis/Classify.h"
#include "eval/Evaluator.h"
#include "fnc2/Generator.h"
#include "grammar/GrammarBuilder.h"
#include "olga/Driver.h"
#include "serialize/Serialize.h"
#include "storage/StorageEvaluator.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/MiniPascal.h"
#include "workloads/SpecGen.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

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

TEST(LifetimeTest, DeskCalculatorClassification) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  StorageAssignment SA = analyzeStorage(AG, Plan);

  PhylumId Exp = AG.findPhylum("Exp");
  PhylumId Prog = AG.findPhylum("Prog");
  AttrId Env = AG.findAttr(Exp, "env");
  AttrId Val = AG.findAttr(Exp, "val");
  AttrId Result = AG.findAttr(Prog, "result");

  // env is redefined under Let while outer instances are still live: stack.
  EXPECT_EQ(SA.classOfAttr(Env), StorageClass::Stack);
  // val of the first son stays live across the second son's visit, which
  // recomputes val deeper: stack as well.
  EXPECT_EQ(SA.classOfAttr(Val), StorageClass::Stack);
  // result only ever has one live instance (the root's): a global variable.
  EXPECT_EQ(SA.classOfAttr(Result), StorageClass::Variable);

  // Nothing needs the tree in this grammar.
  EXPECT_EQ(SA.NumTreeAttrs, 0u);
  EXPECT_DOUBLE_EQ(SA.pctTree(), 0.0);
  EXPECT_NEAR(SA.pctVariables() + SA.pctStacks() + SA.pctTree(), 100.0, 1e-9);
}

TEST(LifetimeTest, BroadcastCopiesEliminated) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  StorageAssignment SA = analyzeStorage(AG, Plan);
  // The auto-generated env broadcast copies share the env stack cell.
  EXPECT_GT(SA.TotalCopyRules, 0u);
  EXPECT_GT(SA.EliminatedCopyRules, 0u);
  EXPECT_LE(SA.EliminatedCopyRules, SA.TotalCopyRules);
  EXPECT_LE(SA.EliminatedCopyRules, SA.EliminableCopyRules);
}

TEST(LifetimeTest, RepminGminCrossesVisits) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::repmin(Diags);
  EvaluationPlan Plan = planFor(AG);
  StorageAssignment SA = analyzeStorage(AG, Plan);
  PhylumId T = AG.findPhylum("T");
  // min is produced in visit 1 and consumed (as gmin) via an instance whose
  // lifetime spans the two visits of the child in Top: some of repmin's
  // attributes must stay in the tree or on stacks; the partition between
  // classes must be consistent.
  unsigned Classified = SA.NumVariableAttrs + SA.NumStackAttrs +
                        SA.NumTreeAttrs;
  EXPECT_EQ(Classified, AG.numAttrOccurrences());
  // gmin of T: defined in visit boundary-crossing context in Top
  // (Top: VISIT1, EVAL gmin, VISIT2 — all one chunk, so it may well be
  // stack); just check it is not misclassified as a plain variable, since
  // nested instances coexist.
  AttrId GMin = AG.findAttr(T, "gmin");
  EXPECT_NE(SA.classOfAttr(GMin), StorageClass::Variable);
}

TEST(LifetimeTest, IntervalsRespectSequenceBounds) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  EvaluationPlan Plan = planFor(AG);
  StorageAssignment SA = analyzeStorage(AG, Plan);
  EXPECT_FALSE(SA.Intervals.empty());
  for (const LifetimeInterval &LI : SA.Intervals) {
    ASSERT_LT(LI.SeqIdx, Plan.Seqs.size());
    EXPECT_LE(LI.DefPos, LI.EndPos);
    EXPECT_LT(LI.EndPos, Plan.Seqs[LI.SeqIdx].Instrs.size());
  }
}

// X.x is live across Top's visit of A, and A's subtree can redefine it only
// three protocol hops down a cycle of mutually recursive phyla:
// A -> B -> C -> (A | X). The phyla and productions are declared so that
// neither a forward nor a backward single sweep over protocols or visit
// sequences carries X's definition up to A; only a fixpoint that keeps
// propagating until nothing changes demotes X.x to a stack.
TEST(LifetimeTest, RedefinitionThroughProtocolCycleDemotesToStack) {
  auto Inc = [](std::span<const Value> A) {
    return Value::ofInt(A[0].asInt() + 1);
  };
  GrammarBuilder G("protocol-cycle");
  PhylumId Root = G.phylum("Root");
  PhylumId X = G.phylum("X");
  PhylumId B = G.phylum("B");
  PhylumId C = G.phylum("C");
  PhylumId A = G.phylum("A");
  AttrId Out = G.synthesized(Root, "out", "int");
  AttrId Xx = G.synthesized(X, "x", "int");
  AttrId Bw = G.synthesized(B, "w", "int");
  AttrId Cu = G.synthesized(C, "u", "int");
  AttrId Av = G.synthesized(A, "v", "int");

  ProdId Top = G.production("Top", Root, {X, A});
  G.rule(Top, GrammarBuilder::occ(0, Out),
         {GrammarBuilder::occ(1, Xx), GrammarBuilder::occ(2, Av)}, "add",
         [](std::span<const Value> V) {
           return Value::ofInt(V[0].asInt() + V[1].asInt());
         });
  ProdId AB = G.production("AB", A, {B});
  G.rule(AB, GrammarBuilder::occ(0, Av), {GrammarBuilder::occ(1, Bw)}, "inc",
         Inc);
  ProdId ALeaf = G.production("ALeaf", A, {});
  G.constant(ALeaf, GrammarBuilder::occ(0, Av), Value::ofInt(0));
  ProdId BC = G.production("BC", B, {C});
  G.rule(BC, GrammarBuilder::occ(0, Bw), {GrammarBuilder::occ(1, Cu)}, "inc",
         Inc);
  ProdId CA = G.production("CA", C, {A});
  G.rule(CA, GrammarBuilder::occ(0, Cu), {GrammarBuilder::occ(1, Av)}, "inc",
         Inc);
  ProdId CX = G.production("CX", C, {X});
  G.rule(CX, GrammarBuilder::occ(0, Cu), {GrammarBuilder::occ(1, Xx)}, "inc",
         Inc);
  ProdId XLeaf = G.production("XLeaf", X, {});
  G.constant(XLeaf, GrammarBuilder::occ(0, Xx), Value::ofInt(1));
  G.setStart(Root);
  DiagnosticEngine Diags;
  AttributeGrammar AG = G.finalize(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();

  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  StorageAssignment SA = analyzeStorage(AG, Plan);
  CompiledStorage CS(CP, SA);
  EXPECT_EQ(SA.classOfAttr(Xx), StorageClass::Stack);
  // The other attributes are never live across a visit that redefines them.
  EXPECT_EQ(SA.classOfAttr(Av), StorageClass::Variable);
  EXPECT_EQ(SA.classOfAttr(Out), StorageClass::Variable);

  // And the stack-allocated X.x evaluates like the reference.
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Top(XLeaf,AB(BC(CA(AB(BC(CX(XLeaf)))))))", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  StorageEvaluator SE(CP, CS);
  SE.setMirrorToTree(true);
  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
  EXPECT_EQ(T.root()->attrVal(AG.attr(Out).IndexInOwner).asInt(), 1 + 7);
}

TEST(StorageEvaluatorTest, MatchesReferenceOnDeskCalc) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  StorageAssignment SA = analyzeStorage(AG, Plan);
  CompiledStorage CS(CP, SA);
  Evaluator Ref(CP);
  StorageEvaluator SE(CP, CS);

  DiagnosticEngine D;
  Tree T = readTerm(
      AG, "Calc(Let<\"x\">(Num<2>,Add(Var<\"x\">,Let<\"y\">(Num<5>,"
          "Mul(Var<\"y\">,Var<\"x\">)))))",
      D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  ASSERT_TRUE(Ref.evaluate(T, D)) << D.dump();
  PhylumId Prog = AG.findPhylum("Prog");
  AttrId Result = AG.findAttr(Prog, "result");
  Value Expected = T.root()->attrVal(AG.attr(Result).IndexInOwner);
  EXPECT_EQ(Expected.asInt(), 12);

  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
  // result is variable-class: read it back through the tree mirror.
  SE.setMirrorToTree(true);
  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
  EXPECT_TRUE(
      Expected.equals(T.root()->attrVal(AG.attr(Result).IndexInOwner)));
}

class StorageAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(StorageAgreementTest, MirroredStorageRunMatchesReference) {
  auto [GrammarIdx, Seed] = GetParam();
  DiagnosticEngine Diags;
  AttributeGrammar AG = GrammarIdx == 0   ? workloads::deskCalculator(Diags)
                        : GrammarIdx == 1 ? workloads::binaryNumbers(Diags)
                        : GrammarIdx == 2 ? workloads::repmin(Diags)
                                          : workloads::oag1Grammar(Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  StorageAssignment SA = analyzeStorage(AG, Plan);
  CompiledStorage CS(CP, SA);
  Evaluator Ref(CP);
  StorageEvaluator SE(CP, CS);
  SE.setMirrorToTree(true);

  TreeGenerator Gen(AG, Seed);
  Tree T = Gen.generate(40 + (Seed * 29) % 160);
  DiagnosticEngine D;
  ASSERT_TRUE(Ref.evaluate(T, D)) << D.dump();

  // Snapshot every attribute instance from the reference run.
  std::vector<std::pair<TreeNode *, std::vector<Value>>> Snapshot;
  std::vector<TreeNode *> Work = {T.root()};
  while (!Work.empty()) {
    TreeNode *N = Work.back();
    Work.pop_back();
    Snapshot.emplace_back(N,
                          std::vector<Value>(N->Slots, N->Slots + N->FrameAttrs));
    for (auto &C : N->Children)
      Work.push_back(C.get());
  }

  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
  for (auto &[N, Vals] : Snapshot) {
    ASSERT_EQ(size_t(N->FrameAttrs), Vals.size());
    for (size_t I = 0; I != Vals.size(); ++I)
      EXPECT_TRUE(Vals[I].equals(N->attrVal(I)))
          << AG.Name << " node " << AG.prod(N->Prod).Name << " attr " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grammars, StorageAgreementTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

TEST(StorageEvaluatorTest, PeakCellsWellBelowTreeBaseline) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  StorageAssignment SA = analyzeStorage(AG, Plan);
  CompiledStorage CS(CP, SA);
  StorageEvaluator SE(CP, CS);
  TreeGenerator Gen(AG, 11);
  Tree T = Gen.generate(2000);
  DiagnosticEngine D;
  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
  const StorageStats &S = SE.stats();
  EXPECT_GT(S.TreeBaselineCells, 1000u);
  EXPECT_GT(S.reductionFactor(), 2.0)
      << "peak=" << S.PeakLiveCells << " baseline=" << S.TreeBaselineCells;
  EXPECT_GT(S.CopiesSkipped, 0u);
}

TEST(StorageEvaluatorTest, StacksDrainCompletely) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  StorageAssignment SA = analyzeStorage(AG, Plan);
  CompiledStorage CS(CP, SA);
  StorageEvaluator SE(CP, CS);
  TreeGenerator Gen(AG, 4);
  Tree T = Gen.generate(300);
  DiagnosticEngine D;
  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
  // Evaluate twice: stale state from the first run must not leak.
  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
}

// The storage evaluator executes every semantic rule the exhaustive one
// does (eliminated copies are counted as executed: their effect — a cell
// share — still happens), so RulesEvaluated must agree exactly on the same
// tree, and the stats must round-trip through the metrics registry.
TEST(StorageEvaluatorTest, RuleCountMatchesExhaustiveAndExports) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  StorageAssignment SA = analyzeStorage(AG, Plan);
  CompiledStorage CS(CP, SA);
  TreeGenerator Gen(AG, 31);
  Tree T = Gen.generate(250);
  Tree T2(AG);
  T2.setRoot(T.clone(T.root()));

  Evaluator Ref(CP);
  StorageEvaluator SE(CP, CS);
  DiagnosticEngine D;
  ASSERT_TRUE(Ref.evaluate(T, D)) << D.dump();
  ASSERT_TRUE(SE.evaluate(T2, D)) << D.dump();
  EXPECT_EQ(SE.stats().RulesEvaluated, Ref.stats().RulesEvaluated);

  MetricsRegistry R;
  SE.stats().exportTo(R);
  EXPECT_EQ(R.value("storage.rules_evaluated"), SE.stats().RulesEvaluated);
  EXPECT_EQ(R.value("storage.peak_live_cells"), SE.stats().PeakLiveCells);
  EXPECT_EQ(R.size(), StorageStats::schema().size());
}

// Reusing one evaluator across trees accumulates the baseline alongside
// the other counters instead of clobbering it to the last tree's value
// (the old behaviour, which inflated reductionFactor() on reuse), and the
// schema merge keeps the peak a maximum while everything else sums.
TEST(StorageEvaluatorTest, BaselineAccumulatesAcrossRunsAndMergeKinds) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  StorageAssignment SA = analyzeStorage(AG, Plan);
  CompiledStorage CS(CP, SA);
  StorageEvaluator SE(CP, CS);
  TreeGenerator Gen(AG, 12);
  Tree T = Gen.generate(150);
  DiagnosticEngine D;
  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
  StorageStats One = SE.stats();
  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
  EXPECT_EQ(SE.stats().TreeBaselineCells, 2 * One.TreeBaselineCells);
  EXPECT_EQ(SE.stats().RulesEvaluated, 2 * One.RulesEvaluated);
  EXPECT_EQ(SE.stats().PeakLiveCells, One.PeakLiveCells)
      << "identical runs share the same peak working set";

  StorageStats Merged = One;
  Merged.merge(One);
  EXPECT_EQ(Merged.TreeBaselineCells, 2 * One.TreeBaselineCells);
  EXPECT_EQ(Merged.PeakLiveCells, One.PeakLiveCells)
      << "the peak merges as a maximum, not a sum";
}

TEST(StorageIdMapTest, LocalsGetDistinctIds) {
  DiagnosticEngine Diags;
  GrammarBuilder B("with-locals");
  PhylumId X = B.phylum("X");
  AttrId S = B.synthesized(X, "s", "int");
  ProdId P = B.production("Leaf", X, {});
  AttrOcc L1 = B.local(P, "tmp1");
  AttrOcc L2 = B.local(P, "tmp2");
  B.constant(P, L1, Value::ofInt(1));
  B.rule(P, L2, {L1}, "inc", [](std::span<const Value> A) {
    return Value::ofInt(A[0].asInt() + 1);
  });
  B.rule(P, AttrOcc::onSymbol(0, S), {L2}, "id",
         [](std::span<const Value> A) { return A[0]; });
  B.setStart(X);
  AttributeGrammar AG = B.finalize(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();

  StorageIdMap Ids(AG);
  EXPECT_EQ(Ids.numIds(), 3u);
  EXPECT_NE(Ids.idOfLocal(P, 0), Ids.idOfLocal(P, 1));
  EXPECT_TRUE(Ids.isLocal(Ids.idOfLocal(P, 0)));
  EXPECT_FALSE(Ids.isLocal(Ids.idOfAttr(S)));
  EXPECT_NE(Ids.name(AG, Ids.idOfLocal(P, 1)).find("tmp2"), std::string::npos);

  // And the machinery evaluates locals correctly end to end.
  EvaluationPlan Plan = planFor(AG);
  CompiledPlan CP(Plan);
  StorageAssignment SA = analyzeStorage(AG, Plan);
  CompiledStorage CS(CP, SA);
  StorageEvaluator SE(CP, CS);
  SE.setMirrorToTree(true);
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Leaf", D);
  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
  EXPECT_EQ(T.root()->attrVal(0).asInt(), 2);
}

TEST(GroupingTest, GroupCountsNeverExceedClassCounts) {
  DiagnosticEngine Diags;
  AttributeGrammar Gs[] = {
      workloads::deskCalculator(Diags), workloads::binaryNumbers(Diags),
      workloads::repmin(Diags), workloads::oag1Grammar(Diags),
      workloads::dncNotOagGrammar(Diags)};
  ASSERT_FALSE(Diags.hasErrors());
  for (const AttributeGrammar &AG : Gs) {
    EvaluationPlan Plan = planFor(AG);
    StorageAssignment SA = analyzeStorage(AG, Plan);
    unsigned VarIds = 0, StackIds = 0;
    for (unsigned Id = 0; Id != SA.Ids.numIds(); ++Id) {
      VarIds += SA.ClassOf[Id] == StorageClass::Variable;
      StackIds += SA.ClassOf[Id] == StorageClass::Stack;
    }
    EXPECT_LE(SA.NumVarGroups, VarIds) << AG.Name;
    EXPECT_LE(SA.NumStackGroups, StackIds) << AG.Name;
    if (VarIds)
      EXPECT_GE(SA.NumVarGroups, 1u) << AG.Name;
  }
}

//===----------------------------------------------------------------------===//
// Golden storage assignments
//===----------------------------------------------------------------------===//

/// FNV-1a of a canonical encoding of the complete storage decision
/// (classes, groups, intervals, eliminated copies and the Table 1 counters)
/// together with the fingerprint of the compiled plan it was made for. The
/// encoding is local to this test, so the golden pins the space
/// optimization and not the artifact cache's byte layout.
uint64_t storageDigest(const GeneratedEvaluator &GE) {
  const StorageAssignment &SA = GE.Storage;
  serialize::ByteWriter W;
  W.u32(static_cast<uint32_t>(SA.ClassOf.size()));
  for (StorageClass C : SA.ClassOf)
    W.u8(static_cast<uint8_t>(C));
  W.u32(static_cast<uint32_t>(SA.GroupOf.size()));
  for (unsigned G : SA.GroupOf)
    W.u32(G);
  W.u32(SA.NumVarGroups);
  W.u32(SA.NumStackGroups);
  W.u32(static_cast<uint32_t>(SA.Intervals.size()));
  for (const LifetimeInterval &I : SA.Intervals) {
    W.u32(I.SeqIdx);
    W.u32(I.FlatId);
    W.u32(I.DefPos);
    W.u32(I.EndPos);
    W.u32(I.DefRule);
    W.boolean(I.CrossesVisit);
  }
  W.u32(static_cast<uint32_t>(SA.CopyEliminated.size()));
  for (bool B : SA.CopyEliminated)
    W.boolean(B);
  for (unsigned N : {SA.NumVariableAttrs, SA.NumStackAttrs, SA.NumTreeAttrs,
                     SA.TotalCopyRules, SA.EliminatedCopyRules,
                     SA.EliminableCopyRules})
    W.u32(N);
  W.u64(planFingerprint(GE.Compiled->CP));
  return serialize::fnv1a64(W.bytes());
}

/// One line per grammar: storageDigest() plus the readable Table 1
/// statistics, so a drift shows both that and where the space optimization
/// changed its decision.
std::string storageLine(const std::string &Name, const AttributeGrammar &AG,
                        unsigned OagK) {
  DiagnosticEngine GD;
  GeneratorOptions Opts;
  Opts.OagK = OagK;
  GeneratedEvaluator GE = generateEvaluator(AG, GD, Opts);
  if (!GE.Success) {
    ADD_FAILURE() << Name << ": generation failed\n" << GD.dump();
    return Name + " generation-failed\n";
  }
  const StorageAssignment &SA = GE.Storage;
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "%s fnv=%016llx vars=%u stacks=%u tree=%u var_groups=%u "
                "stack_groups=%u copies=%u eliminated=%u eliminable=%u\n",
                Name.c_str(),
                static_cast<unsigned long long>(storageDigest(GE)),
                SA.NumVariableAttrs, SA.NumStackAttrs, SA.NumTreeAttrs,
                SA.NumVarGroups, SA.NumStackGroups, SA.TotalCopyRules,
                SA.EliminatedCopyRules, SA.EliminableCopyRules);
  return Line;
}

std::string molgaStorageLine(const std::string &Name, const std::string &Src,
                             unsigned OagK) {
  DiagnosticEngine Diags;
  olga::CompileResult C = olga::compileMolga(Src, Diags);
  if (!C.Success || C.Grammars.size() != 1) {
    ADD_FAILURE() << Name << ": molga compile failed\n" << Diags.dump();
    return Name + " compile-failed\n";
  }
  return storageLine(Name, C.Grammars[0].AG, OagK);
}

const char *shapeTag(workloads::SpecGenOptions::Shape S) {
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

// Pins the complete storage decision on the classics, the system AGs,
// MiniPascal, the generator_scaling sweep in both class shapes and the
// FuzzSpecTest seeds. Any change to the space optimization that is meant
// to be a pure speedup must leave this golden byte-identical; regenerate
// with FNC2_UPDATE_GOLDENS=1 only for an intended change of decisions.
TEST(StorageGolden, AssignmentsMatchCommittedDigests) {
  using Shape = workloads::SpecGenOptions::Shape;
  std::string Actual;
  {
    DiagnosticEngine Diags;
    AttributeGrammar Desk = workloads::deskCalculator(Diags);
    AttributeGrammar Repmin = workloads::repmin(Diags);
    AttributeGrammar Pascal = workloads::miniPascal(Diags);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
    Actual += storageLine("desk", Desk, 0);
    Actual += storageLine("repmin", Repmin, 0);
    Actual += storageLine("minipascal", Pascal, 0);
  }
  for (const workloads::SystemAg &Ag : workloads::systemAgSuite())
    Actual += molgaStorageLine(Ag.Name, Ag.Source, Ag.OagK);

  // bench/generator_scaling's sweep.
  struct Point {
    const char *Name;
    unsigned Phyla, Ops, AttrPairs;
  };
  const Point Sweep[] = {{"S1", 8, 3, 2},
                         {"S2", 16, 4, 3},
                         {"S3", 28, 6, 4},
                         {"S4", 48, 8, 7}};
  for (Shape S : {Shape::Oag0, Shape::Dnc})
    for (const Point &P : Sweep) {
      workloads::SpecGenOptions O;
      O.Name = "Scale" + std::to_string(P.Phyla);
      O.Phyla = P.Phyla;
      O.OperatorsPerPhylum = P.Ops;
      O.AttrPairs = P.AttrPairs;
      O.ClassShape = S;
      O.Seed = 7;
      Actual += molgaStorageLine(std::string(P.Name) + "-" + shapeTag(S),
                                 workloads::generateMolgaSpec(O),
                                 S == Shape::Oag0 ? 0 : 1);
    }

  // FuzzSpecTest's seeds, with its options.
  for (Shape S : {Shape::Oag0, Shape::Oag1, Shape::Dnc})
    for (uint64_t Seed : {1u, 2u, 3u, 5u, 8u}) {
      workloads::SpecGenOptions O;
      O.Name = "Fuzz";
      O.Phyla = unsigned(4 + Seed % 4);
      O.OperatorsPerPhylum = 3;
      O.AttrPairs = unsigned(1 + Seed % 2);
      O.Funs = 4;
      O.ClassShape = S;
      O.Seed = Seed;
      Actual += molgaStorageLine(std::string("fuzz-") + shapeTag(S) +
                                     "-seed" + std::to_string(Seed),
                                 workloads::generateMolgaSpec(O),
                                 S == Shape::Oag0 ? 0 : 1);
    }

  const std::string Path =
      std::string(FNC2_GOLDEN_DIR) + "/storage_assignments.golden";
  if (std::getenv("FNC2_UPDATE_GOLDENS")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden " << Path
                         << " (regenerate with FNC2_UPDATE_GOLDENS=1)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Actual)
      << "storage assignments drifted from " << Path
      << " (if the change of decisions is intentional, regenerate with "
         "FNC2_UPDATE_GOLDENS=1)";
}

} // namespace
