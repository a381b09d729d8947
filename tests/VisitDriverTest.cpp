//===- tests/VisitDriverTest.cpp - one visit driver for four engines ------===//
//
// The per-tree, storage, incremental and merged engines run their visit
// sequences through one iterative driver (eval/VisitDriver.h). Two things
// follow, and this suite pins both:
//
//  * depth costs heap, not C++ stack: a deep chain (a million nodes; fewer
//    for the storage engine, whose cost is quadratic on it) evaluates with
//    every one of those engines on a thread with the default stack, with
//    the root value and every counter exactly what shallow chains predict;
//  * the "no visit sequence" failure is phrased once: every engine,
//    native included when a host compiler is present, reports the same
//    text whether the root or an inner node has no sequence.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeEvaluator.h"
#include "codegen/NativeMergedEvaluator.h"
#include "eval/MergedBatchSession.h"
#include "fnc2/Generator.h"
#include "grammar/GrammarBuilder.h"
#include "incremental/Incremental.h"
#include "storage/StorageEvaluator.h"
#include "workloads/ClassicGrammars.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include <unistd.h>

using namespace fnc2;

namespace {

AttrOcc occ(unsigned Pos, AttrId A) { return AttrOcc::onSymbol(Pos, A); }

/// Chain lists with two visits per node and only integer attributes:
///
///   Top(L) -> R      L.total := L.n        R.res := L.out
///   Step<k>(L) -> L  L0.n := L1.n + k      L1.total := L0.total
///                    L0.out := L1.out + L0.total - k
///   End<k> -> L      L.n := k              L.out := L.total - k
///
/// Visit 1 of an L node computes n bottom-up; visit 2 takes the total the
/// root feeds back down and computes out. With lexeme sum S over D list
/// nodes, the root's res is D * S - S.
struct ChainFixture {
  DiagnosticEngine GrammarDiags, GenDiags;
  AttributeGrammar AG;
  GeneratedEvaluator GE;
  ProdId Top = InvalidId, Step = InvalidId, End = InvalidId;

  ChainFixture() : AG(build(GrammarDiags)), GE(generateEvaluator(AG, GenDiags)) {
    EXPECT_FALSE(GrammarDiags.hasErrors()) << GrammarDiags.dump();
    EXPECT_TRUE(GE.Success) << GenDiags.dump();
    Top = AG.findProd("Top");
    Step = AG.findProd("Step");
    End = AG.findProd("End");
  }

  static AttributeGrammar build(DiagnosticEngine &Diags) {
    GrammarBuilder B("deep-chain");
    PhylumId R = B.phylum("R");
    PhylumId L = B.phylum("L");
    AttrId Res = B.synthesized(R, "res", "int");
    AttrId N = B.synthesized(L, "n", "int");
    AttrId Total = B.inherited(L, "total", "int");
    AttrId Out = B.synthesized(L, "out", "int");

    ProdId Top = B.production("Top", R, {L});
    B.copy(Top, occ(1, Total), occ(1, N));
    B.copy(Top, occ(0, Res), occ(1, Out));

    ProdId Step = B.production("Step", L, {L}, /*HasLexeme=*/true);
    B.rule(Step, occ(0, N), {occ(1, N), AttrOcc::lexeme()}, "add",
           [](std::span<const Value> A) {
             return Value::ofInt(A[0].asInt() + A[1].asInt());
           });
    B.copy(Step, occ(1, Total), occ(0, Total));
    B.rule(Step, occ(0, Out), {occ(1, Out), occ(0, Total), AttrOcc::lexeme()},
           "accumulate", [](std::span<const Value> A) {
             return Value::ofInt(A[0].asInt() + A[1].asInt() - A[2].asInt());
           });

    ProdId End = B.production("End", L, {}, /*HasLexeme=*/true);
    B.rule(End, occ(0, N), {AttrOcc::lexeme()}, "lexVal",
           [](std::span<const Value> A) { return A[0]; });
    B.rule(End, occ(0, Out), {occ(0, Total), AttrOcc::lexeme()}, "sub",
           [](std::span<const Value> A) {
             return Value::ofInt(A[0].asInt() - A[1].asInt());
           });

    B.setStart(R);
    return B.finalize(Diags);
  }

  /// Top over \p Depth list nodes, every lexeme 1, built bottom-up without
  /// recursion.
  Tree chain(unsigned Depth) const {
    Tree T(AG);
    std::unique_ptr<TreeNode> N = T.makeLeaf(End, Value::ofInt(1));
    for (unsigned I = 1; I != Depth; ++I) {
      std::vector<std::unique_ptr<TreeNode>> Kids;
      Kids.push_back(std::move(N));
      N = T.make(Step, std::move(Kids), Value::ofInt(1));
    }
    std::vector<std::unique_ptr<TreeNode>> Kids;
    Kids.push_back(std::move(N));
    T.setRoot(T.make(Top, std::move(Kids)));
    return T;
  }
};

const ChainFixture &chainFixture() {
  static const ChainFixture F;
  return F;
}

/// The list node with no children.
TreeNode *bottomLeaf(const Tree &T) {
  TreeNode *N = T.root();
  while (N->arity() != 0)
    N = N->child(0);
  return N;
}

/// R.res is R's only attribute, so it lives in slot 0.
int64_t rootRes(const Tree &T) { return T.root()->attrVal(0).asInt(); }

int64_t expectedRes(int64_t Depth, int64_t LexemeSum) {
  return Depth * LexemeSum - LexemeSum;
}

/// Runs \p Body on a fresh thread with the platform's default stack.
template <typename F> void onDefaultStack(F Body) {
  std::thread Th(Body);
  Th.join();
}

/// Every counter is affine in the chain depth: checks \p Got, taken at
/// \p Depth, against the line through the same engine's counters at depths
/// 4 (\p At4) and 5 (\p At5).
template <typename S>
void expectAffine(const S &Got, uint64_t Depth, const S &At4, const S &At5) {
  for (const CounterField<S> &F : S::schema()) {
    const uint64_t Slope = At5.*(F.Member) - At4.*(F.Member);
    EXPECT_EQ(Got.*(F.Member), At4.*(F.Member) + (Depth - 4) * Slope)
        << F.Name << " at depth " << Depth;
  }
}

// A million list nodes. When each engine recursed once per tree level, an
// 8 MiB stack held fewer than 30000 levels of the storage engine's walk.
constexpr unsigned kDeep = 1000000;

// The storage engine costs time quadratic in this chain's depth, driver or
// not: each level's synthesized n outlives the cells below it, so the
// stack groups keep one dead cell per level under the live top, and every
// VISIT's return rescans them for survivors. Twice the depth that
// overflowed the recursive walk keeps the test to a few seconds.
constexpr unsigned kStorageDeep = 60000;

//===----------------------------------------------------------------------===//
// Deep chains
//===----------------------------------------------------------------------===//

// The tree layer's own walks at the same depth: adoption (setRoot), size,
// validation, reset, clone and teardown.
TEST(DeepChain, TreeWalks) {
  onDefaultStack([] {
    const ChainFixture &F = chainFixture();
    Tree T = F.chain(kDeep);
    EXPECT_EQ(T.size(), kDeep + 1);
    DiagnosticEngine D;
    EXPECT_TRUE(T.validate(D)) << D.dump();
    T.resetAttributes();
    Tree Copy(F.AG);
    Copy.setRoot(Copy.clone(T.root()));
    EXPECT_EQ(Copy.size(), kDeep + 1);
    EXPECT_EQ(bottomLeaf(Copy)->Lexeme.asInt(), 1);
  });
}

EvalStats evalChain(unsigned Depth, int64_t &Res) {
  const ChainFixture &F = chainFixture();
  Tree T = F.chain(Depth);
  Evaluator E(F.GE.Compiled->CP);
  DiagnosticEngine D;
  EXPECT_TRUE(E.evaluate(T, D)) << D.dump();
  Res = rootRes(T);
  return E.stats();
}

TEST(DeepChain, PerTreeEvaluator) {
  int64_t Res4, Res5, Res = 0;
  const EvalStats At4 = evalChain(4, Res4), At5 = evalChain(5, Res5);
  EXPECT_EQ(Res4, expectedRes(4, 4));
  EXPECT_EQ(At4.VisitsPerformed, 1u + 2u * 4u);
  EvalStats Deep;
  onDefaultStack([&] { Deep = evalChain(kDeep, Res); });
  EXPECT_EQ(Res, expectedRes(kDeep, kDeep));
  expectAffine(Deep, kDeep, At4, At5);
}

StorageStats storageChain(unsigned Depth, int64_t &Res) {
  const ChainFixture &F = chainFixture();
  Tree T = F.chain(Depth);
  StorageEvaluator SE(F.GE.Compiled->CP, F.GE.Compiled->CS);
  // The optimizer may keep R.res out of the tree; mirroring every write
  // into the frames makes the root value readable.
  SE.setMirrorToTree(true);
  DiagnosticEngine D;
  EXPECT_TRUE(SE.evaluate(T, D)) << D.dump();
  Res = rootRes(T);
  return SE.stats();
}

TEST(DeepChain, StorageEvaluator) {
  int64_t Res4, Res5, Res = 0;
  const StorageStats At4 = storageChain(4, Res4), At5 = storageChain(5, Res5);
  EXPECT_EQ(Res4, expectedRes(4, 4));
  StorageStats Deep;
  onDefaultStack([&] { Deep = storageChain(kStorageDeep, Res); });
  EXPECT_EQ(Res, expectedRes(kStorageDeep, kStorageDeep));
  expectAffine(Deep, kStorageDeep, At4, At5);
}

/// Initial evaluation, then the bottom leaf's lexeme goes from 1 to 5 and
/// \p Strategy brings the attribution up to date. Returns the update's
/// counters.
IncrementalStats incrementalChain(unsigned Depth, UpdateStrategy Strategy,
                                  int64_t &InitialRes, int64_t &Res) {
  const ChainFixture &F = chainFixture();
  Tree T = F.chain(Depth);
  IncrementalEvaluator IE(F.GE.Compiled->CP);
  DiagnosticEngine D;
  EXPECT_TRUE(IE.initial(T, D)) << D.dump();
  InitialRes = rootRes(T);
  IE.changeLeafValue(T, bottomLeaf(T), Value::ofInt(5));
  IE.resetStats();
  EXPECT_TRUE(IE.update(T, D, Strategy)) << D.dump();
  Res = rootRes(T);
  return IE.stats();
}

void checkIncremental(UpdateStrategy Strategy) {
  int64_t Init4, Res4, Init5, Res5, Init = 0, Res = 0;
  const IncrementalStats At4 = incrementalChain(4, Strategy, Init4, Res4);
  const IncrementalStats At5 = incrementalChain(5, Strategy, Init5, Res5);
  EXPECT_EQ(Init4, expectedRes(4, 4));
  EXPECT_EQ(Res4, expectedRes(4, 8));
  IncrementalStats Deep;
  onDefaultStack(
      [&] { Deep = incrementalChain(kDeep, Strategy, Init, Res); });
  EXPECT_EQ(Init, expectedRes(kDeep, kDeep));
  EXPECT_EQ(Res, expectedRes(kDeep, kDeep + 4));
  expectAffine(Deep, kDeep, At4, At5);
}

TEST(DeepChain, IncrementalFromRoot) {
  checkIncremental(UpdateStrategy::FromRoot);
}

TEST(DeepChain, IncrementalStartAnywhere) {
  checkIncremental(UpdateStrategy::StartAnywhere);
}

/// One tree through a resident session that merges singleton cohorts.
/// Returns the round's counters; \p LaneRes is read from the resident
/// root lane, \p Res from the tree after flush().
EvalStats mergedChain(unsigned Depth, int64_t &LaneRes, int64_t &Res) {
  const ChainFixture &F = chainFixture();
  std::vector<Tree> Trees;
  Trees.push_back(F.chain(Depth));
  ThreadPool Pool(1);
  MergedBatchSession S(F.GE.Compiled->CP, Pool);
  S.setCohortThreshold(1);
  S.bind(Trees);
  const SessionResult R = S.evaluate();
  EXPECT_TRUE(R.allSucceeded());
  EXPECT_EQ(S.mergedStats().TreesMerged, 1u);
  LaneRes = S.rootSlot(0, 0).asInt();
  S.flush();
  Res = rootRes(Trees[0]);
  return R.Stats;
}

TEST(DeepChain, MergedSession) {
  int64_t Lane = 0, Res = 0, Unused = 0;
  // The merged counters fold to the per-tree engine's, so the line comes
  // from the per-tree evaluator.
  const EvalStats At4 = evalChain(4, Unused), At5 = evalChain(5, Unused);
  EvalStats Deep;
  onDefaultStack([&] { Deep = mergedChain(kDeep, Lane, Res); });
  EXPECT_EQ(Lane, expectedRes(kDeep, kDeep));
  EXPECT_EQ(Res, expectedRes(kDeep, kDeep));
  expectAffine(Deep, kDeep, At4, At5);
}

//===----------------------------------------------------------------------===//
// The missing-sequence diagnostic
//===----------------------------------------------------------------------===//

/// The desk calculator's plan with every sequence of one production taken
/// out of the sequence table, so that evaluating a tree which applies it
/// hits the missing-sequence failure: at the root when the production is
/// Calc, at a VISIT when it is Num.
struct MissingSeqFixture {
  DiagnosticEngine GrammarDiags, GenDiags;
  AttributeGrammar AG;
  GeneratedEvaluator GE;
  CompiledPlan CP;
  std::string Expected;

  explicit MissingSeqFixture(const char *Missing)
      : AG(workloads::deskCalculator(GrammarDiags)),
        GE(generateEvaluator(AG, GenDiags)), CP(GE.Plan) {
    EXPECT_TRUE(GE.Success) << GenDiags.dump();
    const ProdId P = AG.findProd(Missing);
    for (unsigned Part = 0; Part != CP.MaxPartition; ++Part)
      CP.SeqTable[size_t(P) * CP.MaxPartition + Part] = -1;
    Expected = "error: no visit sequence for operator '" +
               std::string(Missing) + "' under partition 0\n";
  }

  Tree tree() const {
    DiagnosticEngine D;
    Tree T = readTerm(AG, "Calc(Add(Num<1>,Num<2>))", D);
    EXPECT_FALSE(D.hasErrors()) << D.dump();
    return T;
  }
};

/// Every engine fails the tree with the same single diagnostic.
void expectOneMessage(const MissingSeqFixture &F) {
  {
    Tree T = F.tree();
    Evaluator E(F.CP);
    DiagnosticEngine D;
    EXPECT_FALSE(E.evaluate(T, D));
    EXPECT_EQ(D.dump(), F.Expected) << "per-tree";
  }
  {
    Tree T = F.tree();
    CompiledStorage CS(F.CP, F.GE.Storage);
    StorageEvaluator SE(F.CP, CS);
    DiagnosticEngine D;
    EXPECT_FALSE(SE.evaluate(T, D));
    EXPECT_EQ(D.dump(), F.Expected) << "storage";
  }
  {
    // initial() fails in its exhaustive evaluation. A fresh copy of the
    // root's son then sends the update from the root through the
    // incremental engine's own walk down to the same failure.
    Tree T = F.tree();
    IncrementalEvaluator IE(F.CP);
    DiagnosticEngine D1, D2;
    EXPECT_FALSE(IE.initial(T, D1));
    EXPECT_EQ(D1.dump(), F.Expected) << "incremental initial";
    TreeNode *Son = T.root()->child(0);
    IE.replaceSubtree(T, Son, T.clone(Son));
    EXPECT_FALSE(IE.update(T, D2, UpdateStrategy::FromRoot));
    EXPECT_EQ(D2.dump(), F.Expected) << "incremental update";
  }
  {
    std::vector<Tree> Trees;
    Trees.push_back(F.tree());
    ThreadPool Pool(1);
    MergedBatchSession S(F.CP, Pool);
    S.setCohortThreshold(1);
    S.bind(Trees);
    const SessionResult R = S.evaluate();
    ASSERT_EQ(R.Failures.size(), 1u);
    EXPECT_EQ("error: " + R.Failures[0].second + "\n", F.Expected)
        << "merged";
  }

  if (!NativeBackend::available())
    return; // No host compiler: the interpreted engines are checked.
  // A private, memo-less cache: the native key does not cover the
  // sequence table, so the shared cache would hand out the intact plan's
  // module (or keep this broken one for the intact plan).
  const std::string Dir = ::testing::TempDir() + "fnc2-missing-seq-" +
                          std::to_string(::getpid());
  NativeBackend Backend({Dir, /*UseMemo=*/false});
  NativeBuildResult B = Backend.build(F.AG, F.CP);
  ASSERT_TRUE(B.Module) << B.Reason;
  {
    Tree T = F.tree();
    NativeEvaluator NE(F.CP, B.Module);
    DiagnosticEngine D;
    EXPECT_FALSE(NE.evaluate(T, D));
    EXPECT_EQ(D.dump(), F.Expected) << "native";
  }
  {
    std::vector<Tree> Trees;
    Trees.push_back(F.tree());
    ThreadPool Pool(1);
    MergedBatchSession S(F.CP, Pool);
    NativeCohortKernel K(F.CP, B.Module);
    S.setKernel(&K);
    S.setCohortThreshold(1);
    S.bind(Trees);
    const SessionResult R = S.evaluate();
    ASSERT_EQ(R.Failures.size(), 1u);
    EXPECT_EQ("error: " + R.Failures[0].second + "\n", F.Expected)
        << "native merged";
  }
  std::filesystem::remove_all(Dir);
}

TEST(MissingSequence, AtTheRoot) { expectOneMessage(MissingSeqFixture("Calc")); }

TEST(MissingSequence, AtAVisit) { expectOneMessage(MissingSeqFixture("Num")); }

// A failed initial() leaves a partial attribution, which the incremental
// cutoffs would take for a settled one: the root's son already has a frame
// and nothing below it is dirty. An update() with no edits must instead
// rerun the whole pass and fail again with the same diagnostic, each time.
TEST(MissingSequence, UpdateAfterAFailedInitialFailsAgain) {
  const MissingSeqFixture F("Num");
  Tree T = F.tree();
  IncrementalEvaluator IE(F.CP);
  DiagnosticEngine D0;
  EXPECT_FALSE(IE.initial(T, D0));
  EXPECT_EQ(D0.dump(), F.Expected) << "initial";
  for (UpdateStrategy S :
       {UpdateStrategy::FromRoot, UpdateStrategy::StartAnywhere}) {
    DiagnosticEngine D;
    EXPECT_FALSE(IE.update(T, D, S));
    EXPECT_EQ(D.dump(), F.Expected) << "update";
  }
}

} // namespace
