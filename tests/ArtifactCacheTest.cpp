//===- tests/ArtifactCacheTest.cpp - persistent artifact cache ------------===//
//
// The artifact cache's three promises, each pinned here:
//
//  * Fidelity — a stored-then-loaded artifact is indistinguishable from the
//    generation it came from: every stored verdict and transform, and every
//    visit sequence, compiled stream and storage table re-derived from
//    them, compares equal, re-encoding is byte-exact, and all six evaluator
//    engines attribute trees identically from the loaded plan (round-trip
//    differential over the classics and the seeded SpecGen system sweep).
//  * Robustness — corrupted files (byte flips, truncations at every length
//    including all section boundaries, version bumps, old-format files,
//    stale keys, CRC-valid but inconsistent transforms) are rejected with a
//    diagnostic, never crash, and fall back to regeneration. Runs under
//    ASan/UBSan in CI.
//  * Atomicity — writers racing on one cache directory through the
//    temp-file + rename protocol leave exactly one valid artifact and
//    never make a reader observe a torn file. Runs under TSan in CI.
//
// The golden test additionally pins the on-disk byte layout: any layout
// change must bump kGeneratorArtifactVersion and regenerate the golden
// (FNC2_UPDATE_GOLDENS=1).
//
//===----------------------------------------------------------------------===//

#include "FamilyCheck.h"
#include "olga/Driver.h"
#include "serialize/ArtifactFile.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/SpecGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace fnc2;
using namespace fnc2::testutil;

namespace {

namespace fs = std::filesystem;

/// A fresh per-test cache directory under the gtest temp dir.
std::string freshCacheDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "fnc2-artifact-" + Tag;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return {std::istreambuf_iterator<char>(In), std::istreambuf_iterator<char>()};
}

void writeFile(const std::string &Path, std::span<const uint8_t> Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out.good()) << Path;
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

/// Asserts the loaded evaluator \p Got is structurally identical to the
/// fresh generation \p Ref, layer by layer.
void expectSameGeneration(const GeneratedEvaluator &Ref,
                          const GeneratedEvaluator &Got) {
  ASSERT_TRUE(Got.Success);
  EXPECT_TRUE(Got.FromCache);
  EXPECT_TRUE(Ref.Classes == Got.Classes) << "analysis verdicts drifted";
  EXPECT_TRUE(Ref.Transform == Got.Transform) << "transform drifted";
  EXPECT_TRUE(Ref.Plan == Got.Plan) << "evaluation plan drifted";
  EXPECT_TRUE(Ref.Storage == Got.Storage) << "storage assignment drifted";

  // The loaded compiled image equals a private compilation from the same
  // plan, pool by pool (CompiledRule::Fn compares by address — both
  // sides resolve into the same live grammar).
  ASSERT_TRUE(Got.Compiled != nullptr);
  const CompiledPlan &CP = Got.Compiled->CP;
  CompiledPlan Fresh(Ref.Plan);
  EXPECT_TRUE(CP.Instrs == Fresh.Instrs);
  EXPECT_TRUE(CP.BeginOfs == Fresh.BeginOfs);
  EXPECT_TRUE(CP.Rules == Fresh.Rules);
  EXPECT_TRUE(CP.ById == Fresh.ById);
  EXPECT_TRUE(CP.Args == Fresh.Args);
  EXPECT_TRUE(CP.Seqs == Fresh.Seqs);
  EXPECT_TRUE(CP.SeqTable == Fresh.SeqTable);
  EXPECT_EQ(CP.MaxPartition, Fresh.MaxPartition);
  EXPECT_TRUE(CP.Frames == Fresh.Frames);
  EXPECT_EQ(CP.MaxRuleArgs, Fresh.MaxRuleArgs);
  EXPECT_TRUE(CP.InhByPhylum == Fresh.InhByPhylum);
  EXPECT_TRUE(CP.SynByPhylum == Fresh.SynByPhylum);
  if (Got.Compiled->HasStorage) {
    CompiledStorage FreshCS(Fresh, Ref.Storage);
    EXPECT_TRUE(Got.Compiled->CS == FreshCS);
  }
}

using GrammarFactory = AttributeGrammar (*)(DiagnosticEngine &);

struct ClassicCase {
  const char *Name;
  GrammarFactory Make;
  unsigned TreeSize;
};

// Names the case in test listings; the default byte dump would embed the
// load address of Name and Make, so the listed name would change per build.
void PrintTo(const ClassicCase &C, std::ostream *OS) { *OS << C.Name; }

class ArtifactRoundTripTest : public ::testing::TestWithParam<ClassicCase> {};

// generate -> encode -> decode: verdicts, sequences, streams and storage
// equal; re-encoding the loaded artifact is byte-exact; all six engines
// attribute identically from the loaded plan (including ones borrowing the
// loaded compiled image).
TEST_P(ArtifactRoundTripTest, LoadedArtifactMatchesGeneration) {
  const ClassicCase &C = GetParam();
  DiagnosticEngine Diags;
  AttributeGrammar AG = C.Make(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  DiagnosticEngine GD;
  GeneratorOptions Opts;
  Opts.OagK = 1;
  GeneratedEvaluator Ref = generateEvaluator(AG, GD, Opts);
  ASSERT_TRUE(Ref.Success) << GD.dump();

  std::vector<uint8_t> Bytes = ArtifactCache::encode(AG, Opts, Ref);
  GeneratedEvaluator Got;
  std::string Reason;
  ASSERT_TRUE(ArtifactCache::decode(Bytes, AG, Opts, Got, Reason)) << Reason;
  expectSameGeneration(Ref, Got);

  EXPECT_EQ(ArtifactCache::encode(AG, Opts, Got), Bytes)
      << "re-encoding a loaded artifact must be byte-exact";

  runFamily(AG, Got, 4, C.TreeSize, 11);
}

INSTANTIATE_TEST_SUITE_P(
    Grammars, ArtifactRoundTripTest,
    ::testing::Values(ClassicCase{"desk", workloads::deskCalculator, 120},
                      ClassicCase{"binary", workloads::binaryNumbers, 120},
                      ClassicCase{"repmin", workloads::repmin, 120},
                      ClassicCase{"twoctx", workloads::twoContextGrammar, 20},
                      ClassicCase{"dnc", workloads::dncNotOagGrammar, 40},
                      ClassicCase{"oag1", workloads::oag1Grammar, 40}),
    [](const ::testing::TestParamInfo<ClassicCase> &I) {
      return I.param.Name;
    });

// The seeded SpecGen system sweep: molga-compiled grammars round-trip too.
TEST(ArtifactCacheTest, SpecGenSweepRoundTrips) {
  for (const workloads::SystemAg &Ag : workloads::systemAgSuite()) {
    DiagnosticEngine Diags;
    olga::CompileResult C = olga::compileMolga(Ag.Source, Diags);
    ASSERT_TRUE(C.Success) << Ag.Name << ": " << Diags.dump();
    const AttributeGrammar &AG = C.Grammars[0].AG;
    DiagnosticEngine GD;
    GeneratorOptions Opts;
    Opts.OagK = Ag.OagK;
    GeneratedEvaluator Ref = generateEvaluator(AG, GD, Opts);
    ASSERT_TRUE(Ref.Success) << Ag.Name << ": " << GD.dump();

    std::vector<uint8_t> Bytes = ArtifactCache::encode(AG, Opts, Ref);
    GeneratedEvaluator Got;
    std::string Reason;
    ASSERT_TRUE(ArtifactCache::decode(Bytes, AG, Opts, Got, Reason))
        << Ag.Name << ": " << Reason;
    expectSameGeneration(Ref, Got);
    EXPECT_EQ(ArtifactCache::encode(AG, Opts, Got), Bytes) << Ag.Name;
    runFamily(AG, Got, 2, 120, 23);
  }
}

// SpaceOptimize=false artifacts carry no storage sections and still load.
TEST(ArtifactCacheTest, RoundTripsWithoutSpaceOptimization) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors());
  DiagnosticEngine GD;
  GeneratorOptions Opts;
  Opts.SpaceOptimize = false;
  GeneratedEvaluator Ref = generateEvaluator(AG, GD, Opts);
  ASSERT_TRUE(Ref.Success) << GD.dump();

  std::vector<uint8_t> Bytes = ArtifactCache::encode(AG, Opts, Ref);
  GeneratedEvaluator Got;
  std::string Reason;
  ASSERT_TRUE(ArtifactCache::decode(Bytes, AG, Opts, Got, Reason)) << Reason;
  ASSERT_TRUE(Got.Compiled != nullptr);
  EXPECT_FALSE(Got.Compiled->HasStorage);
  EXPECT_TRUE(Ref.Plan == Got.Plan);
}

//===----------------------------------------------------------------------===//
// The generator integration: miss -> store -> hit through the filesystem.
//===----------------------------------------------------------------------===//

TEST(ArtifactCacheTest, GeneratorMissStoreHitFlow) {
  const std::string Dir = freshCacheDir("flow");
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors());

  GeneratorOptions Opts;
  Opts.CacheDir = Dir;
  DiagnosticEngine D1;
  GeneratedEvaluator Cold = generateEvaluator(AG, D1, Opts);
  ASSERT_TRUE(Cold.Success) << D1.dump();
  EXPECT_FALSE(Cold.FromCache);
  EXPECT_TRUE(Cold.Compiled != nullptr)
      << "a cold generation carries the compiled bundle";

  DiagnosticEngine D2;
  GeneratedEvaluator Warm = generateEvaluator(AG, D2, Opts);
  ASSERT_TRUE(Warm.Success) << D2.dump();
  EXPECT_TRUE(Warm.FromCache);
  EXPECT_TRUE(Cold.Plan == Warm.Plan);
  EXPECT_TRUE(Cold.Classes == Warm.Classes);
  EXPECT_TRUE(Cold.Storage == Warm.Storage);
  // Loaded evaluators report zero phase times: nothing was computed.
  EXPECT_EQ(Warm.Times.total(), 0.0);

  // The warm evaluator is fully usable.
  runFamily(AG, Warm, 3, 100, 11);
}

TEST(ArtifactCacheTest, CachelessGenerationCarriesTheCompiledBundle) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors());

  // No cache directory: the generator still builds the bundle every
  // engine borrows, anchored to the bundle's own plan copy.
  GeneratorOptions NoCache;
  DiagnosticEngine D1;
  GeneratedEvaluator Plain = generateEvaluator(AG, D1, NoCache);
  ASSERT_TRUE(Plain.Success) << D1.dump();
  EXPECT_FALSE(Plain.FromCache);
  ASSERT_TRUE(Plain.Compiled != nullptr);
  EXPECT_EQ(&Plain.Compiled->CP.plan(), &Plain.Compiled->Plan);
  EXPECT_TRUE(Plain.Compiled->HasStorage);

  // It is the same generation a cold run through the cache stores.
  GeneratorOptions Cached;
  Cached.CacheDir = freshCacheDir("cacheless");
  DiagnosticEngine D2;
  GeneratedEvaluator Cold = generateEvaluator(AG, D2, Cached);
  ASSERT_TRUE(Cold.Success) << D2.dump();
  EXPECT_FALSE(Cold.FromCache);
  EXPECT_EQ(ArtifactCache::encode(AG, NoCache, Plain),
            ArtifactCache::encode(AG, Cached, Cold));
}

TEST(ArtifactCacheTest, KeyedAndKeylessGenerationShareOneArtifact) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors());
  GeneratorOptions Opts;
  const uint64_t Key = ArtifactCache::artifactKey(AG, Opts);

  // Either entry point stores the file the other one then hits.
  for (bool KeyedFirst : {true, false}) {
    Opts.CacheDir = freshCacheDir(KeyedFirst ? "keyed" : "keyless");
    const std::string Path = ArtifactCache(Opts.CacheDir).pathFor(Key);
    auto Generate = [&](bool Keyed) {
      DiagnosticEngine D;
      GeneratedEvaluator G = Keyed ? generateEvaluator(AG, D, Opts, Key)
                                   : generateEvaluator(AG, D, Opts);
      EXPECT_TRUE(G.Success) << D.dump();
      return G;
    };
    GeneratedEvaluator Cold = Generate(KeyedFirst);
    EXPECT_FALSE(Cold.FromCache);
    ASSERT_TRUE(fs::exists(Path)) << "stored under artifactKey's file name";
    const std::vector<uint8_t> Stored = readFile(Path);

    GeneratedEvaluator Warm = Generate(!KeyedFirst);
    EXPECT_TRUE(Warm.FromCache);
    EXPECT_TRUE(Cold.Plan == Warm.Plan);
    EXPECT_EQ(std::distance(fs::directory_iterator(Opts.CacheDir),
                            fs::directory_iterator()),
              1);
    EXPECT_EQ(readFile(Path), Stored) << "a hit leaves the file untouched";
  }
}

TEST(ArtifactCacheTest, KeySeparatesGrammarsAndOptions) {
  DiagnosticEngine Diags;
  AttributeGrammar Desk = workloads::deskCalculator(Diags);
  AttributeGrammar Repmin = workloads::repmin(Diags);
  ASSERT_FALSE(Diags.hasErrors());

  GeneratorOptions A;
  EXPECT_NE(ArtifactCache::artifactKey(Desk, A),
            ArtifactCache::artifactKey(Repmin, A));

  GeneratorOptions B = A;
  B.SpaceOptimize = false;
  EXPECT_NE(ArtifactCache::artifactKey(Desk, A),
            ArtifactCache::artifactKey(Desk, B));
  GeneratorOptions C = A;
  C.OagK = 3;
  EXPECT_NE(ArtifactCache::artifactKey(Desk, A),
            ArtifactCache::artifactKey(Desk, C));

  // The fixpoint formulation does not affect generator output and must not
  // split the key.
  GeneratorOptions D = A;
  D.Gfa.NaiveFixpoint = true;
  EXPECT_EQ(ArtifactCache::artifactKey(Desk, A),
            ArtifactCache::artifactKey(Desk, D));
  // Neither does the cache directory itself.
  GeneratorOptions E = A;
  E.CacheDir = "/somewhere/else";
  EXPECT_EQ(ArtifactCache::artifactKey(Desk, A),
            ArtifactCache::artifactKey(Desk, E));
}

// A grammar edit changes the key: the stale artifact is simply never
// consulted (a miss, not a reject), the mkfnc2 invalidation discipline.
TEST(ArtifactCacheTest, GrammarEditInvalidates) {
  const std::string Dir = freshCacheDir("invalidate");
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors());

  GeneratorOptions Opts;
  Opts.CacheDir = Dir;
  DiagnosticEngine D1;
  ASSERT_TRUE(generateEvaluator(AG, D1, Opts).Success);

  // Rename a semantic function: content hash moves.
  AttributeGrammar Edited = AG;
  ASSERT_FALSE(Edited.Rules.empty());
  Edited.Rules[0].FnName += "_v2";
  ArtifactCache Cache(Dir);
  EXPECT_NE(ArtifactCache::artifactKey(AG, Opts),
            ArtifactCache::artifactKey(Edited, Opts));
  GeneratedEvaluator G;
  std::string Reason;
  EXPECT_EQ(Cache.load(Edited, Opts, G, Reason), CacheLookup::Miss);
}

//===----------------------------------------------------------------------===//
// Corruption injection: every mutilation is a clean reject + regeneration.
//===----------------------------------------------------------------------===//

class ArtifactCorruptionTest : public ::testing::Test {
protected:
  void SetUp() override {
    DiagnosticEngine Diags;
    AG = workloads::deskCalculator(Diags);
    ASSERT_FALSE(Diags.hasErrors());
    DiagnosticEngine GD;
    Ref = generateEvaluator(AG, GD, Opts);
    ASSERT_TRUE(Ref.Success) << GD.dump();
    Bytes = ArtifactCache::encode(AG, Opts, Ref);
    ASSERT_FALSE(Bytes.empty());
  }

  /// The corrupted image must be rejected with a diagnostic and must leave
  /// the output evaluator untouched.
  void expectReject(std::span<const uint8_t> Bad, const std::string &What) {
    GeneratedEvaluator G;
    std::string Reason;
    EXPECT_FALSE(ArtifactCache::decode(Bad, AG, Opts, G, Reason)) << What;
    EXPECT_FALSE(Reason.empty()) << What;
    EXPECT_FALSE(G.Success) << What << ": rejected decode wrote output";
  }

  AttributeGrammar AG;
  GeneratorOptions Opts;
  GeneratedEvaluator Ref;
  std::vector<uint8_t> Bytes;
};

TEST_F(ArtifactCorruptionTest, EveryByteFlipRejected) {
  for (size_t I = 0; I != Bytes.size(); ++I) {
    std::vector<uint8_t> Bad = Bytes;
    Bad[I] ^= 0xA5;
    expectReject(Bad, "flip at byte " + std::to_string(I));
  }
}

TEST_F(ArtifactCorruptionTest, EveryTruncationRejected) {
  // Every prefix, which subsumes truncation at every section boundary.
  for (size_t Len = 0; Len != Bytes.size(); ++Len)
    expectReject(std::span(Bytes).first(Len),
                 "truncation to " + std::to_string(Len));
}

TEST_F(ArtifactCorruptionTest, SectionBoundaryTruncationsRejected) {
  // Parse the table to name the exact payload boundaries, and check the
  // cut at each one (the off-by-one the contiguity equation exists for).
  ASSERT_GE(Bytes.size(), 28u);
  auto U32 = [&](size_t O) {
    return uint32_t(Bytes[O]) | uint32_t(Bytes[O + 1]) << 8 |
           uint32_t(Bytes[O + 2]) << 16 | uint32_t(Bytes[O + 3]) << 24;
  };
  auto U64 = [&](size_t O) {
    return uint64_t(U32(O)) | uint64_t(U32(O + 4)) << 32;
  };
  uint32_t N = U32(20);
  ASSERT_EQ(N, 3u) << "expected the meta, classify and transform sections";
  for (uint32_t I = 0; I != N; ++I) {
    size_t Entry = 28 + size_t(I) * 24;
    uint64_t Offset = U64(Entry + 4), Size = U64(Entry + 12);
    ASSERT_LE(Offset + Size, Bytes.size());
    expectReject(std::span(Bytes).first(Offset),
                 "cut at start of section " + std::to_string(U32(Entry)));
    expectReject(std::span(Bytes).first(Offset + Size - 1),
                 "cut one byte short of section " + std::to_string(U32(Entry)));
  }
}

TEST_F(ArtifactCorruptionTest, VersionBumpRejected) {
  // A future format version must be a clean miss even with valid CRCs:
  // rebuild the container at version+1 around the original sections.
  serialize::ArtifactReader R;
  std::string Reason;
  ASSERT_TRUE(R.open(Bytes, ArtifactCache::artifactKey(AG, Opts), Reason,
                     kGeneratorArtifactVersion));
  serialize::ArtifactWriter W(ArtifactCache::artifactKey(AG, Opts),
                              kGeneratorArtifactVersion + 1);
  for (uint32_t Id = 1; Id <= 7; ++Id)
    if (R.hasSection(Id)) {
      serialize::ByteReader S = R.section(Id);
      serialize::ByteWriter &Out = W.section(Id);
      while (S.remaining())
        Out.u8(S.u8());
    }
  std::vector<uint8_t> Bumped = W.finish();
  GeneratedEvaluator G;
  std::string Why;
  EXPECT_FALSE(ArtifactCache::decode(Bumped, AG, Opts, G, Why));
  EXPECT_NE(Why.find("version"), std::string::npos) << Why;
}

TEST_F(ArtifactCorruptionTest, OldFormatArtifactRejectedAndReplaced) {
  // A version-1 file — the layout that also stored the plan, the compiled
  // streams and the storage tables in sections 4-7 — is refused by the
  // container check, regenerated over, and the next load hits.
  const std::string Dir = freshCacheDir("old-format");
  const uint64_t Key = ArtifactCache::artifactKey(AG, Opts);
  serialize::ArtifactReader R;
  std::string Reason;
  ASSERT_TRUE(R.open(Bytes, Key, Reason, kGeneratorArtifactVersion));
  serialize::ArtifactWriter W(Key, /*Version=*/1);
  for (uint32_t Id = 1; Id <= 7; ++Id) {
    serialize::ByteWriter &Out = W.section(Id);
    for (serialize::ByteReader S = R.section(Id); S.remaining();)
      Out.u8(S.u8());
    if (Id > 3)
      Out.u32(0); // an empty table stands in for each retired section
  }
  ArtifactCache Cache(Dir);
  writeFile(Cache.pathFor(Key), W.finish());

  GeneratedEvaluator G;
  EXPECT_EQ(Cache.load(AG, Opts, G, Reason), CacheLookup::Reject);
  EXPECT_EQ(Reason.rfind("container: ", 0), 0u) << Reason;
  EXPECT_FALSE(G.Success);

  GeneratorOptions WithDir = Opts;
  WithDir.CacheDir = Dir;
  DiagnosticEngine GD;
  GeneratedEvaluator Regen = generateEvaluator(AG, GD, WithDir);
  ASSERT_TRUE(Regen.Success) << GD.dump();
  EXPECT_FALSE(Regen.FromCache);
  GeneratedEvaluator Fixed;
  EXPECT_EQ(Cache.load(AG, WithDir, Fixed, Reason), CacheLookup::Hit)
      << Reason;
  EXPECT_TRUE(Fixed.Plan == Ref.Plan);
}

TEST_F(ArtifactCorruptionTest, PermutedPartitionOrderNeverLoadsAWrongPlan) {
  // A transform section re-wrapped with valid CRCs but its partitions in
  // another order. With the instances' partition ids left stale it must be
  // rejected or load to a plan the whole engine family agrees with; with
  // them renumbered it is an equivalent transform and must load.
  DiagnosticEngine Diags;
  AttributeGrammar Two = workloads::twoContextGrammar(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  DiagnosticEngine GD;
  GeneratedEvaluator Gen = generateEvaluator(Two, GD, Opts);
  ASSERT_TRUE(Gen.Success) << GD.dump();
  std::vector<std::vector<TotallyOrderedPartition>> &Parts =
      Gen.Transform.Partitions;
  PhylumId X = 0;
  while (X != Parts.size() && Parts[X].size() < 2)
    ++X;
  ASSERT_NE(X, Parts.size()) << "no phylum with two partitions";

  // Reverse phylum X's partitions; NewId maps an old id to its new one.
  const unsigned N = static_cast<unsigned>(Parts[X].size());
  std::reverse(Parts[X].begin(), Parts[X].end());
  auto NewId = [N](unsigned Old) { return N - 1 - Old; };

  for (bool Renumber : {false, true}) {
    SCOPED_TRACE(Renumber ? "renumbered" : "stale ids");
    GeneratedEvaluator Mod = Gen;
    Mod.Compiled = nullptr;
    if (Renumber) {
      for (ProdId P = 0; P != Two.numProds(); ++P)
        for (TransformInstance &I : Mod.Transform.Instances[P]) {
          if (Two.prod(P).Lhs == X)
            I.LhsPart = NewId(I.LhsPart);
          for (unsigned C = 0; C != I.ChildPart.size(); ++C)
            if (Two.prod(P).Rhs[C] == X)
              I.ChildPart[C] = NewId(I.ChildPart[C]);
        }
      if (Two.Start == X)
        Mod.Transform.RootPartition = NewId(Mod.Transform.RootPartition);
    }
    std::vector<uint8_t> Bad = ArtifactCache::encode(Two, Opts, Mod);
    GeneratedEvaluator Got;
    std::string Reason;
    if (!ArtifactCache::decode(Bad, Two, Opts, Got, Reason)) {
      EXPECT_FALSE(Renumber) << Reason;
      EXPECT_TRUE(Reason.rfind("transform: ", 0) == 0 ||
                  Reason.rfind("plan: ", 0) == 0)
          << Reason;
      EXPECT_FALSE(Got.Success);
      continue;
    }
    runFamily(Two, Got, 3, 20, 17);
  }
}

TEST_F(ArtifactCorruptionTest, InconsistentTransformsRejected) {
  // CRC-valid transforms that each break one invariant the plan relies on
  // are refused before a plan is built from them, including the ones
  // buildVisitSequences would turn into a plan that evaluates a rule
  // before its arguments.
  struct Mutation {
    const char *Expect;
    bool (*Apply)(const AttributeGrammar &, TransformResult &);
  };
  const Mutation Mutations[] = {
      {"linear order violates a dependency",
       [](const AttributeGrammar &AG, TransformResult &T) {
         // Swap the two ends of the first dependency edge.
         for (ProdId P = 0; P != AG.numProds(); ++P)
           for (TransformInstance &I : T.Instances[P])
             for (OccId O = 0; O != AG.info(P).numOccs(); ++O)
               for (unsigned S : AG.info(P).DepGraph.successors(O)) {
                 std::swap(*std::find(I.Linear.begin(), I.Linear.end(), O),
                           *std::find(I.Linear.begin(), I.Linear.end(), S));
                 return true;
               }
         return false;
       }},
      {"linear order violates a committed partition",
       [](const AttributeGrammar &AG, TransformResult &T) {
         // Swap two adjacent, independent occurrences of one son that lie
         // in different blocks of its partition.
         for (ProdId P = 0; P != AG.numProds(); ++P) {
           const ProductionInfo &PI = AG.info(P);
           for (TransformInstance &I : T.Instances[P])
             for (size_t K = 0; K + 1 < I.Linear.size(); ++K) {
               const AttrOcc &A = PI.Occs[I.Linear[K]];
               const AttrOcc &B = PI.Occs[I.Linear[K + 1]];
               if (!A.isOnSymbol() || !B.isOnSymbol() || A.Pos == 0 ||
                   A.Pos != B.Pos ||
                   AG.attr(A.Attr).Kind == AG.attr(B.Attr).Kind)
                 continue;
               const auto &Succ = PI.DepGraph.successors(I.Linear[K]);
               if (std::find(Succ.begin(), Succ.end(), I.Linear[K + 1]) !=
                   Succ.end())
                 continue;
               std::swap(I.Linear[K], I.Linear[K + 1]);
               return true;
             }
         }
         return false;
       }},
      {"linear order lists an occurrence twice",
       [](const AttributeGrammar &, TransformResult &T) {
         for (auto &Per : T.Instances)
           for (TransformInstance &I : Per)
             if (I.Linear.size() >= 2) {
               I.Linear[1] = I.Linear[0];
               return true;
             }
         return false;
       }},
      {"instance LHS partition out of range",
       [](const AttributeGrammar &AG, TransformResult &T) {
         TransformInstance &I = T.Instances[0].front();
         I.LhsPart = unsigned(T.Partitions[AG.prod(0).Lhs].size());
         return true;
       }},
      {"partition misses an attribute",
       [](const AttributeGrammar &, TransformResult &T) {
         for (auto &Per : T.Partitions)
           for (TotallyOrderedPartition &Part : Per)
             for (POBlock &B : Part.Blocks)
               if (!B.Attrs.empty()) {
                 B.Attrs.pop_back();
                 return true;
               }
         return false;
       }},
      {"no complete set of instances",
       [](const AttributeGrammar &AG, TransformResult &T) {
         T.Instances[AG.numProds() - 1].clear();
         return true;
       }},
  };
  for (const Mutation &M : Mutations) {
    SCOPED_TRACE(M.Expect);
    GeneratedEvaluator Bad = Ref;
    Bad.Compiled = nullptr;
    ASSERT_TRUE(M.Apply(AG, Bad.Transform)) << "no site to mutate";
    GeneratedEvaluator Got;
    std::string Reason;
    EXPECT_FALSE(ArtifactCache::decode(ArtifactCache::encode(AG, Opts, Bad),
                                       AG, Opts, Got, Reason));
    EXPECT_EQ(Reason.rfind("transform: ", 0), 0u) << Reason;
    EXPECT_NE(Reason.find(M.Expect), std::string::npos) << Reason;
    EXPECT_FALSE(Got.Success);
  }
}

TEST_F(ArtifactCorruptionTest, StaleKeyRejectedThroughCache) {
  // Plant the desk artifact at repmin's path: the key check refuses it,
  // and regeneration overwrites the impostor.
  const std::string Dir = freshCacheDir("stale");
  DiagnosticEngine Diags;
  AttributeGrammar Repmin = workloads::repmin(Diags);
  ASSERT_FALSE(Diags.hasErrors());

  ArtifactCache Cache(Dir);
  writeFile(Cache.pathFor(ArtifactCache::artifactKey(Repmin, Opts)), Bytes);

  GeneratedEvaluator G;
  std::string Reason;
  EXPECT_EQ(Cache.load(Repmin, Opts, G, Reason), CacheLookup::Reject);
  EXPECT_FALSE(Reason.empty());
  EXPECT_EQ(Cache.stats().Rejects, 1u);

  // The generator path recovers by regenerating and overwriting.
  GeneratorOptions WithDir = Opts;
  WithDir.CacheDir = Dir;
  DiagnosticEngine GD;
  GeneratedEvaluator Regen = generateEvaluator(Repmin, GD, WithDir);
  ASSERT_TRUE(Regen.Success) << GD.dump();
  EXPECT_FALSE(Regen.FromCache);
  GeneratedEvaluator Fixed;
  EXPECT_EQ(Cache.load(Repmin, WithDir, Fixed, Reason), CacheLookup::Hit)
      << Reason;
}

TEST_F(ArtifactCorruptionTest, SeededRandomCorruptionFuzz) {
  uint64_t State = 0x853C49E6748FEA9Bull;
  auto Next = [&State] {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  };
  for (int Round = 0; Round != 300; ++Round) {
    std::vector<uint8_t> Bad = Bytes;
    switch (Next() % 3) {
    case 0: { // scattered flips
      unsigned Flips = 1 + Next() % 16;
      for (unsigned I = 0; I != Flips; ++I)
        Bad[Next() % Bad.size()] ^= static_cast<uint8_t>(1 + Next() % 255);
      break;
    }
    case 1: // truncate
      Bad.resize(Next() % Bad.size());
      break;
    default: { // splice a garbage run
      size_t At = Next() % Bad.size();
      size_t Len = std::min<size_t>(1 + Next() % 64, Bad.size() - At);
      for (size_t I = 0; I != Len; ++I)
        Bad[At + I] = static_cast<uint8_t>(Next());
      break;
    }
    }
    if (Bad == Bytes)
      continue;
    expectReject(Bad, "fuzz round " + std::to_string(Round));
  }
}

//===----------------------------------------------------------------------===//
// Golden artifact: the committed byte image of the desk calculator.
//===----------------------------------------------------------------------===//

// Byte-stable serialization is what makes the cache shareable across builds
// and the corruption tests meaningful. This golden fails whenever the
// artifact layout changes; the required response is bumping
// kGeneratorArtifactVersion and regenerating (FNC2_UPDATE_GOLDENS=1).
TEST(ArtifactGoldenTest, DeskArtifactMatchesCommittedBytes) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors());
  DiagnosticEngine GD;
  GeneratorOptions Opts;
  GeneratedEvaluator GE = generateEvaluator(AG, GD, Opts);
  ASSERT_TRUE(GE.Success) << GD.dump();

  std::vector<uint8_t> Bytes = ArtifactCache::encode(AG, Opts, GE);
  // Two encodings in one process agree (no wall-clock, no pointers leak in).
  EXPECT_EQ(ArtifactCache::encode(AG, Opts, GE), Bytes);

  const std::string Path =
      std::string(FNC2_GOLDEN_DIR) + "/artifact_desk.golden";
  if (std::getenv("FNC2_UPDATE_GOLDENS")) {
    writeFile(Path, Bytes);
    return;
  }
  std::vector<uint8_t> Golden = readFile(Path);
  ASSERT_FALSE(Golden.empty())
      << "missing golden " << Path << " (regenerate with FNC2_UPDATE_GOLDENS=1)";
  EXPECT_TRUE(Golden == Bytes)
      << "artifact bytes drifted from " << Path
      << " — bump kGeneratorArtifactVersion and regenerate with "
         "FNC2_UPDATE_GOLDENS=1";
  // And the committed image still decodes against today's grammar.
  GeneratedEvaluator G;
  std::string Reason;
  EXPECT_TRUE(ArtifactCache::decode(Golden, AG, Opts, G, Reason)) << Reason;
}

//===----------------------------------------------------------------------===//
// Concurrency: racing store+load through the atomic rename protocol.
//===----------------------------------------------------------------------===//

TEST(ArtifactConcurrencyTest, RacingStoreLoadLeavesOneValidArtifact) {
  const std::string Dir = freshCacheDir("race");
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors());
  GeneratorOptions Opts;
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD, Opts);
  ASSERT_TRUE(GE.Success) << GD.dump();

  constexpr unsigned Threads = 4, Rounds = 8;
  std::atomic<unsigned> BadLoads{0}, GoodLoads{0}, Stores{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&] {
      ArtifactCache Cache(Dir);
      for (unsigned I = 0; I != Rounds; ++I) {
        DiagnosticEngine D;
        GeneratedEvaluator Mine = generateEvaluator(AG, D, Opts);
        if (Cache.store(AG, Opts, Mine))
          Stores.fetch_add(1);
        GeneratedEvaluator Loaded;
        std::string Reason;
        // After our own store an artifact for the key exists; every racer
        // writes identical content, so the only acceptable outcome is Hit —
        // a Reject would mean a torn read, a Miss a vanished file.
        if (Cache.load(AG, Opts, Loaded, Reason) == CacheLookup::Hit &&
            Loaded.Plan == Mine.Plan)
          GoodLoads.fetch_add(1);
        else
          BadLoads.fetch_add(1);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  EXPECT_EQ(BadLoads.load(), 0u);
  EXPECT_EQ(GoodLoads.load(), Threads * Rounds);
  EXPECT_EQ(Stores.load(), Threads * Rounds);

  // Exactly one artifact file remains, no temp droppings, and it loads.
  unsigned Artifacts = 0, Others = 0;
  for (const auto &E : fs::directory_iterator(Dir))
    (E.path().extension() == ".fnc2art" ? Artifacts : Others) += 1;
  EXPECT_EQ(Artifacts, 1u);
  EXPECT_EQ(Others, 0u) << "temp files leaked";
  ArtifactCache Cache(Dir);
  GeneratedEvaluator Final;
  std::string Reason;
  EXPECT_EQ(Cache.load(AG, Opts, Final, Reason), CacheLookup::Hit) << Reason;
  runFamily(AG, Final, 2, 80, 5);
}

} // namespace
