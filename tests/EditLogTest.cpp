//===- tests/EditLogTest.cpp - edit logs and persistent sessions ----------===//
//
// The edit-log subsystem's contract, layer by layer:
//
//  * Codecs — values and subtrees round-trip byte-exactly; malformed
//    streams (bad ids, postorder underflow, lexeme shape mismatches) are
//    rejected with a reason, never crash.
//  * Determinism — the same seed over the same starting tree yields a
//    byte-identical log, and replaying it reproduces the same final
//    attribution as a from-scratch evaluation of the final tree.
//  * Persistence — a quiescent session saved to disk and resumed is
//    bit-identical to the uninterrupted live session (same serialized
//    image, same attribution digest), and stays bit-identical, doing the
//    same incremental work, when both keep editing. Checked across the
//    classics, the SpecGen system suite and a seeded fuzz harness.
//  * Robustness — every byte flip and every truncation of a persisted log
//    or session, and a session image of an older container version, is
//    rejected with a section-prefixed reason (SerializeTest conventions;
//    runs under ASan/UBSan in CI).
//  * Sharing — many sessions over one immutable CompiledArtifact run
//    concurrently with per-session state only (runs under TSan in CI).
//  * Corpus — golden edit logs plus final-attribution digests are
//    committed under tests/goldens/ and regenerable with
//    FNC2_UPDATE_GOLDENS=1.
//
//===----------------------------------------------------------------------===//

#include "FamilyCheck.h"
#include "incremental/Session.h"
#include "serialize/ArtifactFile.h"
#include "olga/Driver.h"
#include "support/ThreadPool.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/EditScriptGen.h"
#include "workloads/MiniPascal.h"
#include "workloads/SpecGen.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace fnc2;
using namespace fnc2::testutil;
using serialize::ByteReader;
using serialize::ByteWriter;

namespace {

namespace fs = std::filesystem;

using GrammarFactory = AttributeGrammar (*)(DiagnosticEngine &);

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return {};
  return {std::istreambuf_iterator<char>(In), std::istreambuf_iterator<char>()};
}

void writeFileBytes(const std::string &Path, std::span<const uint8_t> Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out.good()) << Path;
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

/// Builds a started session over a fresh generation of \p AG: shared
/// bundle, deterministic starting tree.
struct SessionRig {
  AttributeGrammar AG;
  GeneratedEvaluator GE;
  std::shared_ptr<const CompiledArtifact> Bundle;

  explicit SessionRig(GrammarFactory Make) {
    DiagnosticEngine Diags;
    AG = Make(Diags);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.dump();
    DiagnosticEngine GD;
    GE = generateEvaluator(AG, GD);
    EXPECT_TRUE(GE.Success) << GD.dump();
    Bundle = GE.Compiled;
  }

  Tree startTree(uint64_t Seed, unsigned Size) {
    TreeGenerator Gen(AG, Seed);
    return Gen.generate(Size);
  }

  std::unique_ptr<IncrementalSession>
  freshSession(UpdateStrategy S = UpdateStrategy::StartAnywhere) {
    return std::make_unique<IncrementalSession>(AG, Bundle, S);
  }
};

//===----------------------------------------------------------------------===//
// Value codec
//===----------------------------------------------------------------------===//

TEST(ValueCodec, RoundTripsAllKinds) {
  Value Map = Value::emptyMap()
                  .mapInsert("x", Value::ofInt(1))
                  .mapInsert("y", Value::ofString("s"))
                  .mapInsert("x", Value::ofInt(2)); // shadows the first x
  std::vector<Value> Cases = {
      Value::unit(),
      Value::ofInt(0),
      Value::ofInt(-123456789),
      Value::ofBool(true),
      Value::ofBool(false),
      Value::ofString(""),
      Value::ofString("hello world"),
      Value::ofList({}),
      Value::ofList({Value::ofInt(1), Value::ofString("a"),
                     Value::ofList({Value::ofBool(false)})}),
      Value::emptyMap(),
      Map,
      Value::ofList({Map, Map}),
  };
  for (const Value &V : Cases) {
    ByteWriter W;
    encodeValue(W, V);
    ByteReader R(W.bytes());
    Value Back = decodeValue(R);
    ASSERT_TRUE(R.ok()) << R.error() << " for " << V.str();
    EXPECT_EQ(R.remaining(), 0u);
    EXPECT_TRUE(V.equals(Back)) << V.str() << " vs " << Back.str();
    // Canonical: re-encoding the decoded value is byte-exact.
    ByteWriter W2;
    encodeValue(W2, Back);
    EXPECT_TRUE(W.bytes().size() == W2.bytes().size() &&
                std::equal(W.bytes().begin(), W.bytes().end(),
                           W2.bytes().begin()))
        << V.str();
  }
}

TEST(ValueCodec, RejectsGarbage) {
  {
    ByteWriter W;
    W.u8(99); // no such kind
    ByteReader R(W.bytes());
    decodeValue(R);
    EXPECT_FALSE(R.ok());
  }
  {
    // Nesting bomb: a chain of single-element lists far past the guard.
    ByteWriter W;
    for (int I = 0; I != 200; ++I) {
      W.u8(static_cast<uint8_t>(Value::Kind::List));
      W.u32(1);
    }
    W.u8(static_cast<uint8_t>(Value::Kind::Unit));
    ByteReader R(W.bytes());
    decodeValue(R);
    EXPECT_FALSE(R.ok());
    EXPECT_NE(R.error().find("nesting"), std::string::npos) << R.error();
  }
}

//===----------------------------------------------------------------------===//
// Subtree codec
//===----------------------------------------------------------------------===//

TEST(SubtreeCodec, RoundTripsRandomSubtrees) {
  DiagnosticEngine Diags;
  AttributeGrammar Gs[] = {workloads::deskCalculator(Diags),
                           workloads::repmin(Diags),
                           workloads::miniPascal(Diags)};
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  for (const AttributeGrammar &AG : Gs) {
    for (uint64_t Seed : {1u, 5u, 23u}) {
      TreeGenerator Gen(AG, Seed);
      Tree T = Gen.generate(150);
      ByteWriter W;
      encodeSubtree(W, AG, T.root());
      Tree Into(AG);
      ByteReader R(W.bytes());
      std::unique_ptr<TreeNode> Back = decodeSubtree(R, Into);
      ASSERT_TRUE(Back) << AG.Name << ": " << R.error();
      EXPECT_EQ(R.remaining(), 0u);
      EXPECT_EQ(writeTerm(AG, T.root()), writeTerm(AG, Back.get()))
          << AG.Name << " seed " << Seed;
      ByteWriter W2;
      encodeSubtree(W2, AG, Back.get());
      EXPECT_TRUE(W.bytes().size() == W2.bytes().size() &&
                  std::equal(W.bytes().begin(), W.bytes().end(),
                             W2.bytes().begin()))
          << AG.Name << " seed " << Seed;
    }
  }
}

TEST(SubtreeCodec, RejectsMalformedStreams) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ProdId Leaf = InvalidId, Inner = InvalidId;
  for (ProdId P = 0; P != AG.numProds(); ++P) {
    const Production &Pr = AG.prod(P);
    if (Pr.arity() == 0 && !Pr.HasLexeme && Leaf == InvalidId)
      Leaf = P;
    if (Pr.arity() >= 1 && !Pr.HasLexeme && Inner == InvalidId)
      Inner = P;
  }
  auto expectRejected = [&AG](const ByteWriter &W, const char *Tag) {
    Tree Into(AG);
    ByteReader R(W.bytes());
    std::unique_ptr<TreeNode> N = decodeSubtree(R, Into);
    EXPECT_TRUE(!N || R.remaining() != 0) << Tag;
    if (!N) {
      EXPECT_FALSE(R.ok()) << Tag << ": rejection must latch a reason";
    }
  };
  {
    ByteWriter W;
    W.u32(0); // empty node count
    expectRejected(W, "empty");
  }
  {
    ByteWriter W;
    W.u32(1);
    W.u32(AG.numProds() + 7); // production id out of range
    expectRejected(W, "bad-prod");
  }
  if (Inner != InvalidId) {
    ByteWriter W;
    W.u32(1);
    W.u32(Inner); // postorder underflow: no children on the stack
    expectRejected(W, "underflow");
  }
  if (Leaf != InvalidId) {
    ByteWriter W;
    W.u32(2);
    W.u32(Leaf);
    W.u32(Leaf); // two roots left standing
    expectRejected(W, "two-roots");
  }
}

//===----------------------------------------------------------------------===//
// Replay determinism
//===----------------------------------------------------------------------===//

TEST(EditLogDeterminism, SameSeedYieldsByteIdenticalLogs) {
  SessionRig Rig(workloads::deskCalculator);
  std::vector<uint8_t> First;
  for (int Round = 0; Round != 2; ++Round) {
    Tree T = Rig.startTree(11, 300);
    EditScriptOptions Opts;
    Opts.Seed = 77;
    EditScriptGen Gen(Rig.AG, Opts);
    EditLog Log = Gen.generate(T, 120);
    EXPECT_EQ(Log.size(), 120u);
    std::vector<uint8_t> Bytes = Log.encodeFile(Rig.AG);
    if (Round == 0)
      First = std::move(Bytes);
    else
      EXPECT_EQ(First, Bytes) << "same seed, same start tree, different log";
  }
  // A different seed diverges (scripts are not degenerate).
  Tree T = Rig.startTree(11, 300);
  EditScriptOptions Opts;
  Opts.Seed = 78;
  EditScriptGen Gen(Rig.AG, Opts);
  EXPECT_NE(First, Gen.generate(T, 120).encodeFile(Rig.AG));
}

TEST(EditLogDeterminism, ReplayMatchesFromScratchOracle) {
  for (GrammarFactory Make :
       {workloads::deskCalculator, workloads::repmin, workloads::miniPascal}) {
    SessionRig Rig(Make);
    // Generate the script structurally against a copy of the start tree...
    Tree Final = Rig.startTree(3, 400);
    EditScriptOptions Opts;
    Opts.Seed = 5;
    EditScriptGen Gen(Rig.AG, Opts);
    EditLog Log = Gen.generate(Final, 60);

    // ...then replay it through a live session from the same start tree.
    auto S = Rig.freshSession();
    DiagnosticEngine D;
    ASSERT_TRUE(S->start(Rig.startTree(3, 400), D)) << D.dump();
    ASSERT_TRUE(S->replay(Log, D)) << Rig.AG.Name << ": " << D.dump();
    EXPECT_EQ(S->log().size(), 60u);

    // The session's tree is the generator's final tree...
    EXPECT_EQ(writeTerm(Rig.AG, Final.root()),
              writeTerm(Rig.AG, S->tree().root()));
    // ...and its attribution equals a from-scratch evaluation of it.
    Tree Check = cloneTree(Rig.AG, S->tree());
    Evaluator Full(Rig.GE.Compiled->CP);
    ASSERT_TRUE(Full.evaluate(Check, D)) << D.dump();
    expectSameAttribution(Rig.AG, Check.root(), S->tree().root(),
                          Rig.AG.Name + "/replayed");
  }
}

//===----------------------------------------------------------------------===//
// Log file round trip + corruption injection
//===----------------------------------------------------------------------===//

TEST(EditLogRoundTrip, FileRoundTripsByteExact) {
  SessionRig Rig(workloads::repmin);
  Tree T = Rig.startTree(9, 250);
  EditScriptOptions Opts;
  Opts.Seed = 13;
  EditScriptGen Gen(Rig.AG, Opts);
  EditLog Log = Gen.generate(T, 80);
  std::vector<uint8_t> Bytes = Log.encodeFile(Rig.AG);

  EditLog Back;
  std::string Reason;
  ASSERT_TRUE(EditLog::decodeFile(Bytes, Rig.AG, Back, Reason)) << Reason;
  ASSERT_EQ(Back.size(), Log.size());
  EXPECT_EQ(Back.encodeFile(Rig.AG), Bytes);
}

TEST(EditLogRoundTrip, WrongGrammarRejected) {
  DiagnosticEngine Diags;
  AttributeGrammar Desk = workloads::deskCalculator(Diags);
  AttributeGrammar Rep = workloads::repmin(Diags);
  ASSERT_FALSE(Diags.hasErrors());
  TreeGenerator Gen(Desk, 2);
  Tree T = Gen.generate(120);
  EditScriptGen SG(Desk, {.Seed = 4});
  std::vector<uint8_t> Bytes = SG.generate(T, 10).encodeFile(Desk);

  EditLog Back;
  std::string Reason;
  EXPECT_FALSE(EditLog::decodeFile(Bytes, Rep, Back, Reason));
  EXPECT_FALSE(Reason.empty());
}

TEST(EditLogCorruption, EveryByteFlipAndTruncationRejected) {
  SessionRig Rig(workloads::deskCalculator);
  Tree T = Rig.startTree(21, 60);
  EditScriptGen Gen(Rig.AG, {.Seed = 6});
  std::vector<uint8_t> Bytes = Gen.generate(T, 6).encodeFile(Rig.AG);
  ASSERT_FALSE(Bytes.empty());

  for (size_t I = 0; I != Bytes.size(); ++I) {
    std::vector<uint8_t> Bad = Bytes;
    Bad[I] ^= 0x5A;
    EditLog Out;
    std::string Reason;
    EXPECT_FALSE(EditLog::decodeFile(Bad, Rig.AG, Out, Reason))
        << "flip at byte " << I << " accepted";
    EXPECT_FALSE(Reason.empty()) << "flip at byte " << I;
  }
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::vector<uint8_t> Bad(Bytes.begin(), Bytes.begin() + Len);
    EditLog Out;
    std::string Reason;
    EXPECT_FALSE(EditLog::decodeFile(Bad, Rig.AG, Out, Reason))
        << "truncation to " << Len << " bytes accepted";
  }
}

//===----------------------------------------------------------------------===//
// Session persistence: bit-identical resume
//===----------------------------------------------------------------------===//

/// Drives \p Live and \p Resumed through the same \p Extra ops and demands
/// the same digest and the same incremental work (every IncrementalStats
/// counter) after each, then byte-identical serialized images (meta, tree,
/// frames, log). Equal work shows that the revisit memo a session does not
/// save is rebuilt by each update() alone.
void expectLockstep(SessionRig &Rig, IncrementalSession &Live,
                    IncrementalSession &Resumed, const EditLog &Extra) {
  DiagnosticEngine D;
  for (size_t I = 0; I != Extra.size(); ++I) {
    Live.evaluator().resetStats();
    Resumed.evaluator().resetStats();
    ASSERT_TRUE(Live.apply(Extra.op(I), D)) << D.dump();
    ASSERT_TRUE(Resumed.apply(Extra.op(I), D)) << D.dump();
    EXPECT_EQ(Live.attributionDigest(), Resumed.attributionDigest())
        << Rig.AG.Name << " diverged at continued edit " << I;
    for (const CounterField<IncrementalStats> &F : IncrementalStats::schema())
      EXPECT_EQ(Live.stats().*(F.Member), Resumed.stats().*(F.Member))
          << Rig.AG.Name << ": " << F.Name << " differs at continued edit "
          << I;
  }
  std::vector<uint8_t> A, B;
  std::string Why;
  ASSERT_TRUE(Live.encode(A, Why)) << Why;
  ASSERT_TRUE(Resumed.encode(B, Why)) << Why;
  EXPECT_EQ(A, B) << Rig.AG.Name
                  << ": resumed session drifted from the live one";
}

TEST(SessionPersistence, ResumeIsBitIdenticalAndStaysSo) {
  for (GrammarFactory Make : {workloads::deskCalculator, workloads::repmin,
                              workloads::miniPascal}) {
    SessionRig Rig(Make);
    auto Live = Rig.freshSession();
    DiagnosticEngine D;
    ASSERT_TRUE(Live->start(Rig.startTree(8, 800), D)) << D.dump();
    EditScriptGen Gen(Rig.AG, {.Seed = 31});
    for (unsigned I = 0; I != 40; ++I)
      ASSERT_TRUE(Live->apply(Gen.next(Live->tree()), D)) << D.dump();

    std::vector<uint8_t> Saved;
    std::string Why;
    ASSERT_TRUE(Live->encode(Saved, Why)) << Why;

    auto Resumed = Rig.freshSession();
    std::string Reason;
    ASSERT_TRUE(Resumed->restore(Saved, Reason)) << Rig.AG.Name << ": "
                                                 << Reason;
    // Bit-identical now: same digest, same serialized image.
    EXPECT_EQ(Live->attributionDigest(), Resumed->attributionDigest());
    std::vector<uint8_t> Resaved;
    ASSERT_TRUE(Resumed->encode(Resaved, Why)) << Why;
    EXPECT_EQ(Saved, Resaved);
    EXPECT_EQ(Resumed->log().size(), 40u);

    // And still bit-identical after both keep editing: build the
    // continuation script against a structural copy of the shared state.
    Tree Copy = cloneTree(Rig.AG, Live->tree());
    EditScriptGen Cont(Rig.AG, {.Seed = 97});
    EditLog Extra = Cont.generate(Copy, 15);
    expectLockstep(Rig, *Live, *Resumed, Extra);
  }
}

TEST(SessionPersistence, RefusesToSaveMidEdit) {
  SessionRig Rig(workloads::deskCalculator);
  auto S = Rig.freshSession();
  DiagnosticEngine D;
  std::vector<uint8_t> Bytes;
  std::string Why;
  EXPECT_FALSE(S->encode(Bytes, Why)); // never started
  EXPECT_FALSE(Why.empty());

  ASSERT_TRUE(S->start(Rig.startTree(1, 100), D)) << D.dump();
  // Record an edit but skip the update: the session is not quiescent.
  EditScriptGen Gen(Rig.AG, {.Seed = 2});
  EditOp Op = Gen.next(S->tree());
  ASSERT_TRUE(S->log().empty());
  size_t Idx = const_cast<EditLog &>(S->log()).append(Op); // test-only poke
  ASSERT_TRUE(S->log().apply(Idx, S->tree(), &S->evaluator(), D)) << D.dump();
  EXPECT_FALSE(S->encode(Bytes, Why));
  EXPECT_NE(Why.find("pending"), std::string::npos) << Why;
  // After the update it saves again.
  ASSERT_TRUE(S->evaluator().update(S->tree(), D)) << D.dump();
  EXPECT_TRUE(S->encode(Bytes, Why)) << Why;
}

TEST(SessionPersistence, SettingARootInheritedValueAgainReplacesIt) {
  SessionRig Rig(workloads::deskCalculator);
  // The session records and re-installs any attribute it is given; desk's
  // start phylum needs none, so Exp.env serves as the recorded attribute.
  const AttrId Env = Rig.AG.findAttr(Rig.AG.findPhylum("Exp"), "env");
  ASSERT_NE(Env, InvalidId);
  auto Twice = Rig.freshSession(), Once = Rig.freshSession();
  Twice->setRootInherited(Env, Value::ofInt(1));
  Twice->setRootInherited(Env, Value::ofInt(2));
  Once->setRootInherited(Env, Value::ofInt(2));
  DiagnosticEngine D;
  ASSERT_TRUE(Twice->start(Rig.startTree(3, 200), D)) << D.dump();
  ASSERT_TRUE(Once->start(Rig.startTree(3, 200), D)) << D.dump();

  std::vector<uint8_t> TwiceBytes, OnceBytes;
  std::string Why;
  ASSERT_TRUE(Twice->encode(TwiceBytes, Why)) << Why;
  ASSERT_TRUE(Once->encode(OnceBytes, Why)) << Why;
  EXPECT_EQ(TwiceBytes, OnceBytes) << "the saved session keeps one entry";
}

TEST(SessionPersistence, SpecGenSweepRoundTripsBitIdentically) {
  auto Suite = workloads::systemAgSuite();
  ASSERT_GE(Suite.size(), 7u);
  // Two ends of the class spectrum: OAG(0) module-dependency and the
  // OAG(1) C-translation analogue.
  for (size_t Idx : {size_t(0), Suite.size() - 1}) {
    const workloads::SystemAg &Ag = Suite[Idx];
    DiagnosticEngine Diags;
    olga::CompileResult R = olga::compileMolga(Ag.Source, Diags);
    ASSERT_TRUE(R.Success) << Ag.Name << ": " << Diags.dump();
    const AttributeGrammar &AG = R.Grammars[0].AG;
    DiagnosticEngine GD;
    GeneratorOptions Opts;
    Opts.OagK = Ag.OagK;
    GeneratedEvaluator GE = generateEvaluator(AG, GD, Opts);
    ASSERT_TRUE(GE.Success) << Ag.Name << ": " << GD.dump();
    std::shared_ptr<const CompiledArtifact> Bundle = GE.Compiled;

    IncrementalSession Live(AG, Bundle);
    provideRootInherited(AG, Live);
    DiagnosticEngine D;
    TreeGenerator Gen(AG, 41 + Idx);
    ASSERT_TRUE(Live.start(Gen.generate(500), D)) << Ag.Name << D.dump();
    EditScriptGen SG(AG, {.Seed = 19 + Idx});
    for (unsigned I = 0; I != 12; ++I)
      ASSERT_TRUE(Live.apply(SG.next(Live.tree()), D))
          << Ag.Name << ": " << D.dump();

    std::vector<uint8_t> Saved;
    std::string Why;
    ASSERT_TRUE(Live.encode(Saved, Why)) << Ag.Name << ": " << Why;
    IncrementalSession Resumed(AG, Bundle);
    provideRootInherited(AG, Resumed);
    std::string Reason;
    ASSERT_TRUE(Resumed.restore(Saved, Reason)) << Ag.Name << ": " << Reason;
    EXPECT_EQ(Live.attributionDigest(), Resumed.attributionDigest())
        << Ag.Name;
    std::vector<uint8_t> Resaved;
    ASSERT_TRUE(Resumed.encode(Resaved, Why)) << Why;
    EXPECT_EQ(Saved, Resaved) << Ag.Name;
  }
}

//===----------------------------------------------------------------------===//
// Session corruption injection
//===----------------------------------------------------------------------===//

TEST(SessionCorruption, EveryByteFlipAndTruncationRejected) {
  SessionRig Rig(workloads::deskCalculator);
  auto S = Rig.freshSession();
  DiagnosticEngine D;
  ASSERT_TRUE(S->start(Rig.startTree(5, 50), D)) << D.dump();
  EditScriptGen Gen(Rig.AG, {.Seed = 8});
  for (unsigned I = 0; I != 3; ++I)
    ASSERT_TRUE(S->apply(Gen.next(S->tree()), D)) << D.dump();
  std::vector<uint8_t> Bytes;
  std::string Why;
  ASSERT_TRUE(S->encode(Bytes, Why)) << Why;

  auto Victim = Rig.freshSession();
  for (size_t I = 0; I != Bytes.size(); ++I) {
    std::vector<uint8_t> Bad = Bytes;
    Bad[I] ^= 0x5A;
    std::string Reason;
    EXPECT_FALSE(Victim->restore(Bad, Reason))
        << "flip at byte " << I << " accepted";
    EXPECT_FALSE(Reason.empty()) << "flip at byte " << I;
  }
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::vector<uint8_t> Bad(Bytes.begin(), Bytes.begin() + Len);
    std::string Reason;
    EXPECT_FALSE(Victim->restore(Bad, Reason))
        << "truncation to " << Len << " bytes accepted";
  }
  // After all that abuse the victim still restores the good image.
  std::string Reason;
  EXPECT_TRUE(Victim->restore(Bytes, Reason)) << Reason;
  EXPECT_EQ(Victim->attributionDigest(), S->attributionDigest());
}

// A session image laid out as version 1 wrote it (meta, tree, frames, a
// section 4 of revisit-memo stamps, log) is refused at the container, and
// the refusal leaves the victim session as it was.
TEST(SessionCorruption, OldFormatSessionRejected) {
  SessionRig Rig(workloads::deskCalculator);
  auto S = Rig.freshSession();
  DiagnosticEngine D;
  ASSERT_TRUE(S->start(Rig.startTree(5, 60), D)) << D.dump();
  EditScriptGen Gen(Rig.AG, {.Seed = 12});
  for (unsigned I = 0; I != 4; ++I)
    ASSERT_TRUE(S->apply(Gen.next(S->tree()), D)) << D.dump();
  std::vector<uint8_t> Good;
  std::string Why;
  ASSERT_TRUE(S->encode(Good, Why)) << Why;

  const uint64_t Key = IncrementalSession::fileKey(Rig.AG);
  serialize::ArtifactReader Current;
  std::string Reason;
  ASSERT_TRUE(Current.open(Good, Key, Reason, kSessionVersion)) << Reason;
  auto Copy = [&Current](ByteWriter &W, uint32_t Id) {
    ASSERT_TRUE(Current.hasSection(Id)) << "section " << Id;
    ByteReader R = Current.section(Id);
    while (R.remaining() != 0)
      W.u8(R.u8());
  };
  serialize::ArtifactWriter Old(Key, 1);
  Copy(Old.section(1), 1);
  Copy(Old.section(2), 2);
  Copy(Old.section(3), 3);
  // Stamps: write clock, then empty last-write, revisit and changed maps.
  ByteWriter &Stamps = Old.section(4);
  Stamps.u64(0);
  Stamps.u32(0);
  Stamps.u32(0);
  Stamps.u32(0);
  Copy(Old.section(5), 5);
  std::vector<uint8_t> OldImage = Old.finish();

  auto Victim = Rig.freshSession();
  ASSERT_TRUE(Victim->start(Rig.startTree(9, 80), D)) << D.dump();
  const uint64_t Before = Victim->attributionDigest();
  EXPECT_FALSE(Victim->restore(OldImage, Reason));
  EXPECT_EQ(Reason.rfind("session container: ", 0), 0u) << Reason;
  EXPECT_NE(Reason.find("version"), std::string::npos) << Reason;
  EXPECT_EQ(Victim->attributionDigest(), Before);

  ASSERT_TRUE(Victim->restore(Good, Reason)) << Reason;
  EXPECT_EQ(Victim->attributionDigest(), S->attributionDigest());
}

TEST(SessionCorruption, WrongGrammarAndWrongPlanRejected) {
  SessionRig Desk(workloads::deskCalculator);
  SessionRig Rep(workloads::repmin);
  auto S = Desk.freshSession();
  DiagnosticEngine D;
  ASSERT_TRUE(S->start(Desk.startTree(1, 80), D)) << D.dump();
  std::vector<uint8_t> Bytes;
  std::string Why;
  ASSERT_TRUE(S->encode(Bytes, Why)) << Why;

  auto Other = Rep.freshSession();
  std::string Reason;
  EXPECT_FALSE(Other->restore(Bytes, Reason));
  EXPECT_FALSE(Reason.empty());
}

//===----------------------------------------------------------------------===//
// Seeded fuzz: resumed-from-disk vs live across random scripts
//===----------------------------------------------------------------------===//

TEST(SessionFuzz, ResumedSessionsMatchLiveAcrossRandomScripts) {
  SessionRig Desk(workloads::deskCalculator);
  SessionRig Rep(workloads::repmin);
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    SessionRig &Rig = (Seed % 2) ? Desk : Rep;
    UpdateStrategy Strategy =
        (Seed % 3) ? UpdateStrategy::StartAnywhere : UpdateStrategy::FromRoot;
    auto Live = Rig.freshSession(Strategy);
    DiagnosticEngine D;
    ASSERT_TRUE(Live->start(Rig.startTree(Seed, 200 + unsigned(Seed) * 60), D))
        << D.dump();
    EditScriptGen Gen(Rig.AG, {.Seed = Seed * 1013});
    unsigned Prefix = 5 + unsigned(Seed % 4) * 5;
    for (unsigned I = 0; I != Prefix; ++I)
      ASSERT_TRUE(Live->apply(Gen.next(Live->tree()), D)) << D.dump();

    // Snapshot mid-session, resume elsewhere, continue both identically.
    std::vector<uint8_t> Saved;
    std::string Why;
    ASSERT_TRUE(Live->encode(Saved, Why)) << Why;
    auto Resumed = Rig.freshSession(Strategy);
    std::string Reason;
    ASSERT_TRUE(Resumed->restore(Saved, Reason)) << Reason;

    Tree Copy = cloneTree(Rig.AG, Live->tree());
    EditScriptGen Cont(Rig.AG, {.Seed = Seed * 7919});
    EditLog Extra = Cont.generate(Copy, 10);
    expectLockstep(Rig, *Live, *Resumed, Extra);

    // Both equal the from-scratch oracle on the final tree.
    Tree Check = cloneTree(Rig.AG, Live->tree());
    Evaluator Full(Rig.GE.Compiled->CP);
    ASSERT_TRUE(Full.evaluate(Check, D)) << D.dump();
    expectSameAttribution(Rig.AG, Check.root(), Resumed->tree().root(),
                          "fuzz seed " + std::to_string(Seed));
  }
}

//===----------------------------------------------------------------------===//
// SessionStore: the on-disk path
//===----------------------------------------------------------------------===//

TEST(SessionStoreTest, StoresAndLoadsThroughDisk) {
  std::string Dir = ::testing::TempDir() + "fnc2-session-store";
  fs::remove_all(Dir);

  SessionRig Rig(workloads::deskCalculator);
  auto S = Rig.freshSession();
  DiagnosticEngine D;
  ASSERT_TRUE(S->start(Rig.startTree(4, 300), D)) << D.dump();
  EditScriptGen Gen(Rig.AG, {.Seed = 12});
  for (unsigned I = 0; I != 10; ++I)
    ASSERT_TRUE(S->apply(Gen.next(S->tree()), D)) << D.dump();

  SessionStore Store(Dir);
  std::string Reason;
  ASSERT_TRUE(Store.store(*S, "editor", Reason)) << Reason;
  EXPECT_TRUE(fs::exists(Store.pathFor(Rig.AG, "editor")));

  auto Back = Rig.freshSession();
  ASSERT_TRUE(Store.load(*Back, "editor", Reason)) << Reason;
  EXPECT_EQ(S->attributionDigest(), Back->attributionDigest());
  EXPECT_EQ(Back->log().size(), 10u);

  EXPECT_FALSE(Store.load(*Back, "no-such-session", Reason));
  EXPECT_FALSE(Reason.empty());
}

//===----------------------------------------------------------------------===//
// Concurrency: many sessions, one immutable plan (TSan-gated in CI)
//===----------------------------------------------------------------------===//

TEST(EditLogConcurrency, ManySessionsShareOneCompiledPlan) {
  SessionRig Rig(workloads::repmin);
  constexpr unsigned NumSessions = 8;
  constexpr unsigned EditsPerSession = 25;

  // Reference digests, computed sequentially.
  std::vector<uint64_t> Want(NumSessions);
  for (unsigned I = 0; I != NumSessions; ++I) {
    auto S = Rig.freshSession();
    DiagnosticEngine D;
    ASSERT_TRUE(S->start(Rig.startTree(100 + I, 400), D)) << D.dump();
    EditScriptGen Gen(Rig.AG, {.Seed = 500 + I});
    for (unsigned E = 0; E != EditsPerSession; ++E)
      ASSERT_TRUE(S->apply(Gen.next(S->tree()), D)) << D.dump();
    Want[I] = S->attributionDigest();
  }

  // The same work, all sessions racing on the one shared bundle.
  std::vector<uint64_t> Got(NumSessions, 0);
  std::vector<uint8_t> Ok(NumSessions, 0);
  ThreadPool Pool(4);
  Pool.parallelFor(NumSessions, [&](size_t I, unsigned) {
    IncrementalSession S(Rig.AG, Rig.Bundle);
    DiagnosticEngine D;
    TreeGenerator Gen(Rig.AG, 100 + I);
    if (!S.start(Gen.generate(400), D))
      return;
    EditScriptGen SG(Rig.AG, {.Seed = 500 + I});
    for (unsigned E = 0; E != EditsPerSession; ++E)
      if (!S.apply(SG.next(S.tree()), D))
        return;
    Got[I] = S.attributionDigest();
    Ok[I] = 1;
  });
  for (unsigned I = 0; I != NumSessions; ++I) {
    EXPECT_TRUE(Ok[I]) << "session " << I << " failed";
    EXPECT_EQ(Got[I], Want[I]) << "session " << I
                               << " diverged under sharing";
  }
}

//===----------------------------------------------------------------------===//
// Golden corpus: committed logs + final-attribution digests
//===----------------------------------------------------------------------===//

struct CorpusEntry {
  const char *Tag;
  GrammarFactory Make;
  uint64_t TreeSeed;
  unsigned TreeSize;
  uint64_t ScriptSeed;
  unsigned Edits;
};

// Names the entry in test listings; the default byte dump would embed the
// load address of Tag and Make, so the listed name would change per build.
void PrintTo(const CorpusEntry &E, std::ostream *OS) { *OS << E.Tag; }

class EditLogGoldenTest : public ::testing::TestWithParam<CorpusEntry> {};

// The replayable regression corpus: a committed edit log must still decode,
// still replay, and still produce the committed final-attribution digest.
// Regenerate with FNC2_UPDATE_GOLDENS=1 after intentional format or
// semantics changes.
TEST_P(EditLogGoldenTest, CorpusReplaysToCommittedDigest) {
  const CorpusEntry &E = GetParam();
  SessionRig Rig(E.Make);

  // Deterministic regeneration of the corpus entry.
  Tree Scratch = Rig.startTree(E.TreeSeed, E.TreeSize);
  EditScriptGen Gen(Rig.AG, {.Seed = E.ScriptSeed});
  EditLog Log = Gen.generate(Scratch, E.Edits);
  std::vector<uint8_t> Bytes = Log.encodeFile(Rig.AG);

  auto S = Rig.freshSession();
  DiagnosticEngine D;
  ASSERT_TRUE(S->start(Rig.startTree(E.TreeSeed, E.TreeSize), D)) << D.dump();
  ASSERT_TRUE(S->replay(Log, D)) << D.dump();
  char Digest[17];
  std::snprintf(Digest, sizeof(Digest), "%016llx",
                static_cast<unsigned long long>(S->attributionDigest()));

  const std::string LogPath =
      std::string(FNC2_GOLDEN_DIR) + "/editlog_" + E.Tag + ".golden";
  const std::string DigestPath =
      std::string(FNC2_GOLDEN_DIR) + "/editlog_" + E.Tag + ".digest";
  if (std::getenv("FNC2_UPDATE_GOLDENS")) {
    writeFileBytes(LogPath, Bytes);
    std::string Line = std::string(Digest) + "\n";
    writeFileBytes(DigestPath, std::span<const uint8_t>(
                                   reinterpret_cast<const uint8_t *>(
                                       Line.data()),
                                   Line.size()));
    return;
  }

  std::vector<uint8_t> GoldenLog = readFileBytes(LogPath);
  ASSERT_FALSE(GoldenLog.empty())
      << "missing golden " << LogPath
      << " (regenerate with FNC2_UPDATE_GOLDENS=1)";
  EXPECT_EQ(GoldenLog, Bytes)
      << "edit-log bytes drifted from " << LogPath
      << " — bump serialize::kFormatVersion if the layout changed and "
         "regenerate with FNC2_UPDATE_GOLDENS=1";

  std::vector<uint8_t> GoldenDigest = readFileBytes(DigestPath);
  ASSERT_FALSE(GoldenDigest.empty()) << "missing golden " << DigestPath;
  std::string WantDigest(GoldenDigest.begin(), GoldenDigest.end());
  while (!WantDigest.empty() &&
         (WantDigest.back() == '\n' || WantDigest.back() == '\r'))
    WantDigest.pop_back();
  EXPECT_EQ(WantDigest, std::string(Digest))
      << E.Tag << ": final attribution drifted from the committed corpus";

  // The committed bytes themselves still decode and replay to the same end.
  EditLog FromGolden;
  std::string Reason;
  ASSERT_TRUE(EditLog::decodeFile(GoldenLog, Rig.AG, FromGolden, Reason))
      << Reason;
  auto S2 = Rig.freshSession();
  ASSERT_TRUE(S2->start(Rig.startTree(E.TreeSeed, E.TreeSize), D)) << D.dump();
  ASSERT_TRUE(S2->replay(FromGolden, D)) << D.dump();
  EXPECT_EQ(S2->attributionDigest(), S->attributionDigest());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EditLogGoldenTest,
    ::testing::Values(
        CorpusEntry{"desk", workloads::deskCalculator, 7, 400, 1001, 60},
        CorpusEntry{"repmin", workloads::repmin, 7, 400, 1002, 60},
        CorpusEntry{"minipascal", workloads::miniPascal, 7, 500, 1003, 60}),
    [](const ::testing::TestParamInfo<CorpusEntry> &I) {
      return std::string(I.param.Tag);
    });

} // namespace
