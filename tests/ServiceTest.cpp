//===- tests/ServiceTest.cpp - fnc2d protocol, registry, daemon -----------===//
//
// The resident-service test suite:
//
//  * wire protocol — request/response codec round trips, malformed-frame
//    rejection with section-prefixed reasons, exhaustive byte-flip and
//    truncation fuzz (the SerializeTest discipline applied to the wire);
//  * request-log files — container round trip, CRC-backed corruption
//    rejection;
//  * grammar registry — load-or-generate collapsing, LRU eviction, stale
//    keys, on-disk artifact reuse across re-registration;
//  * daemon — the end-to-end desk-calculator flow over every request kind,
//    merged-vs-sequential batch agreement, session snapshot/restore
//    equivalence, the socket transport;
//  * golden transcript — a committed request log replays to a byte-stable
//    response transcript (regenerate with FNC2_UPDATE_GOLDENS=1).
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluator.h"
#include "incremental/EditLog.h"
#include "service/SocketServer.h"
#include "service/Traffic.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/EditScriptGen.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace fnc2;
using namespace fnc2::service;

namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "fnc2-service-" + Tag;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir;
}

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

/// A representative request of every kind (ids and payloads distinct so
/// field mix-ups fail loudly).
std::vector<Request> sampleRequests() {
  std::vector<Request> Rs;
  {
    Request R;
    R.Kind = RequestKind::RegisterGrammar;
    R.Id = 0x1111;
    R.Source = "builtin:desk";
    R.OagK = 2;
    Rs.push_back(R);
  }
  {
    Request R;
    R.Kind = RequestKind::Evaluate;
    R.Id = 0x2222;
    R.GrammarKey = 0xABCDEF0123456789ull;
    R.Terms = {"Add(Num<3>,Num<4>)"};
    R.RootInherited.emplace_back("env", Value::ofInt(7));
    Rs.push_back(R);
  }
  {
    Request R;
    R.Kind = RequestKind::EvaluateBatch;
    R.Id = 0x3333;
    R.GrammarKey = 42;
    R.Terms = {"Num<1>", "Num<2>", "Num<3>"};
    Rs.push_back(R);
  }
  {
    Request R;
    R.Kind = RequestKind::OpenSession;
    R.Id = 0x4444;
    R.GrammarKey = 42;
    R.SessionId = 0x500000007ull;
    R.Terms = {"Num<9>"};
    R.RootInherited.emplace_back("depth", Value::ofInt(1));
    Rs.push_back(R);
  }
  {
    Request R;
    R.Kind = RequestKind::Edit;
    R.Id = 0x5555;
    R.SessionId = 7;
    R.Ops = {1, 2, 3, 4, 5};
    Rs.push_back(R);
  }
  {
    Request R;
    R.Kind = RequestKind::QueryAttribute;
    R.Id = 0x6666;
    R.SessionId = 7;
    R.Path = {0, 1, 0};
    R.Attr = "value";
    Rs.push_back(R);
  }
  {
    Request R;
    R.Kind = RequestKind::Snapshot;
    R.Id = 0x7777;
    R.SessionId = 7;
    Rs.push_back(R);
  }
  {
    Request R;
    R.Kind = RequestKind::Stats;
    R.Id = 0x8888;
    Rs.push_back(R);
  }
  {
    Request R;
    R.Kind = RequestKind::CloseSession;
    R.Id = 0x9999;
    R.SessionId = 7;
    Rs.push_back(R);
  }
  return Rs;
}

} // namespace

//===----------------------------------------------------------------------===//
// Protocol codec
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, RequestRoundTripAllKinds) {
  for (const Request &R : sampleRequests()) {
    std::vector<uint8_t> Frame = encodeRequest(R);
    Request Out;
    std::string Reason;
    ASSERT_TRUE(decodeRequest(Frame, Out, Reason))
        << requestKindName(R.Kind) << ": " << Reason;
    EXPECT_EQ(Out.Kind, R.Kind);
    EXPECT_EQ(Out.Id, R.Id);
    EXPECT_EQ(Out.Source, R.Source);
    EXPECT_EQ(Out.OagK, R.OagK);
    EXPECT_EQ(Out.GrammarKey, R.GrammarKey);
    EXPECT_EQ(Out.SessionId, R.SessionId);
    EXPECT_EQ(Out.Terms, R.Terms);
    EXPECT_EQ(Out.Ops, R.Ops);
    EXPECT_EQ(Out.Path, R.Path);
    EXPECT_EQ(Out.Attr, R.Attr);
    ASSERT_EQ(Out.RootInherited.size(), R.RootInherited.size());
    for (size_t I = 0; I != R.RootInherited.size(); ++I) {
      EXPECT_EQ(Out.RootInherited[I].first, R.RootInherited[I].first);
      EXPECT_TRUE(Out.RootInherited[I].second == R.RootInherited[I].second);
    }
  }
}

TEST(ServiceProtocol, ResponseRoundTripAllKinds) {
  Response R;
  R.Kind = RequestKind::RegisterGrammar;
  R.Id = 1;
  R.GrammarKey = 99;
  R.ClassName = "OAG(0)";
  for (RequestKind K :
       {RequestKind::RegisterGrammar, RequestKind::Evaluate,
        RequestKind::EvaluateBatch, RequestKind::OpenSession,
        RequestKind::Edit, RequestKind::QueryAttribute, RequestKind::Snapshot,
        RequestKind::Stats, RequestKind::CloseSession}) {
    Response S;
    S.Kind = K;
    S.Id = 0xF0F0;
    S.GrammarKey = 99;
    S.ClassName = "OAG(0)";
    S.SessionId = 7;
    S.Digest = 0xDEADBEEF;
    S.Applied = 3;
    S.Digests = {1, 2, 0};
    S.Failed = 1;
    S.Attrs.emplace_back("value", Value::ofInt(11));
    S.Bytes = {9, 8, 7};
    std::vector<uint8_t> Frame = encodeResponse(S);
    Response Out;
    std::string Reason;
    ASSERT_TRUE(decodeResponse(Frame, Out, Reason))
        << requestKindName(K) << ": " << Reason;
    EXPECT_EQ(Out.Kind, K);
    EXPECT_EQ(Out.Id, S.Id);
    EXPECT_TRUE(Out.ok());
  }

  // Error responses carry only the reason.
  Response E;
  E.Kind = RequestKind::Evaluate;
  E.Id = 5;
  E.St = Status::Error;
  E.Error = "evaluate: unknown grammar key";
  std::vector<uint8_t> Frame = encodeResponse(E);
  Response Out;
  std::string Reason;
  ASSERT_TRUE(decodeResponse(Frame, Out, Reason)) << Reason;
  EXPECT_FALSE(Out.ok());
  EXPECT_EQ(Out.Error, E.Error);
}

TEST(ServiceProtocol, HeaderRejectionsAreSectionPrefixed) {
  Request R;
  R.Kind = RequestKind::Stats;
  R.Id = 1;
  std::vector<uint8_t> Frame = encodeRequest(R);

  auto expectReject = [](std::vector<uint8_t> F, const std::string &Prefix) {
    Request Out;
    std::string Reason;
    EXPECT_FALSE(decodeRequest(F, Out, Reason));
    EXPECT_EQ(Reason.rfind(Prefix, 0), 0u)
        << "reason '" << Reason << "' lacks prefix '" << Prefix << "'";
  };

  std::vector<uint8_t> BadMagic = Frame;
  BadMagic[0] ^= 0xFF;
  expectReject(BadMagic, "frame:");

  std::vector<uint8_t> BadVersion = Frame;
  BadVersion[4] = 0xEE;
  expectReject(BadVersion, "frame:");

  std::vector<uint8_t> BadKind = Frame;
  BadKind[8] = 200;
  expectReject(BadKind, "frame:");

  std::vector<uint8_t> Trailing = Frame;
  Trailing.push_back(0);
  expectReject(Trailing, "frame:");

  expectReject({}, "frame:");
}

TEST(ServiceProtocol, SemanticRejectionsAreSectionPrefixed) {
  auto expectReject = [](Request R, const std::string &Prefix) {
    std::vector<uint8_t> F = encodeRequest(R);
    Request Out;
    std::string Reason;
    EXPECT_FALSE(decodeRequest(F, Out, Reason)) << requestKindName(R.Kind);
    EXPECT_EQ(Reason.rfind(Prefix, 0), 0u)
        << "reason '" << Reason << "' lacks prefix '" << Prefix << "'";
  };

  Request R;
  R.Kind = RequestKind::RegisterGrammar;
  R.Source = "";
  expectReject(R, "register:");
  R.Source = "builtin:desk";
  R.OagK = 9;
  expectReject(R, "register:");

  Request Ev;
  Ev.Kind = RequestKind::Evaluate;
  Ev.GrammarKey = 1;
  Ev.Terms = {""};
  expectReject(Ev, "evaluate:");

  Request Batch;
  Batch.Kind = RequestKind::EvaluateBatch;
  Batch.GrammarKey = 1;
  expectReject(Batch, "evaluate:"); // empty batch

  Request Edit;
  Edit.Kind = RequestKind::Edit;
  Edit.SessionId = 1;
  expectReject(Edit, "edit:"); // empty op stream

  Request Q;
  Q.Kind = RequestKind::QueryAttribute;
  Q.SessionId = 1;
  Q.Attr = "";
  expectReject(Q, "query:");

  // Error status with an empty reason is itself malformed.
  Response E;
  E.Kind = RequestKind::Stats;
  E.St = Status::Error;
  E.Error = "";
  std::vector<uint8_t> F = encodeResponse(E);
  Response Out;
  std::string Reason;
  EXPECT_FALSE(decodeResponse(F, Out, Reason));
  EXPECT_EQ(Reason.rfind("frame:", 0), 0u);
}

TEST(ServiceProtocol, ExhaustiveByteFlipNeverCrashes) {
  for (const Request &R : sampleRequests()) {
    std::vector<uint8_t> Frame = encodeRequest(R);
    for (size_t I = 0; I != Frame.size(); ++I) {
      std::vector<uint8_t> F = Frame;
      F[I] ^= 0xFF;
      Request Out;
      std::string Reason;
      bool Ok = decodeRequest(F, Out, Reason);
      // A flip in free payload (an id byte, a character of a term) may
      // still decode; a rejection must carry a reason. Either way: no
      // crash, no hang, no OOM — the total-reader contract.
      if (!Ok) {
        EXPECT_FALSE(Reason.empty())
            << requestKindName(R.Kind) << " flip at " << I;
      }
    }
  }
}

TEST(ServiceProtocol, ExhaustiveTruncationRejected) {
  for (const Request &R : sampleRequests()) {
    std::vector<uint8_t> Frame = encodeRequest(R);
    for (size_t Len = 0; Len != Frame.size(); ++Len) {
      std::vector<uint8_t> F(Frame.begin(), Frame.begin() + Len);
      Request Out;
      std::string Reason;
      EXPECT_FALSE(decodeRequest(F, Out, Reason))
          << requestKindName(R.Kind) << " truncated to " << Len;
      EXPECT_FALSE(Reason.empty());
    }
  }
}

TEST(ServiceProtocol, SeededFuzzNeverCrashes) {
  uint64_t State = 0x1234567;
  auto Rand = [&] {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  };
  for (unsigned Round = 0; Round != 2000; ++Round) {
    std::vector<uint8_t> F(Rand() % 96);
    for (uint8_t &B : F)
      B = static_cast<uint8_t>(Rand());
    // Half the rounds get a plausible header so the fuzz reaches the body
    // decoders instead of dying on the magic.
    if (Round % 2 == 0 && F.size() >= 9) {
      serialize::ByteWriter W;
      W.u32(kRequestMagic);
      W.u32(kProtoVersion);
      W.u8(static_cast<uint8_t>(Rand() % kNumRequestKinds));
      std::copy(W.bytes().begin(), W.bytes().end(), F.begin());
    }
    Request Out;
    std::string Reason;
    if (!decodeRequest(F, Out, Reason)) {
      EXPECT_FALSE(Reason.empty());
    }
    Response ROut;
    std::string RReason;
    if (!decodeResponse(F, ROut, RReason)) {
      EXPECT_FALSE(RReason.empty());
    }
  }
}

TEST(ServiceProtocol, FramingSplitAndRejects) {
  std::vector<uint8_t> Stream;
  std::vector<std::vector<uint8_t>> Frames;
  for (const Request &R : sampleRequests()) {
    Frames.push_back(encodeRequest(R));
    appendFrame(Stream, Frames.back());
  }
  std::vector<std::span<const uint8_t>> Views;
  std::string Reason;
  ASSERT_TRUE(splitFrames(Stream, Views, Reason)) << Reason;
  ASSERT_EQ(Views.size(), Frames.size());
  for (size_t I = 0; I != Views.size(); ++I)
    EXPECT_TRUE(std::equal(Views[I].begin(), Views[I].end(),
                           Frames[I].begin(), Frames[I].end()));

  // Truncated length prefix.
  std::vector<uint8_t> Short(Stream.begin(), Stream.begin() + 2);
  EXPECT_FALSE(splitFrames(Short, Views, Reason));
  EXPECT_EQ(Reason.rfind("frame:", 0), 0u);

  // Truncated body.
  std::vector<uint8_t> Cut(Stream.begin(), Stream.end() - 1);
  EXPECT_FALSE(splitFrames(Cut, Views, Reason));
  EXPECT_EQ(Reason.rfind("frame:", 0), 0u);

  // Oversized frame length.
  std::vector<uint8_t> Huge = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(splitFrames(Huge, Views, Reason));
  EXPECT_EQ(Reason.rfind("frame:", 0), 0u);
}

//===----------------------------------------------------------------------===//
// Request-log files
//===----------------------------------------------------------------------===//

TEST(ServiceRequestLog, FileRoundTrip) {
  RequestLog Log;
  for (const Request &R : sampleRequests())
    Log.append(R);
  std::vector<uint8_t> Bytes = Log.encodeFile();

  RequestLog Out;
  std::string Reason;
  ASSERT_TRUE(RequestLog::decodeFile(Bytes, Out, Reason)) << Reason;
  ASSERT_EQ(Out.size(), Log.size());
  for (size_t I = 0; I != Log.size(); ++I)
    EXPECT_EQ(Out.frame(I), Log.frame(I));

  // Re-encoding is byte-stable (the golden log depends on it).
  EXPECT_EQ(Out.encodeFile(), Bytes);
}

TEST(ServiceRequestLog, EveryByteFlipRejected) {
  RequestLog Log;
  Log.append(makeRegister("builtin:desk", 0, 1));
  std::vector<uint8_t> Bytes = Log.encodeFile();
  for (size_t I = 0; I != Bytes.size(); ++I) {
    std::vector<uint8_t> F = Bytes;
    F[I] ^= 0x01;
    RequestLog Out;
    std::string Reason;
    EXPECT_FALSE(RequestLog::decodeFile(F, Out, Reason))
        << "flip at byte " << I << " accepted";
    EXPECT_FALSE(Reason.empty());
  }
  // Truncations too.
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::vector<uint8_t> F(Bytes.begin(), Bytes.begin() + Len);
    RequestLog Out;
    std::string Reason;
    EXPECT_FALSE(RequestLog::decodeFile(F, Out, Reason));
  }
}

//===----------------------------------------------------------------------===//
// Grammar registry
//===----------------------------------------------------------------------===//

TEST(ServiceRegistry, LoadOrGenerateCollapses) {
  GrammarRegistry Reg("", /*Shards=*/4);
  std::string Reason;
  std::shared_ptr<GrammarEntry> A =
      Reg.registerSource("builtin:desk", 0, Reason);
  ASSERT_TRUE(A) << Reason;
  EXPECT_TRUE(A->Ready);
  EXPECT_NE(A->Key, 0u);
  EXPECT_TRUE(A->Gen.Compiled != nullptr);

  // Same source again: the memo collapses onto the same resident entry.
  std::shared_ptr<GrammarEntry> B =
      Reg.registerSource("builtin:desk", 0, Reason);
  ASSERT_TRUE(B) << Reason;
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(Reg.stats().Generated, 1u);

  // Distinct OagK is a distinct registration (the artifact key differs).
  std::shared_ptr<GrammarEntry> C =
      Reg.registerSource("builtin:desk", 1, Reason);
  ASSERT_TRUE(C) << Reason;
  EXPECT_NE(C->Key, A->Key);
  EXPECT_EQ(Reg.stats().Generated, 2u);

  EXPECT_TRUE(Reg.lookup(A->Key) != nullptr);
  EXPECT_TRUE(Reg.lookup(0xDEAD0000DEAD0000ull) == nullptr);
  EXPECT_GE(Reg.stats().Misses, 1u);
}

TEST(ServiceRegistry, RejectsBadSources) {
  GrammarRegistry Reg("");
  std::string Reason;
  EXPECT_TRUE(Reg.registerSource("builtin:nosuch", 0, Reason) == nullptr);
  EXPECT_EQ(Reason.rfind("register:", 0), 0u);
  Reason.clear();
  EXPECT_TRUE(Reg.registerSource("this is not molga $$$", 0, Reason) ==
              nullptr);
  EXPECT_EQ(Reason.rfind("register:", 0), 0u);
  EXPECT_GE(Reg.stats().Rejected, 1u);
}

TEST(ServiceRegistry, EvictionStaleKeyAndDiskReuse) {
  std::string Cache = freshDir("registry-evict");
  // One shard, capacity one: the second registration evicts the first.
  GrammarRegistry Reg(Cache, /*Shards=*/1, /*Capacity=*/1);
  std::string Reason;
  std::shared_ptr<GrammarEntry> Desk =
      Reg.registerSource("builtin:desk", 0, Reason);
  ASSERT_TRUE(Desk) << Reason;
  uint64_t DeskKey = Desk->Key;

  std::shared_ptr<GrammarEntry> Rep =
      Reg.registerSource("builtin:repmin", 0, Reason);
  ASSERT_TRUE(Rep) << Reason;
  EXPECT_EQ(Reg.stats().Evictions, 1u);
  EXPECT_EQ(Reg.size(), 1u);

  // The evicted key is a stale key now: clean miss, not an error.
  EXPECT_TRUE(Reg.lookup(DeskKey) == nullptr);

  // Our shared_ptr still works — eviction never invalidates live users.
  EXPECT_TRUE(Desk->Gen.Compiled != nullptr);
  EXPECT_EQ(Desk->Key, DeskKey);

  // Re-registering regenerates residency; the cascade itself is skipped
  // because the on-disk artifact (stored by the first registration) hits.
  std::shared_ptr<GrammarEntry> Desk2 =
      Reg.registerSource("builtin:desk", 0, Reason);
  ASSERT_TRUE(Desk2) << Reason;
  EXPECT_EQ(Desk2->Key, DeskKey);
  EXPECT_GE(Reg.stats().CacheHits, 1u);
  EXPECT_TRUE(Desk2->Gen.FromCache);
}

//===----------------------------------------------------------------------===//
// Daemon end-to-end
//===----------------------------------------------------------------------===//

namespace {

/// Registers \p Source and returns the grammar key (asserting success).
uint64_t registerGrammar(Daemon &D, const std::string &Source) {
  Response R = D.execute(makeRegister(Source, 0, 1));
  EXPECT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.ClassName.empty());
  return R.GrammarKey;
}

/// A deterministic desk-calculator term of roughly \p Size nodes.
std::string deskTerm(const AttributeGrammar &AG, uint64_t Seed,
                     unsigned Size) {
  TreeGenerator TG(AG, Seed);
  Tree T = TG.generate(Size);
  return writeTerm(AG, T.root());
}

} // namespace

TEST(ServiceDaemon, RegisterEvaluateFlow) {
  DiagnosticEngine GD;
  AttributeGrammar AG = workloads::deskCalculator(GD);
  ASSERT_FALSE(GD.hasErrors());

  Daemon D;
  uint64_t Key = registerGrammar(D, "builtin:desk");
  ASSERT_NE(Key, 0u);

  Request Ev;
  Ev.Kind = RequestKind::Evaluate;
  Ev.Id = 2;
  Ev.GrammarKey = Key;
  Ev.Terms = {deskTerm(AG, 11, 40)};
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      Ev.RootInherited.emplace_back(AG.attr(A).Name, Value::ofInt(7));
  Response R = D.execute(Ev);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_NE(R.Digest, 0u);
  EXPECT_FALSE(R.Attrs.empty());

  // Re-evaluating the identical term gives the identical digest.
  Response R2 = D.execute(Ev);
  ASSERT_TRUE(R2.ok()) << R2.Error;
  EXPECT_EQ(R2.Digest, R.Digest);

  // Unknown key and unparseable term are clean errors.
  Request Bad = Ev;
  Bad.GrammarKey = 0xBADBADBAD;
  EXPECT_EQ(D.execute(Bad).Error.rfind("evaluate:", 0), 0u);
  Bad = Ev;
  Bad.Terms = {"NotAnOperator(1)"};
  EXPECT_EQ(D.execute(Bad).Error.rfind("evaluate:", 0), 0u);

  EXPECT_EQ(D.metrics().value("service.trees_evaluated"), 2u);
  EXPECT_GE(D.metrics().value("service.errors"), 2u);
}

// A lexeme beyond int64 is a term error, not signed overflow and an Ok.
TEST(ServiceDaemon, EvaluateRejectsOutOfRangeLexeme) {
  Daemon D;
  uint64_t Key = registerGrammar(D, "builtin:desk");
  ASSERT_NE(Key, 0u);

  Request Ev;
  Ev.Kind = RequestKind::Evaluate;
  Ev.Id = 3;
  Ev.GrammarKey = Key;
  Ev.Terms = {"Calc(Num<99999999999999999999999>)"};
  Response R = D.execute(Ev);
  EXPECT_EQ(R.St, Status::Error);
  EXPECT_EQ(R.Error.rfind("evaluate:", 0), 0u) << R.Error;
  EXPECT_NE(R.Error.find("lexeme out of range"), std::string::npos) << R.Error;
  EXPECT_EQ(D.metrics().value("service.trees_evaluated"), 0u);
}

// A registered grammar whose function recurses without end: the molga
// interpreter's depth bound ends the evaluation instead of the stack, and
// the daemon keeps answering.
TEST(ServiceDaemon, RunawayRecursionInAGrammarIsAnswered) {
  const std::string Src = R"(
module Deep
  fun down(n: int): int = if n <= 0 then 0 else 1 + down(n - 1)
end
grammar Deep
  import Deep
  phylum Top root
  attr Top syn v : int
  operator Num() -> Top lexeme int
  rules for Num
    Top.v := down(lexeme)
  end
end
)";
  Daemon D;
  uint64_t Key = registerGrammar(D, Src);
  ASSERT_NE(Key, 0u);

  Request Ev;
  Ev.Kind = RequestKind::Evaluate;
  Ev.Id = 4;
  Ev.GrammarKey = Key;
  Ev.Terms = {"Num<1000000>"};
  Response Deep = D.execute(Ev);
  EXPECT_EQ(Deep.Id, 4u);
  EXPECT_TRUE(Deep.St == Status::Ok || Deep.St == Status::Error);
  // The runaway call ends with one depth error in the grammar's runtime
  // log. The daemon does not yet put runtime errors into its response
  // (ROADMAP item 7), so the log is where the error shows.
  std::shared_ptr<GrammarEntry> Entry = D.registry().lookup(Key);
  ASSERT_TRUE(Entry);
  ASSERT_EQ(Entry->Compile.Grammars.size(), 1u);
  const DiagnosticEngine &Runtime = *Entry->Compile.Grammars[0].RuntimeDiags;
  EXPECT_EQ(Runtime.errorCount(), 1u) << Runtime.dump();
  EXPECT_NE(Runtime.dump().find("nested deeper than"), std::string::npos)
      << Runtime.dump();

  Ev.Id = 5;
  Ev.Terms = {"Num<25>"};
  Response Shallow = D.execute(Ev);
  ASSERT_TRUE(Shallow.ok()) << Shallow.Error;
  EXPECT_EQ(Shallow.Id, 5u);
  ASSERT_EQ(Shallow.Attrs.size(), 1u);
  EXPECT_EQ(Shallow.Attrs[0].second.asInt(), 25);
}

TEST(ServiceDaemon, BatchMergedAgreesWithSequential) {
  DiagnosticEngine GD;
  AttributeGrammar AG = workloads::deskCalculator(GD);
  ASSERT_FALSE(GD.hasErrors());

  Request Batch;
  Batch.Kind = RequestKind::EvaluateBatch;
  Batch.Id = 3;
  for (unsigned I = 0; I != 12; ++I)
    Batch.Terms.push_back(deskTerm(AG, 100 + I, 30));
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      Batch.RootInherited.emplace_back(AG.attr(A).Name, Value::ofInt(7));

  // One daemon routes the batch through the merged SoA engine, the other
  // through the sequential per-tree path; the digests must agree exactly.
  DaemonOptions Merged;
  Merged.MergedBatchMin = 8;
  DaemonOptions Seq;
  Seq.MergedBatchMin = 1000;

  Daemon DM(Merged), DS(Seq);
  Batch.GrammarKey = registerGrammar(DM, "builtin:desk");
  Response RM = DM.execute(Batch);
  Batch.GrammarKey = registerGrammar(DS, "builtin:desk");
  Response RS = DS.execute(Batch);
  ASSERT_TRUE(RM.ok()) << RM.Error;
  ASSERT_TRUE(RS.ok()) << RS.Error;
  EXPECT_EQ(RM.Failed, 0u);
  ASSERT_EQ(RM.Digests.size(), Batch.Terms.size());
  EXPECT_EQ(RM.Digests, RS.Digests);
  for (uint64_t D : RM.Digests)
    EXPECT_NE(D, 0u);

  // A term that fails to parse consumes its slot with digest 0 and counts
  // as failed, without failing the batch.
  Batch.Terms[5] = "Bogus<<<";
  Response RF = DM.execute(Batch);
  ASSERT_TRUE(RF.ok()) << RF.Error;
  EXPECT_EQ(RF.Failed, 1u);
  EXPECT_EQ(RF.Digests[5], 0u);
  EXPECT_EQ(RF.Digests[0], RM.Digests[0]);
}

TEST(ServiceDaemon, SessionLifecycleWithSnapshotRestore) {
  DiagnosticEngine GD;
  AttributeGrammar AG = workloads::deskCalculator(GD);
  ASSERT_FALSE(GD.hasErrors());

  Daemon D;
  uint64_t Key = registerGrammar(D, "builtin:desk");

  // Open a session on a generated tree, mirroring it locally so we can
  // build valid edit ops against the daemon's state.
  TreeGenerator TG(AG, 77);
  Tree Local = TG.generate(50);
  Request Open;
  Open.Kind = RequestKind::OpenSession;
  Open.Id = 10;
  Open.GrammarKey = Key;
  Open.SessionId = 0x4200000001ull;
  Open.Terms = {writeTerm(AG, Local.root())};
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      Open.RootInherited.emplace_back(AG.attr(A).Name, Value::ofInt(7));
  Response RO = D.execute(Open);
  ASSERT_TRUE(RO.ok()) << RO.Error;
  EXPECT_EQ(RO.SessionId, Open.SessionId);
  EXPECT_NE(RO.Digest, 0u);

  // Apply a stream of generated edits, tracking the tree locally.
  EditScriptGen ESG(AG, {.Seed = 99});
  uint64_t LastDigest = RO.Digest;
  for (unsigned I = 0; I != 6; ++I) {
    EditOp Op = ESG.next(Local);
    EditLog L;
    L.append(std::move(Op));
    DiagnosticEngine AD;
    ASSERT_TRUE(L.apply(0, Local, nullptr, AD)) << AD.dump();

    Request Edit;
    Edit.Kind = RequestKind::Edit;
    Edit.Id = 11 + I;
    Edit.SessionId = Open.SessionId;
    serialize::ByteWriter W;
    L.encode(W);
    Edit.Ops = W.take();
    Response RE = D.execute(Edit);
    ASSERT_TRUE(RE.ok()) << RE.Error;
    EXPECT_EQ(RE.Applied, 1u);
    LastDigest = RE.Digest;
  }
  EXPECT_EQ(D.metrics().value("service.edits"), 6u);

  // Query the root's synthesized attributes — they must match a from-
  // scratch evaluation of the mirrored tree.
  std::string Reason;
  std::shared_ptr<GrammarEntry> E = D.registry().lookup(Key);
  ASSERT_TRUE(E != nullptr);
  Evaluator Ev(E->Gen.Compiled->CP);
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      Ev.setRootInherited(A, Value::ofInt(7));
  DiagnosticEngine ED;
  Tree Fresh = readTerm(AG, writeTerm(AG, Local.root()), ED);
  ASSERT_TRUE(Ev.evaluate(Fresh, ED)) << ED.dump();
  for (AttrId A : AG.phylum(AG.Start).Attrs) {
    const Attribute &At = AG.attr(A);
    if (!At.isSynthesized())
      continue;
    Request Q;
    Q.Kind = RequestKind::QueryAttribute;
    Q.Id = 50;
    Q.SessionId = Open.SessionId;
    Q.Attr = At.Name;
    Response RQ = D.execute(Q);
    ASSERT_TRUE(RQ.ok()) << RQ.Error;
    ASSERT_EQ(RQ.Attrs.size(), 1u);
    EXPECT_TRUE(RQ.Attrs[0].second == Fresh.root()->attrVal(At.IndexInOwner))
        << At.Name;
  }

  // Query rejections: bad path, bad attribute, bad session.
  Request Q;
  Q.Kind = RequestKind::QueryAttribute;
  Q.Id = 51;
  Q.SessionId = Open.SessionId;
  Q.Attr = "nosuchattr";
  EXPECT_EQ(D.execute(Q).Error.rfind("query:", 0), 0u);
  Q.Attr = "value";
  Q.Path.assign(30, 9);
  EXPECT_EQ(D.execute(Q).Error.rfind("query:", 0), 0u);
  Q.Path.clear();
  Q.SessionId = 0xEEEE;
  EXPECT_EQ(D.execute(Q).Error.rfind("query:", 0), 0u);

  // Snapshot: the image restores into a fresh session over the same shared
  // artifact with the identical attribution digest.
  Request Snap;
  Snap.Kind = RequestKind::Snapshot;
  Snap.Id = 60;
  Snap.SessionId = Open.SessionId;
  Response RS = D.execute(Snap);
  ASSERT_TRUE(RS.ok()) << RS.Error;
  EXPECT_EQ(RS.Digest, LastDigest);
  ASSERT_FALSE(RS.Bytes.empty());

  IncrementalSession Restored(*E->AG, E->Gen.Compiled);
  ASSERT_TRUE(Restored.restore(RS.Bytes, Reason)) << Reason;
  EXPECT_EQ(Restored.attributionDigest(), LastDigest);

  // Close, then every session op on the id is an error.
  Request Close;
  Close.Kind = RequestKind::CloseSession;
  Close.Id = 70;
  Close.SessionId = Open.SessionId;
  ASSERT_TRUE(D.execute(Close).ok());
  EXPECT_EQ(D.execute(Close).Error.rfind("session:", 0), 0u);
  EXPECT_EQ(D.execute(Snap).Error.rfind("snapshot:", 0), 0u);
  EXPECT_EQ(D.numSessions(), 0u);
}

TEST(ServiceDaemon, MalformedFramesGetErrorResponses) {
  Daemon D;
  std::vector<uint8_t> Garbage = {1, 2, 3, 4, 5};
  std::vector<uint8_t> RespFrame = D.executeFrame(Garbage);
  Response R;
  std::string Reason;
  ASSERT_TRUE(decodeResponse(RespFrame, R, Reason)) << Reason;
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error.rfind("frame:", 0), 0u);
  EXPECT_EQ(D.metrics().value("service.malformed_frames"), 1u);

  // The admission-queue path answers malformed frames too.
  std::vector<uint8_t> Resp2 = D.call(Garbage);
  EXPECT_EQ(Resp2, RespFrame);
  EXPECT_EQ(D.metrics().value("service.malformed_frames"), 2u);
}

// A malformed frame is one error, counted once: the Stats JSON's daemon
// block and its metrics block read the same counter.
TEST(ServiceDaemon, MalformedFrameIsCountedOnce) {
  Daemon D;
  std::vector<uint8_t> Garbage = {1, 2, 3, 4, 5};
  D.executeFrame(Garbage);
  std::string J = D.statsJson();
  EXPECT_NE(J.find("\"daemon\": {\"requests\": 0, \"errors\": 1, "
                   "\"malformed_frames\": 1,"),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"service.errors\": 1"), std::string::npos) << J;
  EXPECT_EQ(D.metrics().value("service.errors"), 1u);
}

TEST(ServiceDaemon, StatsEndpointIsLiveJson) {
  Daemon D;
  registerGrammar(D, "builtin:desk");
  Request St;
  St.Kind = RequestKind::Stats;
  St.Id = 9;
  Response R = D.execute(St);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string J(R.Bytes.begin(), R.Bytes.end());
  EXPECT_NE(J.find("\"daemon\""), std::string::npos);
  EXPECT_NE(J.find("\"registry\""), std::string::npos);
  EXPECT_NE(J.find("\"metrics\""), std::string::npos);
  EXPECT_NE(J.find("\"requests\""), std::string::npos);
}

TEST(ServiceDaemon, SocketTransportRoundTrip) {
  DiagnosticEngine GD;
  AttributeGrammar AG = workloads::deskCalculator(GD);
  Daemon D;
  SocketServer Server(D);
  std::string Path = ::testing::TempDir() + "fnc2d-test.sock";
  std::string Reason;
  ASSERT_TRUE(Server.start(Path, Reason)) << Reason;

  SocketClient Client;
  ASSERT_TRUE(Client.connect(Path, Reason)) << Reason;

  std::vector<uint8_t> Resp;
  ASSERT_TRUE(Client.roundTrip(encodeRequest(makeRegister("builtin:desk", 0, 1)),
                               Resp, Reason))
      << Reason;
  Response R;
  ASSERT_TRUE(decodeResponse(Resp, R, Reason)) << Reason;
  ASSERT_TRUE(R.ok()) << R.Error;
  uint64_t Key = R.GrammarKey;

  Request Ev;
  Ev.Kind = RequestKind::Evaluate;
  Ev.Id = 2;
  Ev.GrammarKey = Key;
  Ev.Terms = {deskTerm(AG, 5, 20)};
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      Ev.RootInherited.emplace_back(AG.attr(A).Name, Value::ofInt(7));
  ASSERT_TRUE(Client.roundTrip(encodeRequest(Ev), Resp, Reason)) << Reason;
  ASSERT_TRUE(decodeResponse(Resp, R, Reason)) << Reason;
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_NE(R.Digest, 0u);

  // In-process dispatch answers identically.
  EXPECT_EQ(D.execute(Ev).Digest, R.Digest);

  Client.close();
  Server.stop();
  EXPECT_FALSE(Server.running());
}

//===----------------------------------------------------------------------===//
// Golden end-to-end transcript
//===----------------------------------------------------------------------===//

/// Names the response frames where transcript \p Got differs from \p Want:
/// the first one's index and request kind, then every differing index and
/// kind, so a drift shows which request kinds moved. Empty when the two
/// agree byte for byte.
std::string transcriptDrift(std::span<const uint8_t> Want,
                            std::span<const uint8_t> Got) {
  if (std::equal(Want.begin(), Want.end(), Got.begin(), Got.end()))
    return "";
  std::vector<std::span<const uint8_t>> W, G;
  std::string Reason;
  if (!splitFrames(Want, W, Reason) || !splitFrames(Got, G, Reason))
    return "unframed transcript: " + Reason;
  std::string Out;
  if (W.size() != G.size())
    Out = std::to_string(W.size()) + " golden frames vs " +
          std::to_string(G.size()) + " replayed; ";
  unsigned NumDiffering = 0;
  std::string List;
  for (size_t I = 0; I != std::min(W.size(), G.size()); ++I) {
    if (std::equal(W[I].begin(), W[I].end(), G[I].begin(), G[I].end()))
      continue;
    Response R;
    std::string Kind = decodeResponse(G[I], R, Reason)
                           ? requestKindName(R.Kind)
                           : "undecodable";
    std::string Entry = std::to_string(I) + " (" + Kind + ")";
    if (NumDiffering++ == 0)
      Out += "first differing response frame " + Entry + "; ";
    List += (List.empty() ? "" : ", ") + Entry;
  }
  return Out + std::to_string(NumDiffering) + " differing: " + List;
}

// A committed request log replayed through a fresh daemon must produce a
// byte-stable response transcript. Both files regenerate with
// FNC2_UPDATE_GOLDENS=1; request-log drift and response drift fail
// separately so the culprit layer is obvious.
TEST(ServiceGolden, DeskTrafficTranscriptIsByteStable) {
  DiagnosticEngine GD;
  AttributeGrammar AG = workloads::deskCalculator(GD);
  ASSERT_FALSE(GD.hasErrors());

  // The grammar key is the deterministic artifact content hash, so the log
  // can be generated without a daemon.
  GeneratorOptions Opts;
  uint64_t Key = ArtifactCache::artifactKey(AG, Opts);

  TrafficOptions TO;
  TO.Seed = 42;
  TO.ClientId = 1;
  TO.Sessions = 2;
  TO.EditsPerSession = 6;
  TO.OneShots = 3;
  TO.Batches = 1;
  TO.BatchSize = 10;
  TO.TreeSize = 40;
  RequestLog Traffic = generateTraffic(AG, Key, TO);

  RequestLog Log;
  Log.append(makeRegister("builtin:desk", 0, 1));
  for (size_t I = 0; I != Traffic.size(); ++I)
    Log.appendFrame(Traffic.frame(I));
  std::vector<uint8_t> LogBytes = Log.encodeFile();

  Daemon D;
  std::vector<uint8_t> Transcript = replayTranscript(D, Log);
  ASSERT_FALSE(Transcript.empty());

  // Every response in the transcript must be ok — the log was generated
  // against the state the daemon holds.
  std::vector<std::span<const uint8_t>> Views;
  std::string Reason;
  ASSERT_TRUE(splitFrames(Transcript, Views, Reason)) << Reason;
  ASSERT_EQ(Views.size(), Log.size());
  for (size_t I = 0; I != Views.size(); ++I) {
    Response R;
    ASSERT_TRUE(decodeResponse(Views[I], R, Reason)) << Reason;
    EXPECT_TRUE(R.ok()) << "request " << I << ": " << R.Error;
  }

  const std::string LogPath =
      std::string(FNC2_GOLDEN_DIR) + "/service_desk_requests.golden";
  const std::string TranscriptPath =
      std::string(FNC2_GOLDEN_DIR) + "/service_desk.golden";
  if (std::getenv("FNC2_UPDATE_GOLDENS")) {
    writeFileBytes(LogPath, LogBytes);
    writeFileBytes(TranscriptPath, Transcript);
    return;
  }

  std::vector<uint8_t> GoldenLog = readFileBytes(LogPath);
  ASSERT_FALSE(GoldenLog.empty())
      << "missing golden " << LogPath
      << " (regenerate with FNC2_UPDATE_GOLDENS=1)";
  EXPECT_EQ(GoldenLog, LogBytes)
      << "request-log bytes drifted — the traffic generator or the wire "
         "format changed; regenerate with FNC2_UPDATE_GOLDENS=1";

  std::vector<uint8_t> GoldenTranscript = readFileBytes(TranscriptPath);
  ASSERT_FALSE(GoldenTranscript.empty())
      << "missing golden " << TranscriptPath
      << " (regenerate with FNC2_UPDATE_GOLDENS=1)";
  EXPECT_EQ(transcriptDrift(GoldenTranscript, Transcript), "")
      << "response transcript drifted — daemon behaviour changed; "
         "regenerate with FNC2_UPDATE_GOLDENS=1";

  // And the committed log itself replays to the committed transcript (the
  // actual end-to-end property: committed input → committed output).
  RequestLog Committed;
  ASSERT_TRUE(RequestLog::decodeFile(GoldenLog, Committed, Reason)) << Reason;
  Daemon D2;
  EXPECT_EQ(transcriptDrift(GoldenTranscript, replayTranscript(D2, Committed)),
            "");
}
