//===- tests/ServiceSoakTest.cpp - concurrent clients vs serial oracle ----===//
//
// The fnc2d concurrency soak: N client threads fire mixed request streams
// (sessions with edit scripts, one-shot evaluations, merged batches) at one
// daemon through the admission queue, all sharing a single resident
// CompiledArtifact. Each client's response stream must be bit-identical to
// a fresh daemon replaying the same log serially — concurrency must be
// unobservable on the wire.
//
// This test runs under the ci.sh TSan and ASan gates; the per-session
// mutexes, registry shards, pool serialization, and metrics registry all
// get exercised under real contention here, with a Stats reader
// snapshotting the registry mid-flight.
//
//===----------------------------------------------------------------------===//

#include "service/Traffic.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"

#include <atomic>
#include <gtest/gtest.h>
#include <thread>

using namespace fnc2;
using namespace fnc2::service;

namespace {

/// One client's scripted workload: a register frame followed by seeded
/// mixed traffic. ClientId namespaces request and session ids so streams
/// never collide across threads.
RequestLog clientLog(const AttributeGrammar &AG, const std::string &Source,
                     uint64_t Key, unsigned ClientId, uint64_t Seed) {
  TrafficOptions TO;
  TO.Seed = Seed;
  TO.ClientId = ClientId;
  TO.Sessions = 1;
  TO.EditsPerSession = 6;
  TO.QueryEvery = 2;
  TO.OneShots = 2;
  TO.Batches = 1;
  TO.BatchSize = 10;
  TO.TreeSize = 40;
  RequestLog Traffic = generateTraffic(AG, Key, TO);

  RequestLog Log;
  Log.append(makeRegister(Source, 0, (uint64_t(ClientId) << 32) | 0xFFFF));
  for (size_t I = 0; I != Traffic.size(); ++I)
    Log.appendFrame(Traffic.frame(I));
  return Log;
}

/// Every response frame in \p Transcript decodes and reports Ok.
void expectAllOk(std::span<const uint8_t> Transcript, unsigned ClientId) {
  std::vector<std::span<const uint8_t>> Views;
  std::string Reason;
  ASSERT_TRUE(splitFrames(Transcript, Views, Reason)) << Reason;
  for (size_t I = 0; I != Views.size(); ++I) {
    Response R;
    ASSERT_TRUE(decodeResponse(Views[I], R, Reason)) << Reason;
    EXPECT_TRUE(R.ok()) << "client " << ClientId << " request " << I << ": "
                        << R.Error;
  }
}

} // namespace

// Eight clients, one grammar, one shared artifact. The acceptance bar from
// the issue: clean under TSan with >= 8 concurrent clients sharing one
// CompiledArtifact.
TEST(ServiceSoak, EightClientsOneGrammarBitIdenticalToOracle) {
  DiagnosticEngine GD;
  AttributeGrammar AG = workloads::deskCalculator(GD);
  ASSERT_FALSE(GD.hasErrors());
  GeneratorOptions GO;
  uint64_t Key = ArtifactCache::artifactKey(AG, GO);

  constexpr unsigned kClients = 8;
  std::vector<RequestLog> Logs;
  for (unsigned C = 0; C != kClients; ++C)
    Logs.push_back(clientLog(AG, "builtin:desk", Key, C + 1, 1000 + C));

  // Concurrent run: one daemon, each client walks its own log through the
  // admission queue in order.
  DaemonOptions Opts;
  Opts.Executors = 4;
  Opts.PoolThreads = 4;
  Daemon D(Opts);
  std::vector<std::vector<uint8_t>> Concurrent(kClients);
  // A ninth thread reads Stats through the same queue while the clients
  // run, so the live snapshot races every counter update.
  uint64_t StatsCalls = 0;
  {
    std::atomic<bool> ClientsDone{false};
    Request St;
    St.Kind = RequestKind::Stats;
    St.Id = 0xFFFFFFFFull;
    std::vector<uint8_t> StatsFrame = encodeRequest(St);
    std::thread StatsReader([&] {
      do {
        Response R;
        std::string Reason;
        EXPECT_TRUE(decodeResponse(D.call(StatsFrame), R, Reason)) << Reason;
        EXPECT_TRUE(R.ok()) << R.Error;
        ++StatsCalls;
      } while (!ClientsDone.load());
    });
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != kClients; ++C)
      Threads.emplace_back([&, C] {
        for (size_t I = 0; I != Logs[C].size(); ++I)
          appendFrame(Concurrent[C], D.call(Logs[C].frame(I)));
      });
    for (std::thread &T : Threads)
      T.join();
    ClientsDone.store(true);
    StatsReader.join();
  }

  // All eight registrations collapsed onto one generation of one artifact.
  EXPECT_EQ(D.registry().stats().Generated, 1u);
  EXPECT_EQ(D.registry().size(), 1u);
  EXPECT_EQ(D.numSessions(), 0u);
  EXPECT_EQ(D.metrics().value("service.malformed_frames"), 0u);
  EXPECT_EQ(D.metrics().value("service.errors"), 0u);
  uint64_t Frames = StatsCalls;
  for (const RequestLog &L : Logs)
    Frames += L.size();
  EXPECT_GT(StatsCalls, 0u);
  EXPECT_EQ(D.metrics().value("service.requests"), Frames);

  // Oracle: a fresh daemon replays each client's log serially. The
  // per-client response stream must match byte for byte.
  for (unsigned C = 0; C != kClients; ++C) {
    expectAllOk(Concurrent[C], C + 1);
    Daemon Oracle;
    std::vector<uint8_t> Serial = replayTranscript(Oracle, Logs[C]);
    EXPECT_EQ(Concurrent[C], Serial)
        << "client " << (C + 1)
        << ": concurrent responses diverged from serial oracle";
  }
}

// Nine clients across three grammars: registry sharding and load-or-
// generate collapsing under cross-grammar contention.
TEST(ServiceSoak, MixedGrammarsCollapseGeneration) {
  DiagnosticEngine GD;
  struct Mix {
    std::string Source;
    AttributeGrammar AG;
    uint64_t Key;
  };
  std::vector<Mix> Mixes;
  Mixes.push_back({"builtin:desk", workloads::deskCalculator(GD), 0});
  Mixes.push_back({"builtin:repmin", workloads::repmin(GD), 0});
  Mixes.push_back({"builtin:binary", workloads::binaryNumbers(GD), 0});
  ASSERT_FALSE(GD.hasErrors());
  GeneratorOptions GO;
  for (Mix &M : Mixes)
    M.Key = ArtifactCache::artifactKey(M.AG, GO);

  constexpr unsigned kClients = 9;
  std::vector<RequestLog> Logs;
  for (unsigned C = 0; C != kClients; ++C) {
    const Mix &M = Mixes[C % Mixes.size()];
    Logs.push_back(clientLog(M.AG, M.Source, M.Key, C + 1, 2000 + C));
  }

  Daemon D;
  std::vector<std::vector<uint8_t>> Concurrent(kClients);
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != kClients; ++C)
      Threads.emplace_back([&, C] {
        for (size_t I = 0; I != Logs[C].size(); ++I)
          appendFrame(Concurrent[C], D.call(Logs[C].frame(I)));
      });
    for (std::thread &T : Threads)
      T.join();
  }

  EXPECT_EQ(D.registry().stats().Generated, 3u);
  EXPECT_EQ(D.registry().size(), 3u);
  EXPECT_EQ(D.metrics().value("service.errors"), 0u);

  for (unsigned C = 0; C != kClients; ++C) {
    expectAllOk(Concurrent[C], C + 1);
    Daemon Oracle;
    EXPECT_EQ(Concurrent[C], replayTranscript(Oracle, Logs[C]))
        << "client " << (C + 1) << " diverged from serial oracle";
  }
}
