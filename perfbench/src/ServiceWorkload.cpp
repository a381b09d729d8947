//===- perfbench/src/ServiceWorkload.cpp - fnc2d over a Unix socket -------===//
//
// fnc2d in-process: a Daemon and its SocketServer run on threads of this
// process, and Clients closed-loop client threads talk to it through
// SocketClient: each sends its next request only after the reply arrived,
// as an editor or a build tool would. Two clients leave the other cores to
// the daemon's executors.
//
// Traffic comes from generateTraffic over six grammars registered in
// set-up (never in the timed loop): desk, repmin and binary (the daemon's
// builtins), two molga system AGs and one seeded SpecGen grammar. Session
// documents have a few thousand nodes, so that an edit is small next to
// the full tree.
//
// Oracle: each client's responses must be byte-equal to a serial
// replayTranscript of its own request stream through a fresh daemon.
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"
#include "Workloads.h"

#include "fnc2/ArtifactCache.h"
#include "incremental/Session.h"
#include "olga/Driver.h"
#include "service/SocketServer.h"
#include "service/Traffic.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/SpecGen.h"

#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>

#include <unistd.h>

using namespace fnc2;
using namespace fnc2::service;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

constexpr unsigned Clients = 2;

struct ServiceGrammar {
  std::string Name;
  std::string Source; ///< What goes over the wire.
  unsigned OagK = 0;
  std::optional<olga::CompileResult> Compiled;
  std::optional<AttributeGrammar> Built;
  const AttributeGrammar *AG = nullptr;
  uint64_t Key = 0;
};

/// The seeded inputs: grammars and each client's request stream.
struct ServiceInputs {
  std::vector<std::unique_ptr<ServiceGrammar>> Grammars;
  std::vector<std::vector<uint8_t>> RegisterFrames;
  /// Per client: the frames of its transcript, in order.
  std::vector<RequestLog> Logs;
};

ServiceInputs makeInputs(const Options &O) {
  ServiceInputs In;
  auto Add = [&](std::string Name, std::string Source, unsigned OagK) {
    auto G = std::make_unique<ServiceGrammar>();
    G->Name = std::move(Name);
    G->Source = std::move(Source);
    G->OagK = OagK;
    DiagnosticEngine D;
    if (G->Source == "builtin:desk")
      G->Built.emplace(workloads::deskCalculator(D));
    else if (G->Source == "builtin:repmin")
      G->Built.emplace(workloads::repmin(D));
    else if (G->Source == "builtin:binary")
      G->Built.emplace(workloads::binaryNumbers(D));
    if (G->Built) {
      G->AG = &*G->Built;
    } else {
      G->Compiled.emplace(olga::compileMolga(G->Source, D));
      if (G->Compiled->Success)
        G->AG = &G->Compiled->Grammars.front().AG;
    }
    if (!G->AG || D.hasErrors())
      fatal("service grammar " + G->Name + " failed:\n" + D.dump());
    GeneratorOptions GO;
    GO.OagK = OagK;
    G->Key = ArtifactCache::artifactKey(*G->AG, GO);
    In.Grammars.push_back(std::move(G));
  };
  Add("desk", "builtin:desk", 0);
  Add("repmin", "builtin:repmin", 0);
  Add("binary", "builtin:binary", 0);
  std::vector<workloads::SystemAg> Suite = workloads::systemAgSuite();
  Add(Suite[0].Name, Suite[0].Source, Suite[0].OagK);
  Add(Suite[1].Name, Suite[1].Source, Suite[1].OagK);
  workloads::SpecGenOptions SO;
  SO.Name = "Svc";
  SO.Phyla = 16;
  SO.OperatorsPerPhylum = 4;
  SO.AttrPairs = 3;
  SO.Seed = 7;
  Add("specgen-S2", workloads::generateMolgaSpec(SO), 0);

  for (size_t G = 0; G != In.Grammars.size(); ++G)
    In.RegisterFrames.push_back(encodeRequest(makeRegister(
        In.Grammars[G]->Source, In.Grammars[G]->OagK, 0xFFFF0000 + G)));

  for (unsigned C = 0; C != Clients; ++C) {
    RequestLog Log;
    for (size_t G = 0; G != In.Grammars.size(); ++G) {
      TrafficOptions TO;
      TO.Seed = subSeed(O.Seed, 1000 + C * 16 + G);
      TO.ClientId = uint32_t(C * 16 + G + 1);
      TO.Sessions = 4;
      TO.EditsPerSession = 24;
      TO.QueryEvery = 3;
      TO.OneShots = 4;
      TO.Batches = 1;
      TO.BatchSize = 12;
      TO.TreeSize = O.Smoke ? 120 : 2000;
      RequestLog Part = generateTraffic(*In.Grammars[G]->AG,
                                        In.Grammars[G]->Key, TO);
      for (size_t I = 0; I != Part.size(); ++I)
        Log.appendFrame(Part.frame(I));
    }
    In.Logs.push_back(std::move(Log));
  }
  return In;
}

bool isCold(RequestKind K) {
  return K == RequestKind::Evaluate || K == RequestKind::EvaluateBatch ||
         K == RequestKind::OpenSession;
}

class ServiceWorkload : public Workload {
public:
  ServiceWorkload(const Options &O, Report &R);
  ~ServiceWorkload() override;
  Samples run(double Seconds, bool Traced, Report &R) override;
  void addLayerMetrics(const Samples &Untraced, const Samples &Traced,
                       Report &R) override;

private:
  DaemonOptions daemonOptions() const;
  /// Checks one response against the oracle transcript.
  void checkResponse(unsigned C, size_t I, const std::vector<uint8_t> &Resp,
                     Report &R, const char *Path);
  void replayIncremental(Report &R);

  ServiceInputs In;
  std::string CacheDir;
  std::string SocketPath;
  /// Per client: the request kind and the oracle response of each frame.
  std::vector<std::vector<RequestKind>> Kinds;
  std::vector<std::vector<std::vector<uint8_t>>> Expected;
  std::unique_ptr<Daemon> D;
  std::unique_ptr<SocketServer> Server;
  std::vector<std::unique_ptr<SocketClient>> Conns;
  /// Per request kind: latencies of the last untraced run.
  std::vector<std::vector<double>> KindMs;
  bool FaultPending = false;
  std::mutex ReportMu;
};

DaemonOptions ServiceWorkload::daemonOptions() const {
  DaemonOptions DO;
  DO.Executors = Clients;
  DO.PoolThreads = Clients;
  DO.CacheDir = CacheDir;
  return DO;
}

ServiceWorkload::ServiceWorkload(const Options &O, Report &R)
    : In(makeInputs(O)) {
  static std::atomic<unsigned> Instance{0};
  const std::string Tag =
      std::to_string(::getpid()) + "-" + std::to_string(Instance++);
  CacheDir = "service-cache-" + Tag;
  // sun_path holds about 108 bytes: keep the socket name short and
  // relative to the working directory.
  SocketPath = "d" + Tag + ".sock";
  FaultPending = O.Inject == Fault::Response;

  D = std::make_unique<Daemon>(daemonOptions());
  for (size_t G = 0; G != In.Grammars.size(); ++G) {
    Response Resp;
    std::string Why;
    bool Ok = decodeResponse(D->call(In.RegisterFrames[G]), Resp, Why) &&
              Resp.ok() && Resp.GrammarKey == In.Grammars[G]->Key;
    if (!Ok)
      fatal("registering " + In.Grammars[G]->Name + " failed: " + Why +
            Resp.Error);
  }

  // Oracles: each client's stream replayed serially through a fresh
  // daemon (it loads the artifacts the registrations above stored).
  for (unsigned C = 0; C != Clients; ++C) {
    Daemon Fresh(daemonOptions());
    for (const std::vector<uint8_t> &F : In.RegisterFrames)
      Fresh.executeFrame(F);
    std::vector<uint8_t> Transcript = replayTranscript(Fresh, In.Logs[C]);
    std::vector<std::span<const uint8_t>> Views;
    std::string Why;
    if (!splitFrames(Transcript, Views, Why) || Views.size() != In.Logs[C].size())
      fatal("oracle transcript unreadable: " + Why);
    Expected.emplace_back();
    Kinds.emplace_back();
    for (size_t I = 0; I != Views.size(); ++I) {
      Expected.back().emplace_back(Views[I].begin(), Views[I].end());
      Response Resp;
      R.check(decodeResponse(Views[I], Resp, Why) && Resp.ok(),
              "oracle replay: request " + std::to_string(I) + " failed: " +
                  Resp.Error);
      Kinds.back().push_back(Resp.Kind);
    }
  }

  Server = std::make_unique<SocketServer>(*D);
  std::string Why;
  if (!Server->start(SocketPath, Why))
    fatal("fnc2d socket: " + Why);
  for (unsigned C = 0; C != Clients; ++C) {
    Conns.push_back(std::make_unique<SocketClient>());
    if (!Conns.back()->connect(SocketPath, Why))
      fatal("fnc2d client: " + Why);
  }
}

ServiceWorkload::~ServiceWorkload() {
  Conns.clear();
  Server.reset();
  D.reset();
  std::error_code Ec;
  fs::remove(SocketPath, Ec);
  fs::remove_all(CacheDir, Ec);
}

void ServiceWorkload::checkResponse(unsigned C, size_t I,
                                    const std::vector<uint8_t> &Resp,
                                    Report &R, const char *Path) {
  bool Ok = Resp == Expected[C][I];
  std::lock_guard<std::mutex> Lock(ReportMu);
  R.check(Ok, std::string(Path) + ": client " + std::to_string(C) +
                  " request " + std::to_string(I) + " (" +
                  requestKindName(Kinds[C][I]) +
                  ") differs from the serial oracle");
}

Samples ServiceWorkload::run(double Seconds, bool Traced, Report &R) {
  struct ClientOut {
    std::vector<Samples::Op> Ops;
    std::vector<std::vector<double>> Kind =
        std::vector<std::vector<double>>(kNumRequestKinds);
    uint32_t Rounds = 0;
  };
  std::vector<ClientOut> Outs(Clients);
  const Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      ClientOut &Out = Outs[C];
      std::vector<uint8_t> Resp;
      std::string Why;
      do {
        for (size_t I = 0; I != In.Logs[C].size(); ++I) {
          Tracer::beginOperation();
          Clock::time_point T0 = Clock::now();
          bool Ok;
          {
            Span S("service.socket.roundTrip");
            Ok = Conns[C]->roundTrip(In.Logs[C].frame(I), Resp, Why);
          }
          double Ms = msSince(T0);
          if (!Ok)
            Resp.clear();
          if (C == 0 && FaultPending && !Resp.empty()) {
            FaultPending = false;
            Resp[Resp.size() / 2] ^= 0x01;
          }
          checkResponse(C, I, Resp, R, "socket");
          RequestKind K = Kinds[C][I];
          // Closed loop: each client keeps the daemon busy for its
          // share, so requests per second are clients over mean latency.
          Out.Ops.push_back({Out.Rounds, Ms, isCold(K), 1,
                             Ms * 1e-3 / Clients});
          Out.Kind[size_t(K)].push_back(Ms);
        }
        ++Out.Rounds;
      } while (msSince(Start) < Seconds * 1e3);
    });
  for (std::thread &T : Threads)
    T.join();

  Samples S;
  if (!Traced)
    KindMs.assign(kNumRequestKinds, {});
  for (ClientOut &Out : Outs) {
    S.Rounds = std::max(S.Rounds, Out.Rounds);
    S.Ops.insert(S.Ops.end(), Out.Ops.begin(), Out.Ops.end());
    if (!Traced)
      for (size_t K = 0; K != kNumRequestKinds; ++K)
        KindMs[K].insert(KindMs[K].end(), Out.Kind[K].begin(),
                         Out.Kind[K].end());
  }
  return S;
}

void ServiceWorkload::replayIncremental(Report &R) {
  // The daemon's session layer replayed directly: the same OpenSession
  // terms and Edit op streams through IncrementalSession.
  std::map<uint64_t, std::shared_ptr<const CompiledArtifact>> Artifacts;
  std::map<uint64_t, const ServiceGrammar *> ByKey;
  for (const auto &G : In.Grammars) {
    GeneratorOptions GO;
    GO.OagK = G->OagK;
    DiagnosticEngine Diags;
    GeneratedEvaluator GE = generateEvaluator(*G->AG, Diags, GO);
    if (!GE.Success)
      fatal("service grammar " + G->Name + " does not generate");
    Artifacts[G->Key] = compileArtifact(GE);
    ByKey[G->Key] = G.get();
  }
  uint64_t Rules = 0, Ops = 0;
  for (unsigned C = 0; C != Clients; ++C) {
    std::map<uint64_t, std::unique_ptr<IncrementalSession>> Sessions;
    for (size_t I = 0; I != In.Logs[C].size(); ++I) {
      Request Req;
      std::string Why;
      if (!decodeRequest(In.Logs[C].frame(I), Req, Why))
        fatal("request log unreadable: " + Why);
      DiagnosticEngine Diags;
      if (Req.Kind == RequestKind::OpenSession) {
        const AttributeGrammar &AG = *ByKey.at(Req.GrammarKey)->AG;
        auto S = std::make_unique<IncrementalSession>(
            AG, Artifacts.at(Req.GrammarKey));
        for (auto &[Name, V] : Req.RootInherited)
          S->setRootInherited(AG.findAttr(AG.Start, Name), V);
        Tree T = readTerm(AG, Req.Terms.front(), Diags);
        bool Ok;
        {
          Span Sp("incremental.IncrementalSession.start");
          Ok = S->start(std::move(T), Diags);
        }
        R.check(Ok, "incremental replay: start failed");
        Sessions[Req.SessionId] = std::move(S);
      } else if (Req.Kind == RequestKind::Edit) {
        IncrementalSession &S = *Sessions.at(Req.SessionId);
        serialize::ByteReader Rd(Req.Ops);
        EditLog L;
        R.check(EditLog::decode(Rd, S.grammar(), L),
                "incremental replay: op stream unreadable");
        for (size_t K = 0; K != L.size(); ++K) {
          uint64_t Before = S.stats().RulesReevaluated;
          bool Ok;
          {
            Span Sp("incremental.IncrementalSession.apply");
            Ok = S.apply(L.op(K), Diags);
          }
          R.check(Ok, "incremental replay: edit rejected");
          Rules += S.stats().RulesReevaluated - Before;
          ++Ops;
        }
      } else if (Req.Kind == RequestKind::CloseSession) {
        Sessions.erase(Req.SessionId);
      }
    }
  }
  R.add("incremental.rules_per_edit", Ops ? double(Rules) / Ops : 0, "count",
        Ops);
}

void ServiceWorkload::addLayerMetrics(const Samples &, const Samples &,
                                      Report &R) {
  for (RequestKind K :
       {RequestKind::Evaluate, RequestKind::OpenSession, RequestKind::Edit,
        RequestKind::QueryAttribute, RequestKind::Snapshot,
        RequestKind::EvaluateBatch, RequestKind::CloseSession}) {
    std::vector<double> &V = KindMs[size_t(K)];
    R.add(std::string("service.") + requestKindName(K) + ".p50_ms",
          percentile(V, 0.5), "ms", V.size());
  }

  // The same request streams replayed three ways: serial executeFrame,
  // concurrent Daemon::call (adds the admission queue), and the socket
  // loop above (adds the transport).
  for (unsigned C = 0; C != Clients; ++C)
    for (size_t I = 0; I != In.Logs[C].size(); ++I) {
      Tracer::beginOperation();
      std::vector<uint8_t> Resp;
      {
        Span S("fnc2d.Daemon.executeFrame");
        Resp = D->executeFrame(In.Logs[C].frame(I));
      }
      checkResponse(C, I, Resp, R, "executeFrame");
    }
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back([&, C] {
        for (size_t I = 0; I != In.Logs[C].size(); ++I) {
          Tracer::beginOperation();
          std::vector<uint8_t> Resp;
          {
            Span S("fnc2d.Daemon.call");
            Resp = D->call(In.Logs[C].frame(I));
          }
          checkResponse(C, I, Resp, R, "call");
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  std::map<std::string, SpanTotals> T = Tracer::totals();
  const double Exec = T["fnc2d.Daemon.executeFrame"].meanTotalMs();
  const double Call = T["fnc2d.Daemon.call"].meanTotalMs();
  const double Sock = T["service.socket.roundTrip"].meanTotalMs();
  R.add("service.execute_ms", Exec, "ms",
        T["fnc2d.Daemon.executeFrame"].Count);
  R.add("service.queue_ms", Call - Exec, "ms", T["fnc2d.Daemon.call"].Count);
  R.add("service.transport_ms", Sock - Call, "ms",
        T["service.socket.roundTrip"].Count);

  // Codec and term-reader costs on the same requests and oracle responses.
  uint64_t Nodes = 0;
  for (unsigned C = 0; C != Clients; ++C)
    for (size_t I = 0; I != In.Logs[C].size(); ++I) {
      Request Req;
      std::string Why;
      decodeRequest(In.Logs[C].frame(I), Req, Why);
      {
        Span S("service.protocol.encodeRequest");
        (void)encodeRequest(Req);
      }
      Response Resp;
      bool Decoded;
      {
        Span S("service.protocol.decodeResponse");
        Decoded = decodeResponse(Expected[C][I], Resp, Why);
      }
      R.check(Decoded, "oracle response does not decode: " + Why);
      for (const std::string &Term : Req.Terms) {
        const AttributeGrammar *AG = nullptr;
        for (const auto &G : In.Grammars)
          if (G->Key == Req.GrammarKey)
            AG = G->AG;
        DiagnosticEngine Diags;
        std::optional<Tree> Tr;
        {
          Span S("tree.readTerm");
          Tr.emplace(readTerm(*AG, Term, Diags));
        }
        Nodes += Tr->size();
      }
    }
  T = Tracer::totals();
  const SpanTotals &Enc = T["service.protocol.encodeRequest"];
  const SpanTotals &Dec = T["service.protocol.decodeResponse"];
  R.add("service.protocol_us",
        Enc.Count ? (Enc.TotalMs + Dec.TotalMs) * 1e3 / Enc.Count : 0, "us",
        Enc.Count);
  R.add("tree.read_term_us_per_knode",
        Nodes ? T["tree.readTerm"].TotalMs * 1e3 / (Nodes * 1e-3) : 0, "us",
        Nodes);

  replayIncremental(R);
  addSpanMetric(R, "incremental.start_ms",
                "incremental.IncrementalSession.start", "ms");
  addSpanMetric(R, "incremental.apply_us",
                "incremental.IncrementalSession.apply", "us");
}

} // namespace

std::unique_ptr<Workload> makeServiceWorkload(const Options &O, Report &R) {
  return std::make_unique<ServiceWorkload>(O, R);
}

void digestServiceInputs(const Options &O, InputDigests &Out) {
  ServiceInputs In = makeInputs(O);
  for (const auto &G : In.Grammars)
    Out.emplace_back("service.grammar." + G->Name, hashString(G->Source));
  for (unsigned C = 0; C != Clients; ++C) {
    uint64_t H = hashString("");
    for (size_t I = 0; I != In.Logs[C].size(); ++I)
      H = hashBytes(In.Logs[C].frame(I).data(), In.Logs[C].frame(I).size(), H);
    Out.emplace_back("service.requests.client" + std::to_string(C), H);
  }
}

} // namespace perfbench
