//===- service/Daemon.cpp - Resident evaluation daemon --------------------===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"

#include "eval/MergedBatchEvaluator.h"
#include "incremental/EditLog.h"
#include "support/Trace.h"

#include <future>

namespace fnc2::service {

using serialize::ByteReader;
using serialize::ByteWriter;

Daemon::Daemon(DaemonOptions O)
    : Opts(O), Registry(O.CacheDir, O.RegistryShards, O.RegistryCapacity),
      Pool(O.PoolThreads) {
  unsigned N = Opts.Executors == 0 ? 1 : Opts.Executors;
  Executors.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Executors.emplace_back([this] { executorLoop(); });
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (Stopping && Executors.empty())
      return;
    Stopping = true;
  }
  QueueCv.notify_all();
  for (std::thread &T : Executors)
    T.join();
  Executors.clear();
}

void Daemon::executorLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping with a drained queue.
      J = std::move(Queue.front());
      Queue.pop_front();
    }
    std::vector<uint8_t> Out = executeFrame(J.Frame);
    if (J.Done)
      J.Done(std::move(Out));
  }
}

void Daemon::submit(std::vector<uint8_t> Frame,
                    std::function<void(std::vector<uint8_t>)> Done) {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Queue.push_back(Job{std::move(Frame), std::move(Done)});
  }
  QueueCv.notify_one();
}

std::vector<uint8_t> Daemon::call(std::span<const uint8_t> Frame) {
  std::promise<std::vector<uint8_t>> P;
  std::future<std::vector<uint8_t>> F = P.get_future();
  submit(std::vector<uint8_t>(Frame.begin(), Frame.end()),
         [&P](std::vector<uint8_t> Out) { P.set_value(std::move(Out)); });
  return F.get();
}

std::vector<uint8_t> Daemon::executeFrame(std::span<const uint8_t> Frame) {
  Request R;
  std::string Reason;
  if (!decodeRequest(Frame, R, Reason)) {
    Metrics.add("service.malformed_frames", 1);
    Metrics.add("service.errors", 1);
    Response E;
    E.Kind = R.Kind;
    E.Id = R.Id;
    E.St = Status::Error;
    E.Error = Reason;
    return encodeResponse(E);
  }
  return encodeResponse(execute(R));
}

Response Daemon::execute(const Request &R) {
  FNC2_SPAN("service.execute");
  Metrics.add("service.requests", 1);

  Response Out;
  switch (R.Kind) {
  case RequestKind::RegisterGrammar:
    Out = doRegister(R);
    break;
  case RequestKind::Evaluate:
    Out = doEvaluate(R);
    break;
  case RequestKind::EvaluateBatch:
    Out = doBatch(R);
    break;
  case RequestKind::OpenSession:
    Out = doOpen(R);
    break;
  case RequestKind::Edit:
    Out = doEdit(R);
    break;
  case RequestKind::QueryAttribute:
    Out = doQuery(R);
    break;
  case RequestKind::Snapshot:
    Out = doSnapshot(R);
    break;
  case RequestKind::Stats:
    Out = doStats(R);
    break;
  case RequestKind::CloseSession:
    Out = doClose(R);
    break;
  }
  Out.Kind = R.Kind;
  Out.Id = R.Id;
  if (!Out.ok())
    Metrics.add("service.errors", 1);
  return Out;
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

static Response err(std::string Reason) {
  Response E;
  E.St = Status::Error;
  E.Error = std::move(Reason);
  return E;
}

/// Collects the root's synthesized attributes (in the start phylum's
/// declaration order — canonical, so digests and transcripts are stable)
/// and folds them into a content digest.
static void rootSynthAttrs(const AttributeGrammar &AG, const TreeNode *Root,
                           std::vector<std::pair<std::string, Value>> &Attrs,
                           uint64_t &Digest) {
  ByteWriter W;
  for (AttrId A : AG.phylum(AG.Start).Attrs) {
    const Attribute &At = AG.attr(A);
    if (!At.isSynthesized() || !Root->attrComputed(At.IndexInOwner))
      continue;
    const Value &V = Root->attrVal(At.IndexInOwner);
    W.str(At.Name);
    encodeValue(W, V);
    Attrs.emplace_back(At.Name, V);
  }
  Digest = serialize::fnv1a64(W.bytes());
}

/// Resolves the wire's root-inherited bindings against the start phylum.
/// Returns false with \p Reason on an unknown or non-inherited name.
static bool
resolveRootInherited(const AttributeGrammar &AG,
                     const std::vector<std::pair<std::string, Value>> &In,
                     std::vector<std::pair<AttrId, Value>> &Out,
                     std::string &Reason, const char *Section) {
  for (const auto &[Name, V] : In) {
    AttrId A = AG.findAttr(AG.Start, Name);
    if (A == InvalidId) {
      Reason = std::string(Section) + ": unknown root attribute '" + Name + "'";
      return false;
    }
    if (!AG.attr(A).isInherited()) {
      Reason = std::string(Section) + ": root attribute '" + Name +
               "' is not inherited";
      return false;
    }
    Out.emplace_back(A, V);
  }
  return true;
}

/// Parses one wire term over \p AG, checking the root lands on the start
/// phylum (the evaluators assume it).
static bool parseTerm(const AttributeGrammar &AG, const std::string &Text,
                      Tree &Out, std::string &Reason, const char *Section) {
  DiagnosticEngine Diags;
  Tree T = readTerm(AG, Text, Diags);
  if (!T.root() || Diags.hasErrors()) {
    Reason = std::string(Section) + ": term parse failed: " + Diags.dump();
    return false;
  }
  if (AG.prod(T.root()->Prod).Lhs != AG.Start) {
    Reason = std::string(Section) + ": term root is not of the start phylum";
    return false;
  }
  Out = std::move(T);
  return true;
}

//===----------------------------------------------------------------------===//
// Handlers
//===----------------------------------------------------------------------===//

Response Daemon::doRegister(const Request &R) {
  std::string Reason;
  std::shared_ptr<GrammarEntry> E =
      Registry.registerSource(R.Source, R.OagK, Reason);
  if (!E)
    return err(Reason);
  Response Out;
  Out.GrammarKey = E->Key;
  Out.ClassName = E->Gen.Classes.className();
  return Out;
}

Response Daemon::doEvaluate(const Request &R) {
  FNC2_SPAN("service.evaluate");
  std::shared_ptr<GrammarEntry> E = Registry.lookup(R.GrammarKey);
  if (!E)
    return err("evaluate: unknown grammar key");
  const AttributeGrammar &AG = *E->AG;

  std::string Reason;
  Tree T(AG);
  if (!parseTerm(AG, R.Terms.front(), T, Reason, "evaluate"))
    return err(Reason);
  std::vector<std::pair<AttrId, Value>> Inh;
  if (!resolveRootInherited(AG, R.RootInherited, Inh, Reason, "evaluate"))
    return err(Reason);

  // Per-request evaluator borrowing the shared immutable bundle: cheap to
  // construct, and any number may run concurrently.
  Evaluator Ev(E->Gen.Compiled->CP);
  for (auto &[A, V] : Inh)
    Ev.setRootInherited(A, V);
  DiagnosticEngine Diags;
  if (!Ev.evaluate(T, Diags))
    return err("evaluate: evaluation failed: " + Diags.dump());
  Metrics.add("service.trees_evaluated", 1);
  Ev.stats().exportTo(Metrics);

  Response Out;
  rootSynthAttrs(AG, T.root(), Out.Attrs, Out.Digest);
  return Out;
}

Response Daemon::doBatch(const Request &R) {
  FNC2_SPAN("service.batch");
  std::shared_ptr<GrammarEntry> E = Registry.lookup(R.GrammarKey);
  if (!E)
    return err("evaluate: unknown grammar key");
  const AttributeGrammar &AG = *E->AG;

  std::string Reason;
  std::vector<std::pair<AttrId, Value>> Inh;
  if (!resolveRootInherited(AG, R.RootInherited, Inh, Reason, "evaluate"))
    return err(Reason);

  // Parse every term; parse failures consume their slot (digest 0) without
  // failing the batch.
  Response Out;
  Out.Digests.assign(R.Terms.size(), 0);
  std::vector<Tree> Trees;
  std::vector<size_t> Slot; // Trees[i] answers R.Terms[Slot[i]].
  Trees.reserve(R.Terms.size());
  for (size_t I = 0; I != R.Terms.size(); ++I) {
    Tree T(AG);
    if (!parseTerm(AG, R.Terms[I], T, Reason, "evaluate")) {
      ++Out.Failed;
      continue;
    }
    Trees.push_back(std::move(T));
    Slot.push_back(I);
  }

  if (Trees.size() >= Opts.MergedBatchMin) {
    // The merged SoA engine on the shared pool. Pool batches must not be
    // issued concurrently (ThreadPool contract), so batch requests take
    // their turn here while per-tree requests keep flowing elsewhere.
    MergedBatchEvaluator ME(E->Gen.Compiled->CP, Pool);
    for (auto &[A, V] : Inh)
      ME.setRootInherited(A, V);
    BatchResult BR = [&] {
      std::lock_guard<std::mutex> Lock(PoolMu);
      return ME.evaluate(Trees);
    }();
    BR.Stats.exportTo(Metrics);
    for (size_t I = 0; I != Trees.size(); ++I) {
      if (!BR.Outcomes[I].Success) {
        ++Out.Failed;
        continue;
      }
      std::vector<std::pair<std::string, Value>> Ignore;
      rootSynthAttrs(AG, Trees[I].root(), Ignore, Out.Digests[Slot[I]]);
    }
  } else {
    Evaluator Ev(E->Gen.Compiled->CP);
    for (auto &[A, V] : Inh)
      Ev.setRootInherited(A, V);
    for (size_t I = 0; I != Trees.size(); ++I) {
      DiagnosticEngine Diags;
      if (!Ev.evaluate(Trees[I], Diags)) {
        ++Out.Failed;
        continue;
      }
      std::vector<std::pair<std::string, Value>> Ignore;
      rootSynthAttrs(AG, Trees[I].root(), Ignore, Out.Digests[Slot[I]]);
    }
    Ev.stats().exportTo(Metrics);
  }
  Metrics.add("service.batch_trees", R.Terms.size());
  return Out;
}

Response Daemon::doOpen(const Request &R) {
  FNC2_SPAN("service.open");
  std::shared_ptr<GrammarEntry> E = Registry.lookup(R.GrammarKey);
  if (!E)
    return err("session: unknown grammar key");
  const AttributeGrammar &AG = *E->AG;

  std::string Reason;
  Tree T(AG);
  if (!parseTerm(AG, R.Terms.front(), T, Reason, "session"))
    return err(Reason);
  std::vector<std::pair<AttrId, Value>> Inh;
  if (!resolveRootInherited(AG, R.RootInherited, Inh, Reason, "session"))
    return err(Reason);

  auto S = std::make_shared<ServiceSession>();
  S->Entry = E;
  S->Inc = std::make_unique<IncrementalSession>(AG, E->Gen.Compiled);
  for (auto &[A, V] : Inh)
    S->Inc->setRootInherited(A, V);
  DiagnosticEngine Diags;
  if (!S->Inc->start(std::move(T), Diags))
    return err("session: initial evaluation failed: " + Diags.dump());

  // Client-proposed ids keep concurrent transcripts replayable (each
  // client namespaces its own); 0 asks the daemon to assign one.
  uint64_t Id = R.SessionId != 0
                    ? R.SessionId
                    : NextSessionId.fetch_add(1, std::memory_order_relaxed);
  S->Id = Id;
  {
    std::lock_guard<std::mutex> Lock(SessMu);
    if (!Sessions.emplace(Id, S).second)
      return err("session: session id already in use");
  }
  Metrics.add("service.sessions.opened", 1);

  Response Out;
  Out.SessionId = Id;
  std::lock_guard<std::mutex> Lock(S->Mu);
  Out.Digest = S->Inc->attributionDigest();
  uint64_t Ignore;
  rootSynthAttrs(AG, S->Inc->tree().root(), Out.Attrs, Ignore);
  return Out;
}

std::shared_ptr<Daemon::ServiceSession> Daemon::findSession(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(SessMu);
  auto It = Sessions.find(Id);
  return It == Sessions.end() ? nullptr : It->second;
}

Response Daemon::doEdit(const Request &R) {
  FNC2_SPAN("service.edit");
  std::shared_ptr<ServiceSession> S = findSession(R.SessionId);
  if (!S)
    return err("edit: unknown session id");
  std::lock_guard<std::mutex> Lock(S->Mu);

  ByteReader Rd(R.Ops);
  EditLog Log;
  if (!EditLog::decode(Rd, S->Inc->grammar(), Log))
    return err("edit: malformed op stream: " + Rd.error());

  for (size_t I = 0; I != Log.size(); ++I) {
    DiagnosticEngine Diags;
    if (!S->Inc->apply(Log.op(I), Diags))
      return err("edit: op " + std::to_string(I) +
                 " rejected: " + Diags.dump());
  }
  Metrics.add("service.edits", Log.size());
  statsExport(S->Inc->stats(), Metrics);

  Response Out;
  Out.SessionId = R.SessionId;
  Out.Applied = static_cast<uint32_t>(Log.size());
  Out.Digest = S->Inc->attributionDigest();
  return Out;
}

Response Daemon::doQuery(const Request &R) {
  std::shared_ptr<ServiceSession> S = findSession(R.SessionId);
  if (!S)
    return err("query: unknown session id");
  std::lock_guard<std::mutex> Lock(S->Mu);

  const AttributeGrammar &AG = S->Inc->grammar();
  TreeNode *N = resolvePath(S->Inc->tree(), R.Path);
  if (!N)
    return err("query: path falls off the tree");
  PhylumId Phy = AG.prod(N->Prod).Lhs;
  AttrId A = AG.findAttr(Phy, R.Attr);
  if (A == InvalidId)
    return err("query: phylum '" + AG.phylum(Phy).Name +
               "' has no attribute '" + R.Attr + "'");
  unsigned Idx = AG.attr(A).IndexInOwner;
  if (!N->attrComputed(Idx))
    return err("query: attribute '" + R.Attr + "' not computed");

  Response Out;
  Out.Attrs.emplace_back(R.Attr, N->attrVal(Idx));
  return Out;
}

Response Daemon::doSnapshot(const Request &R) {
  std::shared_ptr<ServiceSession> S = findSession(R.SessionId);
  if (!S)
    return err("snapshot: unknown session id");
  std::lock_guard<std::mutex> Lock(S->Mu);

  Response Out;
  std::string WhyNot;
  if (!S->Inc->encode(Out.Bytes, WhyNot))
    return err("snapshot: " + WhyNot);
  Out.SessionId = R.SessionId;
  Out.Digest = S->Inc->attributionDigest();
  return Out;
}

Response Daemon::doStats(const Request &) {
  Response Out;
  std::string J = statsJson();
  Out.Bytes.assign(J.begin(), J.end());
  return Out;
}

Response Daemon::doClose(const Request &R) {
  std::shared_ptr<ServiceSession> S;
  {
    std::lock_guard<std::mutex> Lock(SessMu);
    auto It = Sessions.find(R.SessionId);
    if (It == Sessions.end())
      return err("session: unknown session id");
    S = std::move(It->second);
    Sessions.erase(It);
  }
  // Let any in-flight request on this session finish before the state dies.
  std::lock_guard<std::mutex> Lock(S->Mu);
  Metrics.add("service.sessions.closed", 1);
  Response Out;
  Out.SessionId = R.SessionId;
  return Out;
}

//===----------------------------------------------------------------------===//
// Stats JSON
//===----------------------------------------------------------------------===//

size_t Daemon::numSessions() const {
  std::lock_guard<std::mutex> Lock(SessMu);
  return Sessions.size();
}

std::string Daemon::statsJson() const {
  auto U64 = [](uint64_t V) {
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(V));
    return std::string(Buf);
  };
  RegistryStats RS = Registry.stats();
  std::string J = "{\"daemon\": {";
  // One copy, so the daemon block agrees with the metrics block even while
  // executors keep counting.
  const MetricsRegistry Snap(Metrics);
  auto Counter = [&](std::string_view Name) { return U64(Snap.value(Name)); };
  J += "\"requests\": " + Counter("service.requests") + ", ";
  J += "\"errors\": " + Counter("service.errors") + ", ";
  J += "\"malformed_frames\": " + Counter("service.malformed_frames") + ", ";
  J += "\"sessions_opened\": " + Counter("service.sessions.opened") + ", ";
  J += "\"sessions_closed\": " + Counter("service.sessions.closed") + ", ";
  J += "\"sessions_live\": " + U64(numSessions()) + ", ";
  J += "\"trees_evaluated\": " + Counter("service.trees_evaluated") + ", ";
  J += "\"edits_applied\": " + Counter("service.edits") + ", ";
  J += "\"batch_trees\": " + Counter("service.batch_trees");
  J += "}, \"registry\": {";
  J += "\"hits\": " + U64(RS.Hits) + ", ";
  J += "\"misses\": " + U64(RS.Misses) + ", ";
  J += "\"generated\": " + U64(RS.Generated) + ", ";
  J += "\"cache_hits\": " + U64(RS.CacheHits) + ", ";
  J += "\"evictions\": " + U64(RS.Evictions) + ", ";
  J += "\"rejected\": " + U64(RS.Rejected);
  J += "}, \"metrics\": " + Snap.json() + "}";
  return J;
}

} // namespace fnc2::service
