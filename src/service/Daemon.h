//===- service/Daemon.h - Resident evaluation daemon ------------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident evaluation service (fnc2d): the process-lifetime embodiment
/// of the FNC-2 idea that generated evaluators are *infrastructure*. One
/// daemon owns
///
///  * a sharded GrammarRegistry — grammars compiled once per content hash,
///    backed by the persistent artifact cache;
///  * an admission queue drained by a fixed set of executor threads, which
///    in turn feed the shared work-stealing ThreadPool for batch requests;
///  * the live client sessions: each an IncrementalSession borrowing the
///    registered grammar's immutable CompiledArtifact, so any number of
///    sessions over one grammar run concurrently with per-session locking
///    only (the sharing contract of incremental/Session.h);
///  * a live MetricsRegistry the Stats endpoint snapshots mid-flight.
///
/// Determinism contract: execute() is a pure function of (request, current
/// daemon state), and every response is encoded canonically — so replaying
/// a request log serially through a fresh daemon yields a byte-stable
/// transcript (the golden test commits one), and a client's responses under
/// concurrency match its own serial replay as long as its requests touch
/// only its own sessions (the soak test pins this). Responses therefore
/// never leak scheduling accidents: no cache-hit provenance, no timing, no
/// daemon-global counters outside the explicitly non-deterministic Stats
/// endpoint.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_SERVICE_DAEMON_H
#define FNC2_SERVICE_DAEMON_H

#include "incremental/Session.h"
#include "service/GrammarRegistry.h"
#include "service/Protocol.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <thread>

namespace fnc2::service {

struct DaemonOptions {
  /// Executor threads draining the admission queue.
  unsigned Executors = 4;
  /// Workers of the shared evaluation ThreadPool (batch requests).
  unsigned PoolThreads = 4;
  /// Persistent artifact cache directory; empty disables on-disk reuse.
  std::string CacheDir;
  unsigned RegistryShards = 8;
  /// Ready-entry capacity per registry shard; 0 = unbounded.
  size_t RegistryCapacity = 0;
  /// Batches at least this large run the merged SoA engine on the shared
  /// pool; smaller ones evaluate sequentially (cohort formation would cost
  /// more than it saves).
  unsigned MergedBatchMin = 8;
};

/// The resident daemon. Thread-safe: any number of threads may submit(),
/// call() or execute() concurrently; requests against one session are
/// serialized on that session's lock, everything else runs in parallel.
class Daemon {
public:
  explicit Daemon(DaemonOptions O = {});
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Enqueues an encoded request frame; \p Done receives the encoded
  /// response frame on an executor thread.
  void submit(std::vector<uint8_t> Frame,
              std::function<void(std::vector<uint8_t>)> Done);

  /// submit() + wait: the blocking client call of the in-process and
  /// socket transports.
  std::vector<uint8_t> call(std::span<const uint8_t> Frame);

  /// Decodes, dispatches and encodes synchronously on the calling thread,
  /// bypassing the admission queue — the serial path the oracle replay and
  /// the transcript generator use. Malformed frames produce an error
  /// response (never a crash).
  std::vector<uint8_t> executeFrame(std::span<const uint8_t> Frame);

  /// Dispatches one decoded request.
  Response execute(const Request &R);

  /// The non-deterministic live snapshot the Stats endpoint serves: daemon
  /// counters + registry stats + the live metrics registry.
  std::string statsJson() const;

  GrammarRegistry &registry() { return Registry; }
  /// The daemon's counters (service.*) and the evaluators' exports.
  MetricsRegistry &metrics() { return Metrics; }
  size_t numSessions() const;

  /// Stops the executor threads (idempotent; the destructor calls it).
  /// Queued jobs are completed before the threads exit.
  void stop();

private:
  /// One resident client session. SessionMu serializes requests against
  /// this session; distinct sessions proceed in parallel over the shared
  /// immutable CompiledArtifact.
  struct ServiceSession {
    std::mutex Mu;
    uint64_t Id = 0;
    std::shared_ptr<GrammarEntry> Entry;
    std::unique_ptr<IncrementalSession> Inc;
  };

  struct Job {
    std::vector<uint8_t> Frame;
    std::function<void(std::vector<uint8_t>)> Done;
  };

  Response doRegister(const Request &R);
  Response doEvaluate(const Request &R);
  Response doBatch(const Request &R);
  Response doOpen(const Request &R);
  Response doEdit(const Request &R);
  Response doQuery(const Request &R);
  Response doSnapshot(const Request &R);
  Response doStats(const Request &R);
  Response doClose(const Request &R);

  std::shared_ptr<ServiceSession> findSession(uint64_t Id);
  void executorLoop();

  DaemonOptions Opts;
  GrammarRegistry Registry;
  ThreadPool Pool;
  /// Pool batches must not be issued concurrently from several threads
  /// (the ThreadPool contract); batch requests serialize here.
  std::mutex PoolMu;

  mutable std::mutex SessMu;
  std::map<uint64_t, std::shared_ptr<ServiceSession>> Sessions;
  std::atomic<uint64_t> NextSessionId{1};

  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<Job> Queue;
  bool Stopping = false;
  std::vector<std::thread> Executors;

  /// Live landing zone for the daemon's own monotone counters and the
  /// evaluator counter exports; snapshot by Stats mid-flight
  /// (MetricsRegistry is internally synchronized).
  MetricsRegistry Metrics;
};

} // namespace fnc2::service

#endif // FNC2_SERVICE_DAEMON_H
