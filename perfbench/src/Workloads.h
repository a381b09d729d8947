//===- perfbench/src/Workloads.h - The three workloads ----------*- C++ -*-===//
//
// compile  the grammar author's path: molga source -> generator -> artifact
//          cache (store, then warm load) -> one evaluated tree.
// service  fnc2d in-process, closed-loop clients over a Unix socket.
// batch    warm grammars, a pinned corpus, every batch engine.
//
// Each workload is set up by its constructor (inputs generated from the
// seed, engines built, oracles computed), then run() measures a closed loop
// for a number of seconds. Every operation is checked against an oracle
// that does not use the engine under test; checks go to the Report.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

#include <memory>

namespace perfbench {

/// What one measured loop produced: every operation with the round it
/// belongs to, its latency and its class. A round is one pass over the
/// workload's fixed mix (the roster, a client's request stream, the
/// corpus), so whole rounds always hold the same mix. Cold operations
/// build their state from nothing (a cold generation, a request that
/// parses and evaluates a whole term, a one-shot batch pass); warm ones
/// reuse resident state (a cached artifact, an open session, a bound batch
/// session). Items are the grammars, requests or trees an operation
/// completed and BusyS the time it kept the workload busy, so throughput is
/// items over busy time.
struct Samples {
  struct Op {
    uint32_t Round = 0;
    double Ms = 0;
    bool Cold = false;
    double Items = 0;
    double BusyS = 0;
  };
  std::vector<Op> Ops;
  uint32_t Rounds = 0;

  double itemsPerSecond() const;
};

/// Named input digests for --inputs-digest.
using InputDigests = std::vector<std::pair<std::string, uint64_t>>;

class Workload {
public:
  virtual ~Workload() = default;
  /// Runs whole rounds until \p Seconds have passed. \p Traced opens
  /// spans around the calls into each layer.
  virtual Samples run(double Seconds, bool Traced, Report &R) = 0;
  /// Adds this workload's per-layer metrics, from the untraced and traced
  /// loops and the spans recorded so far; may run extra traced replays.
  virtual void addLayerMetrics(const Samples &Untraced, const Samples &Traced,
                               Report &R) = 0;
};

std::unique_ptr<Workload> makeCompileWorkload(const Options &O, Report &R);
std::unique_ptr<Workload> makeServiceWorkload(const Options &O, Report &R);
std::unique_ptr<Workload> makeBatchWorkload(const Options &O, Report &R);

void digestCompileInputs(const Options &O, InputDigests &Out);
void digestServiceInputs(const Options &O, InputDigests &Out);
void digestBatchInputs(const Options &O, InputDigests &Out);

/// Adds "<Name>" as the mean self time per call of the spans named
/// \p SpanName, in \p Unit ("ms", "us" or "s").
void addSpanMetric(Report &R, const char *Name, const char *SpanName,
                   const char *Unit);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
