//===- perfbench/src/Tracer.h - In-memory spans from outside ----*- C++ -*-===//
//
// The traced run's span recorder. Spans are opened by the benchmark around
// its own calls into each layer's public functions (nothing inside the
// libraries is instrumented): name, start, end, parent span and one id per
// operation (a roster grammar's cold or warm path, one fnc2d request, one
// batch round). Each thread appends to its own buffer; buffers are merged
// and written out as JSON lines when the run ends.
//
// A span's self time is its duration minus the time its child spans cover.
// Children on one thread never overlap, so that is the sum of their
// durations, accumulated when each child closes.
//
// When tracing is off a Span costs one relaxed load.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Per-name totals over all recorded spans.
struct SpanTotals {
  uint64_t Count = 0;
  double TotalMs = 0;
  double SelfMs = 0;
  double meanSelfMs() const { return Count ? SelfMs / double(Count) : 0; }
  double meanTotalMs() const { return Count ? TotalMs / double(Count) : 0; }
};

class Tracer {
public:
  static void setEnabled(bool On);
  static bool enabled();

  /// Starts a new operation on the calling thread: root spans opened until
  /// the next call carry its id.
  static void beginOperation();

  /// Totals per span name over everything recorded so far.
  static std::map<std::string, SpanTotals> totals();

  /// Writes every recorded span to \p Path as JSON lines; false on I/O
  /// failure.
  static bool writeJsonLines(const std::string &Path);
};

/// RAII span. \p Name must be a string literal (it is stored by pointer).
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int64_t Index = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
