//===- support/Trace.h - Structured tracing (spans + counters) --*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead structured tracing for the whole pipeline. The generator
/// cascade, the GFA fixpoints and every evaluator are instrumented with the
/// macros at the bottom of this file:
///
///   FNC2_SPAN("eval.tree");           // scoped begin/end pair (RAII)
///   bool L = FNC2_SPAN_BEGIN("eval.visit");  // explicit pair, for spans
///   FNC2_SPAN_END("eval.visit", L);          // that are not a C++ scope
///   FNC2_COUNT("inc.rules_skipped", 1);  // monotone counter increment
///   FNC2_INSTANT("eval.EVAL", NRules);   // point event with a value
///
/// Collection model: tracing is off (a single relaxed atomic load per site)
/// until a TraceCollector is installed. Each emitting thread then appends to
/// its own buffer — no locks or shared cache lines on the hot path — and the
/// collector stitches the buffers together at export time. Exporters:
///
///   * chromeJson()  — Chrome trace_event JSON, loadable in chrome://tracing
///                     or Perfetto.
///   * summary()     — a timestamp- and thread-id-free textual rendering of
///                     the span/counter sequence; byte-stable across runs on
///                     a single thread, which is what the golden-trace tests
///                     pin down.
///   * countersTo()  — folds every counter/instant into a MetricsRegistry.
///
/// Threading contract: install() and uninstall() must only be called while
/// no instrumented code is executing (the batch engines' parallelFor joins
/// give the needed happens-before). Threads may come and go freely while a
/// collector is installed; per-thread buffers are owned by the collector and
/// outlive the threads. Stale thread_local buffer caches are invalidated by
/// a global epoch, never dereferenced.
///
/// Compile-out: configure with -DFNC2_TRACE=OFF and every macro expands to
/// nothing; no trace symbol is referenced from the instrumented code.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_SUPPORT_TRACE_H
#define FNC2_SUPPORT_TRACE_H

#include "support/Metrics.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fnc2 {
namespace trace {

/// One trace record. Name points at a string literal from an emitting site
/// (never owned); Ticks is a raw timestamp (TSC on x86, monotonic-clock
/// nanoseconds elsewhere) converted to nanoseconds at export time using the
/// calibration the collector takes at install/uninstall; Tid is a small
/// dense id assigned per emitting thread in buffer registration order.
struct TraceEvent {
  enum class Phase : uint8_t { Begin, End, Counter, Instant };

  const char *Name;
  Phase Ph;
  uint32_t Tid;
  uint64_t Ticks;
  uint64_t Value;
};

/// Collects events from any number of threads while installed. Create one,
/// install() it around the region of interest, uninstall(), then export.
class TraceCollector {
public:
  TraceCollector() = default;
  ~TraceCollector();
  TraceCollector(const TraceCollector &) = delete;
  TraceCollector &operator=(const TraceCollector &) = delete;

  /// Makes this the process-wide active collector. Only one collector may
  /// be installed at a time; install() while another is active replaces it.
  /// Must be called from a quiescent point (no instrumented code running).
  void install();

  /// Detaches the collector; subsequent emissions are dropped at the
  /// enabled() check. Same quiescence requirement as install(). The
  /// collected events remain available for export. Safe to call when not
  /// installed.
  void uninstall();

  bool installed() const;

  /// All events, grouped by thread (buffer registration order) and
  /// time-ordered within each thread. Call after uninstall().
  std::vector<TraceEvent> events() const;

  /// Number of per-thread buffers that registered (i.e. distinct threads
  /// that emitted at least one event).
  size_t threadCount() const;

  /// Deterministic textual rendering: one line per event, two-space
  /// indentation per open span, no timestamps or thread ids. Buffers of
  /// different threads are rendered one after the other under a
  /// "-- thread N --" header (omitted when only one thread emitted).
  ///
  ///   > classify.snc        span begin
  ///   < classify.snc        span end
  ///   # snc.iterations +2   counter increment
  ///   ! eval.EVAL 3         instant with value
  std::string summary() const;

  /// Chrome trace_event JSON: {"traceEvents": [...]}. Spans become B/E
  /// pairs, counters become C events, instants become i events; pid is
  /// always 1 and tid is the dense per-thread id.
  std::string chromeJson() const;

  /// Folds every Counter event (summed per name) and Instant event
  /// (counted per name, summed value under "<name>.total") into \p R.
  void countersTo(MetricsRegistry &R) const;

  /// Total number of collected events.
  size_t eventCount() const;

  // Implementation detail, public for the emitting fast path.
  struct ThreadBuf {
    std::vector<TraceEvent> Events;
    uint32_t Tid = 0;
  };

  /// Registers (or retrieves) the calling thread's buffer. Internal — used
  /// by the emission fast path via detail::currentBuf().
  ThreadBuf *bufForCurrentThread();

private:
  /// Converts a raw event timestamp to monotonic-clock nanoseconds using
  /// the install/uninstall calibration pair.
  uint64_t ticksToNs(uint64_t Ticks) const;

  mutable std::mutex Mu;
  std::vector<std::unique_ptr<ThreadBuf>> Bufs;

  // Tick<->ns calibration: sampled at install(), finalized at uninstall().
  uint64_t CalTicks0 = 0;
  uint64_t CalNs0 = 0;
  double NsPerTick = 1.0;
};

/// True iff a collector is installed. One relaxed atomic load; this is the
/// whole cost of an emission site while tracing is off.
bool enabled();

namespace detail {

/// The installed collector, or nullptr.
extern std::atomic<TraceCollector *> GCollector;

/// Bumped on every install/uninstall; invalidates thread_local buffer
/// caches so a stale pointer is never dereferenced.
extern std::atomic<uint64_t> GEpoch;

/// Monotonic-clock nanoseconds.
uint64_t nowNs();

/// Raw timestamp for the emission hot path: the TSC on x86 (a handful of
/// cycles, converted to ns at export via the collector's calibration), the
/// monotonic clock elsewhere.
inline uint64_t nowTicks() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return nowNs();
#endif
}

/// The calling thread's buffer in the installed collector, or nullptr when
/// tracing is off. Registers the thread on first use per install epoch.
TraceCollector::ThreadBuf *currentBuf();

inline void emit(const char *Name, TraceEvent::Phase Ph, uint64_t Value) {
  TraceCollector::ThreadBuf *B = currentBuf();
  if (!B)
    return;
  B->Events.push_back(TraceEvent{Name, Ph, B->Tid, nowTicks(), Value});
}

} // namespace detail

/// Emits a Counter event (a named monotone increment).
inline void count(const char *Name, uint64_t Delta) {
  if (enabled())
    detail::emit(Name, TraceEvent::Phase::Counter, Delta);
}

/// Emits an Instant event (a point-in-time observation with a value).
inline void instant(const char *Name, uint64_t Value) {
  if (enabled())
    detail::emit(Name, TraceEvent::Phase::Instant, Value);
}

/// Opens span \p Name and returns whether it opened (tracing was on); the
/// matching spanEnd() takes that answer, so a span that began while tracing
/// was on always closes, even if uninstall() raced (which the quiescence
/// contract forbids anyway). For spans whose extent is not a C++ scope,
/// such as the visit driver's per-frame spans.
inline bool spanBegin(const char *Name) {
  if (!enabled())
    return false;
  detail::emit(Name, TraceEvent::Phase::Begin, 0);
  return true;
}

/// Closes the span that spanBegin(\p Name) opened when \p Live.
inline void spanEnd(const char *Name, bool Live) {
  if (Live)
    detail::emit(Name, TraceEvent::Phase::End, 0);
}

/// RAII span over spanBegin()/spanEnd().
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) : Name(Name), Live(spanBegin(Name)) {}
  ~ScopedSpan() { spanEnd(Name, Live); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  const char *Name;
  bool Live;
};

} // namespace trace
} // namespace fnc2

/// FNC2_TRACE_ENABLED defaults to 1; the FNC2_TRACE=OFF CMake option defines
/// it to 0, compiling every site out entirely.
#ifndef FNC2_TRACE_ENABLED
#define FNC2_TRACE_ENABLED 1
#endif

#if FNC2_TRACE_ENABLED

#define FNC2_TRACE_CONCAT_IMPL(A, B) A##B
#define FNC2_TRACE_CONCAT(A, B) FNC2_TRACE_CONCAT_IMPL(A, B)

/// Opens a span covering the rest of the enclosing scope.
#define FNC2_SPAN(NAME)                                                        \
  ::fnc2::trace::ScopedSpan FNC2_TRACE_CONCAT(Fnc2Span_, __LINE__)(NAME)

/// Opens span NAME outside any scope; yields the bool FNC2_SPAN_END takes.
#define FNC2_SPAN_BEGIN(NAME) ::fnc2::trace::spanBegin(NAME)

/// Closes a span FNC2_SPAN_BEGIN(NAME) opened, given its result LIVE.
#define FNC2_SPAN_END(NAME, LIVE) ::fnc2::trace::spanEnd(NAME, (LIVE))

/// Increments counter NAME by DELTA.
#define FNC2_COUNT(NAME, DELTA) ::fnc2::trace::count(NAME, (DELTA))

/// Records an instant event NAME carrying VALUE.
#define FNC2_INSTANT(NAME, VALUE) ::fnc2::trace::instant(NAME, (VALUE))

#else

#define FNC2_SPAN(NAME) ((void)0)
#define FNC2_SPAN_BEGIN(NAME) false
#define FNC2_SPAN_END(NAME, LIVE) ((void)(LIVE))
#define FNC2_COUNT(NAME, DELTA) ((void)0)
#define FNC2_INSTANT(NAME, VALUE) ((void)0)

#endif // FNC2_TRACE_ENABLED

#endif // FNC2_SUPPORT_TRACE_H
