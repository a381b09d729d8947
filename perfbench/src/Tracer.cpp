//===- perfbench/src/Tracer.cpp -------------------------------------------===//

#include "Tracer.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

struct Record {
  const char *Name;
  int64_t Parent; ///< Index in the same thread's buffer, -1 for a root.
  uint64_t Op;
  int64_t StartNs;
  int64_t EndNs = -1; ///< -1 while open.
  int64_t ChildNs = 0;
};

struct ThreadBuf {
  uint32_t Thread = 0;
  std::vector<Record> Spans;
  std::vector<int64_t> Open; ///< Stack of open span indices.
  uint64_t Op = 0;
};

std::atomic<bool> Enabled{false};
std::atomic<uint64_t> NextOp{1};
std::mutex BufsMu;
std::vector<std::unique_ptr<ThreadBuf>> Bufs; ///< Guarded by BufsMu.

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The calling thread's buffer. Buffers are owned by Bufs and outlive
/// their threads, so spans of finished client threads are still written.
ThreadBuf &threadBuf() {
  thread_local ThreadBuf *TB = [] {
    std::lock_guard<std::mutex> Lock(BufsMu);
    Bufs.push_back(std::make_unique<ThreadBuf>());
    Bufs.back()->Thread = uint32_t(Bufs.size());
    return Bufs.back().get();
  }();
  return *TB;
}

} // namespace

void Tracer::setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
bool Tracer::enabled() { return Enabled.load(std::memory_order_relaxed); }

void Tracer::beginOperation() {
  if (enabled())
    threadBuf().Op = NextOp.fetch_add(1, std::memory_order_relaxed);
}

std::map<std::string, SpanTotals> Tracer::totals() {
  std::lock_guard<std::mutex> Lock(BufsMu);
  std::map<std::string, SpanTotals> Out;
  for (const auto &B : Bufs)
    for (const Record &R : B->Spans) {
      if (R.EndNs < 0)
        continue;
      SpanTotals &T = Out[R.Name];
      ++T.Count;
      T.TotalMs += double(R.EndNs - R.StartNs) * 1e-6;
      T.SelfMs += double(R.EndNs - R.StartNs - R.ChildNs) * 1e-6;
    }
  return Out;
}

bool Tracer::writeJsonLines(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(BufsMu);
  for (const auto &B : Bufs)
    for (size_t I = 0; I != B->Spans.size(); ++I) {
      const Record &R = B->Spans[I];
      // Span ids are "thread.index"; a parent lives on the same thread.
      char Parent[32] = "null";
      if (R.Parent >= 0)
        std::snprintf(Parent, sizeof(Parent), "\"%u.%lld\"", B->Thread,
                      static_cast<long long>(R.Parent));
      std::fprintf(F,
                   "{\"id\": \"%u.%zu\", \"parent\": %s, \"op\": %llu, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"self_ns\": %lld}\n",
                   B->Thread, I, Parent, static_cast<unsigned long long>(R.Op),
                   R.Name, static_cast<long long>(R.StartNs),
                   static_cast<long long>(R.EndNs),
                   static_cast<long long>(R.EndNs - R.StartNs - R.ChildNs));
    }
  return std::fclose(F) == 0;
}

Span::Span(const char *Name) {
  if (!Tracer::enabled())
    return;
  ThreadBuf &TB = threadBuf();
  int64_t Parent = TB.Open.empty() ? -1 : TB.Open.back();
  Record R{Name, Parent, TB.Op, nowNs()};
  {
    // Appends may reallocate the vector that mark()/totals() read.
    std::lock_guard<std::mutex> Lock(BufsMu);
    Index = int64_t(TB.Spans.size());
    TB.Spans.push_back(R);
  }
  TB.Open.push_back(Index);
}

Span::~Span() {
  if (Index < 0)
    return;
  ThreadBuf &TB = threadBuf();
  int64_t End = nowNs();
  std::lock_guard<std::mutex> Lock(BufsMu);
  Record &R = TB.Spans[size_t(Index)];
  R.EndNs = End;
  TB.Open.pop_back();
  if (R.Parent >= 0)
    TB.Spans[size_t(R.Parent)].ChildNs += End - R.StartNs;
}

} // namespace perfbench
