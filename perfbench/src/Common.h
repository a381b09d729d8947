//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Options, the result report, percentiles, seeded randomness, attribution
// digests and the oracle helpers every workload uses.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "grammar/AttributeGrammar.h"
#include "tree/Tree.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using fnc2::AttributeGrammar;

/// Which injected fault a run carries (the oracle self-test): a flipped
/// byte in one fnc2d response, or one wrong root value out of a batch
/// engine. Both must be counted as failed operations.
enum class Fault { None, Response, Root };

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Small inputs and short loops, for the benchmark's own tests.
  bool Smoke = false;
  Fault Inject = Fault::None;
  /// Directory the trace file is written to (the process's working
  /// directory holds caches and the fnc2d socket).
  std::string TraceDir = ".";
};

/// One printed metric. Samples is the number of measurements behind the
/// value (printed in the human-readable table, not in the JSON line).
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0;
};

/// Operations attempted and failed, plus the metrics of one run.
class Report {
public:
  /// Counts one checked operation; a false \p Ok is a failure, and the
  /// first few are described on stderr.
  void check(bool Ok, const std::string &What);
  void add(std::string Name, double Value, std::string Unit,
           uint64_t Samples);

  /// Prints the table, then the one-line JSON result as the last line.
  void print() const;

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
};

/// Nearest-rank percentile of \p V (sorted in place); \p P in [0, 1].
double percentile(std::vector<double> &V, double P);
double median(std::vector<double> V);
double mean(const std::vector<double> &V);

/// Peak resident set size of this process (VmHWM), in MiB.
double peakRssMb();

using Clock = std::chrono::steady_clock;
inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// splitmix64: the benchmark's own generator, so that library RNG changes
/// never shift the inputs a seed produces.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ull + 7) {}
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return N == 0 ? 0 : next() % N; }
};

/// Derives an independent seed for one input stream of a workload.
uint64_t subSeed(uint64_t Seed, uint64_t Stream);

/// FNV-1a over bytes, chainable.
uint64_t hashBytes(const void *Data, size_t Len,
                   uint64_t H = 0xcbf29ce484222325ull);
inline uint64_t hashString(const std::string &S,
                           uint64_t H = 0xcbf29ce484222325ull) {
  return hashBytes(S.data(), S.size(), H);
}

/// Digest of a tree's full attribution: productions, lexemes and every
/// attribute instance (computed or not) in pre-order. Locals are left out,
/// because engines differ in which locals they keep.
uint64_t attributionDigest(const AttributeGrammar &AG, const fnc2::Tree &T);

/// The root-inherited convention of the test suite (Value 7 for every
/// inherited attribute of the start phylum).
std::vector<std::pair<fnc2::AttrId, fnc2::Value>>
rootInherited(const AttributeGrammar &AG);

/// The root's synthesized attribute values, in declaration order; the
/// value of an uncomputed attribute is a Unit value.
std::vector<fnc2::Value> rootValues(const AttributeGrammar &AG,
                                    const fnc2::TreeNode *Root);

/// Root synthesized values of \p T as computed by the demand-driven
/// evaluator on a private clone: the engine-independent oracle.
bool demandRootValues(const AttributeGrammar &AG, const fnc2::Tree &T,
                      std::vector<fnc2::Value> &Out);
/// attributionDigest() of a private clone of \p T evaluated on demand.
bool demandDigest(const AttributeGrammar &AG, const fnc2::Tree &T,
                  uint64_t &Out);

/// Prints to stderr and exits 1: set-up errors that make a run
/// meaningless (a missing host compiler, an input that does not compile).
[[noreturn]] void fatal(const std::string &Msg);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
