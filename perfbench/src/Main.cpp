//===- perfbench/src/Main.cpp - The benchmark's entry point --------------===//
//
//   perfbench --workload compile|service|batch --seed N --seconds S
//             --trace 0|1 [--smoke] [--inject-fault response|root]
//             [--trace-dir DIR]
//   perfbench --inputs-digest --seed N [--smoke]
//
// Untraced (--trace 0): sets the workload up three times (setup_s is the
// median), runs one warm-up round, then measures its loop for S seconds and
// prints the end-to-end metrics, the same set on every workload.
//
// Traced (--trace 1): every workload in turn is set up with spans on, run
// untraced (after a warm-up round) and then traced for S/6 seconds each,
// and asked for its
// per-layer metrics, so that every per-layer metric is measured in every
// traced run. The tracing overhead of each workload is the traced loop's
// throughput loss against the untraced one. Spans go to
// <trace-dir>/trace-<workload>-<seed>.jsonl.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"
#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace perfbench;

namespace {

using Factory = std::unique_ptr<Workload> (*)(const Options &, Report &);

struct WorkloadDef {
  const char *Name;
  Factory Make;
  void (*Digest)(const Options &, InputDigests &);
};

const WorkloadDef Defs[] = {
    {"compile", makeCompileWorkload, digestCompileInputs},
    {"service", makeServiceWorkload, digestServiceInputs},
    {"batch", makeBatchWorkload, digestBatchInputs},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload compile|service|"
               "batch --seed N --seconds S --trace 0|1 [--smoke] "
               "[--inject-fault response|root] [--trace-dir DIR]\n"
               "       perfbench --inputs-digest --seed N [--smoke]\n",
               Why);
  std::exit(2);
}

const WorkloadDef &findDef(const std::string &Name) {
  for (const WorkloadDef &D : Defs)
    if (Name == D.Name)
      return D;
  usage(("unknown workload '" + Name + "'").c_str());
}

/// End-to-end figures are medians over windows of consecutive whole rounds,
/// so that a burst of outside load covering a few windows does not move
/// them, while every window holds the workload's full mix. A latency window
/// holds at least MinPerWindow operations of its class, so that a run of
/// long rounds (a batch round is one cold and one warm operation) still has
/// several windows and its tail is not one burst's.
constexpr size_t MaxWindows = 10;
constexpr size_t MinPerWindow = 10;

/// Splits the rounds of \p S into \p W windows and returns the operations
/// of each that \p Keep accepts.
template <typename Pred>
std::vector<Samples> windows(const Samples &S, size_t W, Pred Keep) {
  W = std::clamp<size_t>(W, 1, std::max<size_t>(1, S.Rounds));
  std::vector<Samples> Out(W);
  for (const Samples::Op &O : S.Ops)
    if (Keep(O))
      Out[std::min<size_t>(W - 1, size_t(O.Round) * W / S.Rounds)]
          .Ops.push_back(O);
  return Out;
}

/// Adds "<Prefix>_p50_ms" and, with \p Tail, "<Prefix>_p90_ms".
void addLatency(Report &R, const char *Prefix, const Samples &S, bool Cold,
                bool Tail) {
  auto IsClass = [&](const Samples::Op &O) { return O.Cold == Cold; };
  const size_t N = std::count_if(S.Ops.begin(), S.Ops.end(), IsClass);
  std::vector<double> P50, P90;
  for (const Samples &Win :
       windows(S, std::min(MaxWindows, N / MinPerWindow), IsClass)) {
    std::vector<double> Ms;
    for (const Samples::Op &O : Win.Ops)
      Ms.push_back(O.Ms);
    if (Ms.empty())
      continue;
    P50.push_back(percentile(Ms, 0.50));
    P90.push_back(percentile(Ms, 0.90));
  }
  R.add(std::string(Prefix) + "_p50_ms", median(P50), "ms", N);
  if (Tail)
    R.add(std::string(Prefix) + "_p90_ms", median(P90), "ms", N);
}

void addThroughput(Report &R, const Samples &S) {
  std::vector<double> Rates;
  for (const Samples &Win :
       windows(S, MaxWindows, [](const Samples::Op &) { return true; }))
    if (!Win.Ops.empty())
      Rates.push_back(Win.itemsPerSecond());
  R.add("throughput_per_s", median(Rates), "1/s", S.Ops.size());
}

int runUntraced(const Options &O) {
  const WorkloadDef &Def = findDef(O.Workload);
  Report R;
  // Set up several times; report the median, keep the last.
  std::vector<double> SetupS;
  std::unique_ptr<Workload> W;
  for (int I = 0; I != (O.Smoke ? 1 : 3); ++I) {
    W.reset();
    Clock::time_point T0 = Clock::now();
    W = Def.Make(O, R);
    SetupS.push_back(msSince(T0) * 1e-3);
  }
  W->run(0, /*Traced=*/false, R); // one warm-up round
  Samples S = W->run(O.Seconds, /*Traced=*/false, R);
  W.reset();
  std::printf("perfbench: workload %s, seed %llu, %.3g s\n", Def.Name,
              static_cast<unsigned long long>(O.Seed), O.Seconds);
  R.add("setup_s", median(SetupS), "s", SetupS.size());
  R.add("peak_rss_mb", peakRssMb(), "MiB", 1);
  // The warm tail is left out: across runs on a shared 4-vCPU host it
  // spread by up to a quarter (3 ms warm compile operations, 1 ms fnc2d
  // edits), more than any bound a regression check can use.
  addLatency(R, "cold", S, /*Cold=*/true, /*Tail=*/true);
  addLatency(R, "warm", S, /*Cold=*/false, /*Tail=*/false);
  addThroughput(R, S);
  R.print();
  return 0;
}

int runTraced(const Options &O) {
  findDef(O.Workload); // validates the name
  Report R;
  const double Slice = O.Seconds / (2.0 * std::size(Defs));
  std::vector<std::pair<std::string, double>> Overheads;
  for (const WorkloadDef &Def : Defs) {
    Tracer::setEnabled(true);
    std::unique_ptr<Workload> W = Def.Make(O, R);
    Tracer::setEnabled(false);
    W->run(0, /*Traced=*/false, R); // one warm-up round
    Samples U = W->run(Slice, /*Traced=*/false, R);
    Tracer::setEnabled(true);
    Samples T = W->run(Slice, /*Traced=*/true, R);
    W->addLayerMetrics(U, T, R);
    Tracer::setEnabled(false);
    const double Tr = T.itemsPerSecond();
    Overheads.emplace_back(std::string("trace.") + Def.Name + "_overhead_pct",
                           Tr > 0 ? 100.0 * (U.itemsPerSecond() / Tr - 1.0) : 0);
  }
  for (auto &[Name, Pct] : Overheads)
    R.add(Name, Pct, "%", 2);
  const std::string Path = O.TraceDir + "/trace-" + O.Workload + "-" +
                           std::to_string(O.Seed) + ".jsonl";
  R.check(Tracer::writeJsonLines(Path), "cannot write " + Path);
  std::printf("perfbench: traced run, spans in %s\n", Path.c_str());
  R.print();
  return 0;
}

int runInputsDigest(const Options &O) {
  InputDigests Out;
  for (const WorkloadDef &Def : Defs)
    Def.Digest(O, Out);
  uint64_t All = hashString("");
  for (auto &[Name, H] : Out) {
    std::printf("%-40s %016llx\n", Name.c_str(),
                static_cast<unsigned long long>(H));
    All = hashBytes(&H, sizeof(H), All);
  }
  std::printf("%-40s %016llx\n", "all", static_cast<unsigned long long>(All));
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  bool Digest = false;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        usage(("missing value after " + A).c_str());
      return argv[++I];
    };
    if (A == "--workload") {
      O.Workload = Next();
    } else if (A == "--seed") {
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds") {
      O.Seconds = std::atof(Next().c_str());
      HaveSeconds = O.Seconds > 0;
    } else if (A == "--trace") {
      const std::string V = Next();
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      O.Trace = V == "1";
      HaveTrace = true;
    } else if (A == "--smoke") {
      O.Smoke = true;
    } else if (A == "--inject-fault") {
      const std::string V = Next();
      if (V == "response")
        O.Inject = Fault::Response;
      else if (V == "root")
        O.Inject = Fault::Root;
      else
        usage("--inject-fault takes response or root");
    } else if (A == "--trace-dir") {
      O.TraceDir = Next();
    } else if (A == "--inputs-digest") {
      Digest = true;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (Digest) {
    if (!HaveSeed)
      usage("--inputs-digest needs --seed");
    return runInputsDigest(O);
  }
  if (O.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  return O.Trace ? runTraced(O) : runUntraced(O);
}

namespace perfbench {

void addSpanMetric(Report &R, const char *Name, const char *SpanName,
                   const char *Unit) {
  const SpanTotals T = Tracer::totals()[SpanName];
  const double Scale = std::strcmp(Unit, "us") == 0  ? 1e3
                       : std::strcmp(Unit, "s") == 0 ? 1e-3
                                                     : 1.0;
  R.add(Name, T.meanSelfMs() * Scale, Unit, T.Count);
}

} // namespace perfbench
