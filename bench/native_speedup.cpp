//===- bench/native_speedup.cpp - Native backend vs interpreted plan ------===//
//
// The native code-generation backend's two performance claims, measured and
// self-gated:
//
//  1. Speed: the dlopen()ed specialization of a CompiledPlan (branch-free
//     visit bodies, inlined semantic rules, unrolled dispatch) beats the
//     interpreted CompiledPlan instruction stream by >= the per-workload
//     floor on the evaluator baselines (desk / repmin, 500-node trees,
//     fixed rounds, best-of-three), and by >= 1x on every SpecGen system
//     grammar in the sweep (no-regression floor; trend via bench_check).
//  2. Warm starts skip the compiler: a fresh backend over a populated cache
//     directory (in-process memo disabled, so the disk path is exercised)
//     must bind the cached shared object with zero compiler invocations
//     and a nonzero codegen.native.compile_skipped counter.
//
// Emits native_speedup.json (copied to BENCH_native.json by ci.sh). Exits
// nonzero when a gate fails; exits 0 with an empty result list on machines
// without a host C++ compiler (the gates need a toolchain to mean anything).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "codegen/NativeEvaluator.h"
#include "eval/Evaluator.h"
#include "olga/Driver.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/SpecGen.h"

#include <filesystem>
#include <unistd.h>
#include <vector>

using namespace fnc2;
using namespace fnc2::bench;

namespace {

constexpr unsigned Rounds = 60;
constexpr unsigned BestOf = 3;
constexpr unsigned TreeNodes = 500;

/// Per-workload speedup floors the bench gates on. Desk's rule mix (integer
/// arithmetic, environment lookups) inlines completely and gates at >= 3x.
/// Repmin's rounds are dominated by shared string building (std::to_string,
/// concatenation, interning) that both engines pay identically — profiled
/// at over half of the native round — so its floor is what specialization
/// can actually win there: >= 2x measured with margin (typically ~2.5x).
double gateFloor(const std::string &Workload) {
  return Workload == "desk" ? 3.0 : Workload == "repmin" ? 2.0 : 1.0;
}

struct Row {
  std::string Workload;
  double InterpMs = 0;
  double NativeMs = 0;
  double Speedup = 0;
  double Floor = 0; ///< 0: report-only row, no gate.
};

/// Best-of-N of (warm-up + timed rounds): the standard dodge against one
/// unlucky scheduling quantum polluting a gate.
template <typename Fn> double bestMsPerRound(Fn &&Run) {
  double Best = 0;
  for (unsigned A = 0; A != BestOf; ++A) {
    Run(); // warm-up
    Timer T;
    for (unsigned R = 0; R != Rounds; ++R)
      Run();
    double Ms = T.seconds() * 1e3 / Rounds;
    if (A == 0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

std::string uniqueTempDir(const char *Tag) {
  static unsigned Counter = 0;
  auto P = std::filesystem::temp_directory_path() /
           (std::string(Tag) + "-" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "-" +
            std::to_string(Counter++));
  std::filesystem::create_directories(P);
  return P.string();
}

/// Provides every root-inherited attribute, like the test harness does.
template <typename EvalT>
void provideRootInherited(const AttributeGrammar &AG, EvalT &E) {
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      E.setRootInherited(A, Value::ofInt(7));
}

/// Measures interpreted-CompiledPlan vs native over one grammar; pushes a
/// row. Returns false on any build failure (which fails the bench — a
/// toolchain that exists but cannot compile our emitted code is a bug).
bool measureGrammar(const std::string &Name, const AttributeGrammar &AG,
                    const GeneratedEvaluator &GE, NativeBackend &Backend,
                    double Floor, std::vector<Row> &Out) {
  const CompiledPlan &CP = GE.Compiled->CP;
  NativeBuildResult B = Backend.build(AG, CP);
  if (B.Unavailable) {
    std::fprintf(stderr, "%s: native unavailable: %s\n", Name.c_str(),
                 B.Reason.c_str());
    return true; // environment limitation, not a failure
  }
  if (!B.Module) {
    std::fprintf(stderr, "%s: native build failed: %s\n", Name.c_str(),
                 B.Reason.c_str());
    return false;
  }

  TreeGenerator Gen(AG, 9);
  Tree T = Gen.generate(TreeNodes);
  DiagnosticEngine D;

  Row R;
  R.Workload = Name;
  R.Floor = Floor;
  {
    Evaluator E(GE.Compiled->CP);
    provideRootInherited(AG, E);
    R.InterpMs = bestMsPerRound([&] {
      if (!E.evaluate(T, D))
        std::exit(1);
    });
  }
  {
    NativeEvaluator NE(CP, B.Module);
    provideRootInherited(AG, NE);
    R.NativeMs = bestMsPerRound([&] {
      if (!NE.evaluate(T, D))
        std::exit(1);
    });
  }
  R.Speedup = R.NativeMs > 0 ? R.InterpMs / R.NativeMs : 0;
  Out.push_back(R);
  return true;
}

/// The warm-start gate: cold build compiles into a fresh cache dir; a new
/// backend over the same dir with the in-process memo disabled must bind
/// from disk without the compiler.
bool warmStartGate(const AttributeGrammar &AG, const GeneratedEvaluator &GE,
                   uint64_t &ColdCompiles, uint64_t &WarmCompiles,
                   uint64_t &WarmSkipped) {
  const std::string Dir = uniqueTempDir("fnc2-native-bench");
  const CompiledPlan &CP = GE.Compiled->CP;

  NativeBackend Cold({Dir, /*UseMemo=*/false});
  NativeBuildResult CB = Cold.build(AG, CP);
  if (!CB.Module || !CB.CompilerInvoked) {
    std::fprintf(stderr, "warm-start gate: cold build did not compile: %s\n",
                 CB.Reason.c_str());
    return false;
  }
  ColdCompiles = Cold.stats().Compiles;

  NativeBackend Warm({Dir, /*UseMemo=*/false});
  NativeBuildResult WB = Warm.build(AG, CP);
  WarmCompiles = Warm.stats().Compiles;
  WarmSkipped = Warm.stats().CompileSkipped;
  if (!WB.Module || WB.CompilerInvoked || !WB.FromCache) {
    std::fprintf(stderr, "warm-start gate: warm build did not bind from "
                         "cache: %s\n",
                 WB.Reason.c_str());
    return false;
  }
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  return WarmCompiles == 0 && WarmSkipped >= 1;
}

void emitJson(const std::vector<Row> &Rows, bool GatePassed,
              uint64_t ColdCompiles, uint64_t WarmCompiles,
              uint64_t WarmSkipped) {
  std::ofstream Out("native_speedup.json");
  Out << "{\n  \"rounds\": " << Rounds << ",\n  \"tree_nodes\": " << TreeNodes
      << ",\n  \"best_of\": " << BestOf
      << ",\n  \"gate_passed\": " << (GatePassed ? "true" : "false")
      << ",\n  \"warm_start\": {\"cold_compiles\": " << ColdCompiles
      << ", \"warm_compiles\": " << WarmCompiles
      << ", \"warm_compile_skipped\": " << WarmSkipped << "}"
      << ",\n  \"results\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    Out << "    {\"workload\": \"" << R.Workload
        << "\", \"interp_ms_per_round\": " << R.InterpMs
        << ", \"native_ms_per_round\": " << R.NativeMs
        << ", \"speedup\": " << R.Speedup
        << ", \"gate_min_speedup\": " << R.Floor << "}"
        << (I + 1 == Rows.size() ? "\n" : ",\n");
  }
  Out << "  ]\n}\n";
}

} // namespace

int main() {
  if (!NativeBackend::available()) {
    std::printf("native_speedup: no host C++ compiler; writing empty "
                "results and exiting 0\n");
    emitJson({}, true, 0, 0, 0);
    return 0;
  }

  using GrammarFactory = AttributeGrammar (*)(DiagnosticEngine &);
  struct Classic {
    const char *Name;
    GrammarFactory Make;
  };
  const Classic Classics[] = {{"desk", workloads::deskCalculator},
                              {"repmin", workloads::repmin}};

  NativeBackend Backend({uniqueTempDir("fnc2-native-bench-cache"), true});
  std::vector<Row> Rows;
  bool Ok = true;
  bool WarmOk = true;
  uint64_t ColdCompiles = 0, WarmCompiles = 0, WarmSkipped = 0;

  for (const Classic &C : Classics) {
    DiagnosticEngine Diags;
    AttributeGrammar AG = C.Make(Diags);
    DiagnosticEngine GD;
    GeneratedEvaluator GE = generateEvaluator(AG, GD);
    if (!GE.Success) {
      std::fprintf(stderr, "%s: generation failed\n", C.Name);
      return 1;
    }
    Ok &= measureGrammar(C.Name, AG, GE, Backend, gateFloor(C.Name), Rows);
    if (std::string(C.Name) == "desk")
      WarmOk = warmStartGate(AG, GE, ColdCompiles, WarmCompiles, WarmSkipped);
  }

  // SpecGen sweep: generated system grammars with no NativeExpr bodies.
  // The FnInliner lowers their molga semantic functions to straight-line
  // expressions, so specialization must never lose to the interpreter:
  // each row gates at >= 1.0x (no-regression floor), with the trend still
  // tracked by bench_check.
  for (const workloads::SystemAg &Ag : workloads::systemAgSuite()) {
    DiagnosticEngine Diags;
    olga::CompileResult C = olga::compileMolga(Ag.Source, Diags);
    if (!C.Success)
      return 1;
    DiagnosticEngine GD;
    GeneratorOptions Opts;
    Opts.OagK = Ag.OagK;
    GeneratedEvaluator GE = generateEvaluator(C.Grammars[0].AG, GD, Opts);
    if (!GE.Success)
      return 1;
    Ok &= measureGrammar(std::string("specgen-") + Ag.Name,
                         C.Grammars[0].AG, GE, Backend, 1.0, Rows);
  }

  bool GatePassed = Ok && WarmOk;
  TablePrinter T({"workload", "interp ms", "native ms", "speedup", "floor"});
  for (const Row &R : Rows) {
    T.addRow({R.Workload, TablePrinter::num(R.InterpMs, 4),
              TablePrinter::num(R.NativeMs, 4),
              TablePrinter::num(R.Speedup, 2),
              R.Floor > 0 ? TablePrinter::num(R.Floor, 1) : "-"});
    if (R.Floor > 0 && R.Speedup < R.Floor) {
      std::fprintf(stderr, "GATE: %s speedup %.2fx below floor %.1fx\n",
                   R.Workload.c_str(), R.Speedup, R.Floor);
      GatePassed = false;
    }
  }
  std::printf("== native vs interpreted CompiledPlan (%u rounds, best of %u, "
              "%u-node trees) ==\n%s\n",
              Rounds, BestOf, TreeNodes, T.str().c_str());
  std::printf("warm start: cold compiles=%llu warm compiles=%llu "
              "warm compile_skipped=%llu\n",
              static_cast<unsigned long long>(ColdCompiles),
              static_cast<unsigned long long>(WarmCompiles),
              static_cast<unsigned long long>(WarmSkipped));

  emitJson(Rows, GatePassed, ColdCompiles, WarmCompiles, WarmSkipped);
  std::printf("wrote native_speedup.json%s\n",
              GatePassed ? "" : " (GATE FAILED)");
  return GatePassed ? 0 : 1;
}
