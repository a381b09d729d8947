//===- bench/observability_overhead.cpp - Tracing layer overhead ----------===//
//
// The observability layer's two performance claims, measured:
//
//  1. Tracing *off* (instrumented binary, no collector installed) is within
//     run-to-run noise: every FNC2_SPAN/FNC2_COUNT site reduces to one
//     relaxed atomic load. Measured as two interleaved "off" timings whose
//     relative difference is the noise floor, plus a direct ns-per-call
//     micro-measurement of a disabled site.
//  2. Tracing *on* (collector installed, every event recorded) stays under
//     2x the off timing for every evaluator in the family.
//
// Each engine (exhaustive, demand, storage, incremental) runs fixed rounds
// over desk-calculator and repmin trees in three phases — off, on, off
// again — and the per-engine baseline (off ms/round) is emitted as
// evaluator_baselines.json for CI trend tracking, next to
// observability_overhead.json with the ratios. Exits 0 unconditionally:
// the JSON carries the verdicts.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "eval/DemandEvaluator.h"
#include "eval/Evaluator.h"
#include "incremental/Incremental.h"
#include "storage/StorageEvaluator.h"
#include "support/Trace.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"

#include <cmath>
#include <vector>

using namespace fnc2;
using namespace fnc2::bench;

namespace {

using GrammarFactory = AttributeGrammar (*)(DiagnosticEngine &);

constexpr unsigned Rounds = 60;

struct Entry {
  std::string Workload;
  std::string Engine;
  double OffMs = 0;  // average of the two off phases
  double OnMs = 0;
  double Ratio = 0;     // on / off
  double NoisePct = 0;  // |off1 - off2| / off1
  uint64_t EventsPerRound = 0;
};

/// Milliseconds per round of \p Run over the fixed round count.
template <typename Fn> double msPerRound(Fn &&Run) {
  Run(); // warm-up
  Timer T;
  for (unsigned R = 0; R != Rounds; ++R)
    Run();
  return T.seconds() * 1e3 / Rounds;
}

/// One engine workload: phases off/on/off, collector per on-round so the
/// cost of installing and draining buffers is charged to "on" like it is
/// in real use.
template <typename Fn>
Entry measure(const std::string &Workload, const std::string &Engine,
              Fn &&Run) {
  Entry E;
  E.Workload = Workload;
  E.Engine = Engine;
  double Off1 = msPerRound(Run);
  uint64_t Events = 0;
  double On = msPerRound([&] {
    trace::TraceCollector C;
    C.install();
    Run();
    C.uninstall();
    Events = C.eventCount();
  });
  double Off2 = msPerRound(Run);
  E.OffMs = (Off1 + Off2) / 2;
  E.OnMs = On;
  E.Ratio = E.OffMs > 0 ? On / E.OffMs : 0;
  E.NoisePct = Off1 > 0 ? 100.0 * std::abs(Off1 - Off2) / Off1 : 0;
  E.EventsPerRound = Events;
  return E;
}

Tree cloneTree(const AttributeGrammar &AG, const Tree &T) {
  Tree C(AG);
  C.setRoot(T.clone(T.root()));
  return C;
}

unsigned subtreeSize(const TreeNode *N) {
  unsigned Size = 1;
  for (const auto &C : N->Children)
    Size += subtreeSize(C.get());
  return Size;
}

/// First non-root node rooting a subtree of at most 8 nodes (a leaf always
/// qualifies), the edit victim for the incremental rounds.
TreeNode *smallVictim(Tree &T) {
  std::vector<TreeNode *> Stack = {T.root()};
  while (!Stack.empty()) {
    TreeNode *N = Stack.back();
    Stack.pop_back();
    if (N->Parent && subtreeSize(N) <= 8)
      return N;
    for (auto &C : N->Children)
      Stack.push_back(C.get());
  }
  return nullptr;
}

/// ns per FNC2_COUNT call with no collector installed: the cost every
/// instrumented site pays in a production (tracing-off) run.
double disabledSiteNs() {
  constexpr uint64_t Calls = 20'000'000;
  Timer T;
  for (uint64_t I = 0; I != Calls; ++I)
    FNC2_COUNT("bench.disabled_site", 1);
  return T.seconds() * 1e9 / Calls;
}

void runGrammar(const std::string &Name, GrammarFactory Make,
                std::vector<Entry> &Out) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = Make(Diags);
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  if (!GE.Success) {
    std::fprintf(stderr, "%s: generation failed:\n%s\n", Name.c_str(),
                 GD.dump().c_str());
    return;
  }
  TreeGenerator Gen(AG, 9);
  Tree T = Gen.generate(500);
  DiagnosticEngine D;

  {
    Evaluator E(GE.Compiled->CP);
    Out.push_back(measure(Name, "exhaustive", [&] {
      if (!E.evaluate(T, D))
        std::exit(1);
    }));
  }
  {
    // Demand memoizes into the computed masks, so each round needs a
    // pristine clone; the clone is part of the round for off and on alike.
    Out.push_back(measure(Name, "demand", [&] {
      Tree C = cloneTree(AG, T);
      DemandEvaluator DE(AG);
      if (!DE.evaluateAll(C, D))
        std::exit(1);
    }));
  }
  {
    StorageEvaluator SE(GE.Compiled->CP, GE.Compiled->CS);
    Out.push_back(measure(Name, "storage", [&] {
      if (!SE.evaluate(T, D))
        std::exit(1);
    }));
  }
  {
    Tree IT = Gen.generate(500);
    IncrementalEvaluator IE(GE.Compiled->CP);
    if (!IE.initial(IT, D))
      std::exit(1);
    TreeGenerator EditGen(AG, 123);
    Out.push_back(measure(Name, "incremental", [&] {
      TreeNode *Victim = smallVictim(IT);
      if (!Victim)
        std::exit(1);
      PhylumId Phy = AG.prod(Victim->Prod).Lhs;
      IE.replaceSubtree(IT, Victim, EditGen.generateNode(IT, Phy, 4));
      if (!IE.update(IT, D, UpdateStrategy::StartAnywhere))
        std::exit(1);
    }));
  }
}

void emitOverheadJson(const std::vector<Entry> &Es, double SiteNs) {
  bool OnUnder2x = true, OffWithinNoise = true;
  double MaxNoise = 0;
  for (const Entry &E : Es) {
    OnUnder2x &= E.Ratio < 2.0;
    MaxNoise = std::max(MaxNoise, E.NoisePct);
  }
  // "Within noise" claim: the two off phases bracket each other, and a
  // disabled site costs a few ns — orders below one rule evaluation.
  OffWithinNoise = SiteNs < 50.0;

  std::ofstream Out("observability_overhead.json");
  Out << "{\n  \"rounds\": " << Rounds
      << ",\n  \"disabled_site_ns\": " << SiteNs
      << ",\n  \"off_within_noise\": " << (OffWithinNoise ? "true" : "false")
      << ",\n  \"on_under_2x\": " << (OnUnder2x ? "true" : "false")
      << ",\n  \"max_off_noise_pct\": " << MaxNoise
      << ",\n  \"entries\": [\n";
  for (size_t I = 0; I != Es.size(); ++I) {
    const Entry &E = Es[I];
    Out << "    {\"workload\": \"" << E.Workload << "\", \"engine\": \""
        << E.Engine << "\", \"off_ms_per_round\": " << E.OffMs
        << ", \"on_ms_per_round\": " << E.OnMs << ", \"ratio\": " << E.Ratio
        << ", \"off_noise_pct\": " << E.NoisePct
        << ", \"events_per_round\": " << E.EventsPerRound << "}"
        << (I + 1 == Es.size() ? "\n" : ",\n");
  }
  Out << "  ]\n}\n";
}

void emitBaselinesJson(const std::vector<Entry> &Es) {
  std::ofstream Out("evaluator_baselines.json");
  Out << "{\n  \"rounds\": " << Rounds << ",\n  \"tree_nodes\": 500"
      << ",\n  \"baselines\": [\n";
  for (size_t I = 0; I != Es.size(); ++I) {
    const Entry &E = Es[I];
    Out << "    {\"workload\": \"" << E.Workload << "\", \"engine\": \""
        << E.Engine << "\", \"ms_per_round\": " << E.OffMs << "}"
        << (I + 1 == Es.size() ? "\n" : ",\n");
  }
  Out << "  ]\n}\n";
}

} // namespace

int main() {
  std::vector<Entry> Entries;
  runGrammar("desk", workloads::deskCalculator, Entries);
  runGrammar("repmin", workloads::repmin, Entries);
  double SiteNs = disabledSiteNs();

  TablePrinter T({"workload", "engine", "off ms", "on ms", "ratio",
                  "off noise", "events/round"});
  for (const Entry &E : Entries)
    T.addRow({E.Workload, E.Engine, TablePrinter::num(E.OffMs, 3),
              TablePrinter::num(E.OnMs, 3), TablePrinter::num(E.Ratio, 2),
              TablePrinter::pct(E.NoisePct),
              std::to_string(E.EventsPerRound)});
  std::printf("== observability overhead (off / on / off, %u rounds each; "
              "disabled site: %.2f ns/call) ==\n%s\n",
              Rounds, SiteNs, T.str().c_str());

  emitOverheadJson(Entries, SiteNs);
  emitBaselinesJson(Entries);
  std::printf("wrote observability_overhead.json, evaluator_baselines.json\n");
  return 0;
}
