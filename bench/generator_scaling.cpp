//===- bench/generator_scaling.cpp - Cascade scaling: naive vs worklist ---===//
//
// The generator-cascade scaling study behind the worklist rewrite: SpecGen
// synthesizes grammars of growing phylum/operator/attribute counts, and
// each point runs the full front half of the generator — SNC, DNC, OAG
// tests plus the transformation/partitioning phase — under both fixpoint
// formulations:
//
//   naive     global re-sweeps, heap Digraphs, full Warshall closures
//             (GfaOptions::NaiveFixpoint, the pre-rewrite formulation)
//   worklist  per-production dirty bits, word-parallel paste/projection,
//             incrementally re-closed cached closures, on the calling
//             thread
//
// Emits generator_scaling.json with one ms_per_round row per (spec, engine)
// for bench_check.py trend tracking (baseline: BENCH_generator.json), and
// prints the speedup table the README quotes. Exits 1 if a spec fails to
// compile or the two engines disagree on the class — the bench doubles as
// a coarse differential check.
//
// Each point also times the molga front end that produces the grammar
// (compileMolga: parse, check, optimize, lower) next to its source size,
// and the two phases after the cascade, visit-sequence generation and the
// space optimization (analyzeStorage). They go to a separate "phases"
// table and JSON section, report-only: their keys are not bench_check
// metrics.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ordered/Transform.h"
#include "storage/Lifetime.h"

#include <cstdio>
#include <vector>

using namespace fnc2;
using namespace fnc2::bench;

namespace {

constexpr unsigned Rounds = 5;

struct SweepPoint {
  const char *Name;
  unsigned Phyla, Ops, AttrPairs;
};

// S4-xlarge is the compile benchmark's specgen-S4 grammar: 385 productions
// with up to 42 occurrences each.
const SweepPoint Sweep[] = {
    {"S1-small", 8, 3, 2},
    {"S2-medium", 16, 4, 3},
    {"S3-large", 28, 6, 4},
    {"S4-xlarge", 48, 8, 7},
};

struct Entry {
  std::string Spec;
  std::string Engine;
  double MsPerRound = 0;
  std::string Class;
};

/// One cascade + transform run, the unit both engines are timed on. This is
/// exactly the generator's phases 1-4 (figure 3) minus visit sequences and
/// storage, which are independent of the fixpoint formulation.
std::string runCascade(const AttributeGrammar &AG, const GfaOptions &Gfa) {
  ClassifyResult R = classifyGrammar(AG, /*OagK=*/1, Gfa);
  if (R.Class == AgClass::OAG)
    (void)uniformInstances(AG, R.Oag.Partitions);
  else if (R.Snc.IsSNC)
    (void)sncToLOrdered(AG, R.Snc, ReuseMode::LongInclusion);
  return R.className();
}

Entry measure(const std::string &Spec, const std::string &Engine,
              const AttributeGrammar &AG, const GfaOptions &Gfa) {
  Entry E;
  E.Spec = Spec;
  E.Engine = Engine;
  E.Class = runCascade(AG, Gfa); // warm-up
  Timer T;
  for (unsigned R = 0; R != Rounds; ++R)
    runCascade(AG, Gfa);
  E.MsPerRound = T.seconds() * 1e3 / Rounds;
  return E;
}

/// Report-only source size and milliseconds of the front end and of the
/// phases after the cascade.
struct PhaseEntry {
  std::string Spec;
  double SourceKb = 0;
  double MolgaMs = 0;
  double VisitSeqMs = 0;
  double StorageMs = 0;
};

/// Times compileMolga on \p Source, one warm-up round then the mean of
/// Rounds.
double measureMolga(const std::string &Source) {
  double Ms = 0;
  for (unsigned Round = 0; Round <= Rounds; ++Round) {
    DiagnosticEngine D;
    Timer T;
    (void)olga::compileMolga(Source, D);
    if (Round != 0)
      Ms += T.milliseconds() / Rounds;
  }
  return Ms;
}

/// Times buildVisitSequences and analyzeStorage on the worklist cascade's
/// transformation, one warm-up round then the mean of Rounds. Returns false
/// if the transformation or visit-sequence generation fails.
bool measurePhases(const std::string &Spec, const AttributeGrammar &AG,
                   PhaseEntry &E) {
  ClassifyResult R = classifyGrammar(AG, /*OagK=*/1, GfaOptions());
  TransformResult TR = R.Class == AgClass::OAG
                           ? uniformInstances(AG, R.Oag.Partitions)
                           : sncToLOrdered(AG, R.Snc, ReuseMode::LongInclusion);
  if (!TR.Success)
    return false;
  E.Spec = Spec;
  for (unsigned Round = 0; Round <= Rounds; ++Round) {
    EvaluationPlan Plan;
    DiagnosticEngine D;
    Timer VisitSeq;
    if (!buildVisitSequences(AG, TR, Plan, D))
      return false;
    double VisitSeqMs = VisitSeq.milliseconds();
    Timer Storage;
    (void)analyzeStorage(AG, Plan);
    double StorageMs = Storage.milliseconds();
    if (Round != 0) {
      E.VisitSeqMs += VisitSeqMs / Rounds;
      E.StorageMs += StorageMs / Rounds;
    }
  }
  return true;
}

void emitJson(const std::vector<Entry> &Es,
              const std::vector<PhaseEntry> &Phases) {
  std::ofstream Out("generator_scaling.json");
  Out << "{\n  \"rounds\": " << Rounds << ",\n  \"entries\": [\n";
  for (size_t I = 0; I != Es.size(); ++I) {
    const Entry &E = Es[I];
    Out << "    {\"spec\": \"" << E.Spec << "\", \"engine\": \"" << E.Engine
        << "\", \"class\": \"" << E.Class
        << "\", \"ms_per_round\": " << E.MsPerRound << "}"
        << (I + 1 == Es.size() ? "\n" : ",\n");
  }
  Out << "  ],\n  \"phases\": [\n";
  for (size_t I = 0; I != Phases.size(); ++I) {
    const PhaseEntry &P = Phases[I];
    // Fixed-point text keeps the size a JSON float, never a key field.
    Out << "    {\"spec\": \"" << P.Spec
        << "\", \"source_kb\": " << TablePrinter::num(P.SourceKb, 1)
        << ", \"molga_ms\": " << P.MolgaMs
        << ", \"visitseq_ms\": " << P.VisitSeqMs
        << ", \"storage_ms\": " << P.StorageMs << "}"
        << (I + 1 == Phases.size() ? "\n" : ",\n");
  }
  Out << "  ]\n}\n";
}

} // namespace

int main() {
  GfaOptions Naive;
  Naive.NaiveFixpoint = true;
  GfaOptions Worklist; // default: the worklist engine

  std::vector<Entry> Entries;
  std::vector<PhaseEntry> Phases;
  TablePrinter T({"spec", "phyla", "prods", "class", "naive ms",
                  "worklist ms", "speedup"});
  TablePrinter PT(
      {"spec", "source KB", "molga ms", "visitseq ms", "storage ms"});
  bool Ok = true;
  for (const SweepPoint &P : Sweep) {
    workloads::SpecGenOptions Opts;
    Opts.Name = "Scale" + std::to_string(P.Phyla);
    Opts.Phyla = P.Phyla;
    Opts.OperatorsPerPhylum = P.Ops;
    Opts.AttrPairs = P.AttrPairs;
    Opts.Seed = 7;
    const std::string Source = workloads::generateMolgaSpec(Opts);
    DiagnosticEngine Diags;
    olga::CompileResult C = olga::compileMolga(Source, Diags);
    if (!C.Success) {
      std::fprintf(stderr, "%s: compile failed:\n%s\n", P.Name,
                   Diags.dump().c_str());
      return 1;
    }
    const AttributeGrammar &AG = C.Grammars[0].AG;

    Entry N = measure(P.Name, "naive", AG, Naive);
    Entry W = measure(P.Name, "worklist", AG, Worklist);
    if (N.Class != W.Class) {
      std::fprintf(stderr, "%s: engines disagree: naive=%s worklist=%s\n",
                   P.Name, N.Class.c_str(), W.Class.c_str());
      Ok = false;
    }
    double Speedup = W.MsPerRound > 0 ? N.MsPerRound / W.MsPerRound : 0;
    T.addRow({P.Name, std::to_string(P.Phyla),
              std::to_string(AG.numProds()), W.Class,
              TablePrinter::num(N.MsPerRound, 3),
              TablePrinter::num(W.MsPerRound, 3),
              TablePrinter::num(Speedup, 2) + "x"});
    Entries.push_back(N);
    Entries.push_back(W);

    PhaseEntry Ph;
    Ph.SourceKb = Source.size() / 1024.0;
    Ph.MolgaMs = measureMolga(Source);
    if (!measurePhases(P.Name, AG, Ph)) {
      std::fprintf(stderr, "%s: transform or visit sequences failed\n",
                   P.Name);
      Ok = false;
      continue;
    }
    PT.addRow({P.Name, TablePrinter::num(Ph.SourceKb, 1),
               TablePrinter::num(Ph.MolgaMs, 3),
               TablePrinter::num(Ph.VisitSeqMs, 3),
               TablePrinter::num(Ph.StorageMs, 3)});
    Phases.push_back(Ph);
  }

  std::printf("== generator cascade scaling (SNC+DNC+OAG+transform, "
              "%u rounds per point) ==\n%s\n",
              Rounds, T.str().c_str());
  std::printf("== molga front end and phases after the cascade "
              "(report-only, %u rounds per point) ==\n%s\n",
              Rounds, PT.str().c_str());
  emitJson(Entries, Phases);
  std::printf("wrote generator_scaling.json\n");
  return Ok ? 0 : 1;
}
