//===- bench/incremental_scaling.cpp - edit-log replay at scale -----------===//
//
// The scale story behind incremental evaluation (paper section 2.1.2): a
// long editor session replayed through IncrementalSession against trees of
// 1k / 10k / 100k nodes. Edits are EditScriptGen's mix (bounded subtree
// replacements, leaf value changes, production swaps), so the affected
// region per edit is bounded while the tree grows by two orders of
// magnitude — per-edit work must track the region, not the tree.
//
// Self-gates (exit 1):
//  * proportional work — the median reevaluated-rule count per edit grows
//    by at most ProportionalitySlack from the smallest to the largest tree
//    of a grammar, while the from-scratch rule count grows ~100x;
//  * incremental wins at scale — at every sweep point the median edit
//    reevaluates a small fraction (1/WinFactor) of a from-scratch pass;
//  * persistence at scale — each session (including the 100k-node one)
//    saves and resumes bit-identically at the end of its run.
//
// Emits incremental_scaling.json: one row per (grammar, nodes) with median
// ms_per_edit and rules_per_edit for bench_check.py trend tracking against
// BENCH_incremental.json.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "incremental/Session.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/EditScriptGen.h"
#include "workloads/MiniPascal.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace fnc2;
using namespace fnc2::bench;

namespace {

constexpr double ProportionalitySlack = 6.0;
constexpr double WinFactor = 4.0;

struct SweepRow {
  std::string Grammar;
  unsigned Nodes = 0; // actual tree size
  unsigned Edits = 0;
  double MsPerEdit = 0;    // median
  double RulesPerEdit = 0; // median
  double FullMs = 0;       // from-scratch pass over the final tree
  double FullRules = 0;
};

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V.empty() ? 0 : V[V.size() / 2];
}

/// Replays one generated session against a tree of ~\p TargetSize nodes and
/// returns the measured row. Exits on any failure (benches need the run).
SweepRow runPoint(const std::string &Name, const AttributeGrammar &AG,
                  const GeneratedEvaluator &GE, unsigned TargetSize,
                  unsigned NumEdits, uint64_t Seed) {
  TreeGenerator Gen(AG, Seed);
  Tree Start = Gen.generate(TargetSize);
  Tree ScriptTree(AG);
  ScriptTree.setRoot(Start.clone(Start.root()));

  // Pre-generate the whole script (structural replay on a copy) so the
  // timed loop below measures apply+update only, not candidate scanning.
  EditScriptGen Script(AG, {.Seed = Seed * 2654435761ULL + 17});
  EditLog Log = Script.generate(ScriptTree, NumEdits);

  IncrementalSession S(AG, GE.Compiled);
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      S.setRootInherited(A, Value::ofInt(7));
  DiagnosticEngine D;
  unsigned Nodes = Start.size();
  if (!S.start(std::move(Start), D)) {
    std::fprintf(stderr, "%s/%u: initial evaluation failed:\n%s\n",
                 Name.c_str(), Nodes, D.dump().c_str());
    std::exit(1);
  }

  std::vector<double> Ms, Rules;
  for (size_t I = 0; I != Log.size(); ++I) {
    S.evaluator().resetStats();
    Timer T;
    if (!S.apply(Log.op(I), D)) {
      std::fprintf(stderr, "%s/%u: edit %zu failed:\n%s\n", Name.c_str(),
                   Nodes, I, D.dump().c_str());
      std::exit(1);
    }
    Ms.push_back(T.milliseconds());
    Rules.push_back(double(S.stats().RulesReevaluated));
  }

  // From-scratch reference over the final tree.
  Tree Check(AG);
  Check.setRoot(S.tree().clone(S.tree().root()));
  Evaluator Full(GE.Compiled->CP);
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      Full.setRootInherited(A, Value::ofInt(7));
  Timer TF;
  if (!Full.evaluate(Check, D)) {
    std::fprintf(stderr, "%s/%u: from-scratch reference failed:\n%s\n",
                 Name.c_str(), Nodes, D.dump().c_str());
    std::exit(1);
  }
  double FullMs = TF.milliseconds();

  // Persistence at scale: the finished session must save and resume
  // bit-identically — the 100k-node point is the serialization stressor.
  std::vector<uint8_t> Saved;
  std::string Why;
  if (!S.encode(Saved, Why)) {
    std::fprintf(stderr, "%s/%u: session save failed: %s\n", Name.c_str(),
                 Nodes, Why.c_str());
    std::exit(1);
  }
  IncrementalSession Resumed(AG, GE.Compiled);
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      Resumed.setRootInherited(A, Value::ofInt(7));
  std::string Reason;
  if (!Resumed.restore(Saved, Reason) ||
      Resumed.attributionDigest() != S.attributionDigest()) {
    std::fprintf(stderr, "%s/%u: session resume failed: %s\n", Name.c_str(),
                 Nodes, Reason.c_str());
    std::exit(1);
  }

  SweepRow Row;
  Row.Grammar = Name;
  Row.Nodes = Nodes;
  Row.Edits = NumEdits;
  Row.MsPerEdit = median(Ms);
  Row.RulesPerEdit = median(Rules);
  Row.FullMs = FullMs;
  Row.FullRules = double(Full.stats().RulesEvaluated);
  return Row;
}

} // namespace

int main() {
  std::vector<SweepRow> Rows;
  TablePrinter T({"grammar", "nodes", "edits", "ms/edit (med)",
                  "rules/edit (med)", "full ms", "full rules", "win"});

  // Classics straight from their factories.
  struct ClassicPoint {
    const char *Name;
    AttributeGrammar (*Make)(DiagnosticEngine &);
    std::vector<unsigned> Sizes;
  };
  const ClassicPoint Classics[] = {
      {"desk", workloads::deskCalculator, {1000, 10000, 100000}},
      {"minipascal", workloads::miniPascal, {1000, 10000}},
  };
  for (const ClassicPoint &P : Classics) {
    DiagnosticEngine Diags;
    AttributeGrammar AG = P.Make(Diags);
    DiagnosticEngine GD;
    GeneratedEvaluator GE = generateEvaluator(AG, GD);
    if (!GE.Success) {
      std::fprintf(stderr, "%s: generation failed:\n%s\n", P.Name,
                   GD.dump().c_str());
      return 1;
    }
    for (unsigned Size : P.Sizes)
      Rows.push_back(runPoint(P.Name, AG, GE, Size,
                              Size >= 100000 ? 120 : 300, Size + 5));
  }

  // A SpecGen system AG (the generator-scaling S2 point), through the
  // molga front end like the system suite.
  {
    workloads::SpecGenOptions SOpts;
    SOpts.Name = "ScaleInc";
    SOpts.Phyla = 16;
    SOpts.OperatorsPerPhylum = 4;
    SOpts.AttrPairs = 3;
    SOpts.Seed = 7;
    DiagnosticEngine Diags;
    olga::CompileResult C =
        olga::compileMolga(workloads::generateMolgaSpec(SOpts), Diags);
    if (!C.Success) {
      std::fprintf(stderr, "specgen: compile failed:\n%s\n",
                   Diags.dump().c_str());
      return 1;
    }
    const AttributeGrammar &AG = C.Grammars[0].AG;
    DiagnosticEngine GD;
    GeneratorOptions Opts;
    Opts.OagK = 1;
    GeneratedEvaluator GE = generateEvaluator(AG, GD, Opts);
    if (!GE.Success) {
      std::fprintf(stderr, "specgen: generation failed:\n%s\n",
                   GD.dump().c_str());
      return 1;
    }
    for (unsigned Size : {1000u, 10000u})
      Rows.push_back(runPoint("specgen-s2", AG, GE, Size, 300, Size + 5));
  }

  bool Ok = true;
  for (const SweepRow &R : Rows) {
    double Win = R.RulesPerEdit > 0 ? R.FullRules / R.RulesPerEdit : 0;
    T.addRow({R.Grammar, std::to_string(R.Nodes), std::to_string(R.Edits),
              TablePrinter::num(R.MsPerEdit, 4),
              TablePrinter::num(R.RulesPerEdit, 0),
              TablePrinter::num(R.FullMs, 2), TablePrinter::num(R.FullRules, 0),
              TablePrinter::num(Win, 0) + "x"});
    // Incremental wins at every point: the median edit reevaluates a small
    // fraction of the rules a from-scratch pass runs.
    if (R.RulesPerEdit * WinFactor > R.FullRules) {
      std::fprintf(stderr,
                   "FAIL: %s/%u: median edit reevaluates %.0f rules, not a "
                   "1/%.0f fraction of the %.0f-rule from-scratch pass\n",
                   R.Grammar.c_str(), R.Nodes, R.RulesPerEdit, WinFactor,
                   R.FullRules);
      Ok = false;
    }
  }
  std::printf("== incremental edit-log replay at scale ==\n%s\n",
              T.str().c_str());

  // Proportional work: within each grammar, median rules/edit must not
  // follow the tree size. From 1k to 100k nodes full passes grow ~100x;
  // the median edit may grow only by the slack (deeper propagation paths).
  for (const SweepRow &R : Rows) {
    const SweepRow *Smallest = nullptr;
    for (const SweepRow &Q : Rows)
      if (Q.Grammar == R.Grammar && (!Smallest || Q.Nodes < Smallest->Nodes))
        Smallest = &Q;
    if (!Smallest || Smallest->Nodes == R.Nodes)
      continue;
    if (R.RulesPerEdit > Smallest->RulesPerEdit * ProportionalitySlack +
                             ProportionalitySlack) {
      std::fprintf(stderr,
                   "FAIL: %s: median rules/edit grew from %.0f at %u nodes "
                   "to %.0f at %u nodes — work is tracking tree size, not "
                   "the affected region\n",
                   R.Grammar.c_str(), Smallest->RulesPerEdit, Smallest->Nodes,
                   R.RulesPerEdit, R.Nodes);
      Ok = false;
    }
  }

  std::ofstream Out("incremental_scaling.json");
  Out << "{\n  \"entries\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const SweepRow &R = Rows[I];
    Out << "    {\"grammar\": \"" << R.Grammar << "\", \"nodes\": " << R.Nodes
        << ", \"edits\": " << R.Edits << ", \"ms_per_edit\": " << R.MsPerEdit
        << ", \"rules_per_edit\": " << R.RulesPerEdit
        << ", \"full_ms\": " << R.FullMs << ", \"full_rules\": " << R.FullRules
        << "}" << (I + 1 == Rows.size() ? "\n" : ",\n");
  }
  Out << "  ]\n}\n";
  std::printf("wrote incremental_scaling.json\n");

  return Ok ? 0 : 1;
}
