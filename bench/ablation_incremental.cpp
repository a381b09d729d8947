//===- bench/ablation_incremental.cpp - incremental evaluation ------------===//
//
// Section 2.1.2: the incremental evaluator limits reevaluation to affected
// instances via changed/unchanged/unknown statuses and old/new comparison.
// We apply random single-subtree edits to trees of growing size and compare
// (a) incremental update time and reevaluated-rule counts against a full
// reevaluation, and (b) the start-anywhere strategy (licensed by the DNC
// selectors) against root-driven propagation.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "incremental/Incremental.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/MiniPascal.h"

#include <benchmark/benchmark.h>

using namespace fnc2;
using namespace fnc2::bench;

/// Picks a deep node of the same phylum for replacement.
static TreeNode *pickDeepNode(TreeNode *Root) {
  TreeNode *N = Root;
  while (N->arity() != 0)
    N = N->child(N->arity() - 1);
  // Back off one level so the replacement is a real subtree.
  return N->Parent ? N->Parent : N;
}

int main(int argc, char **argv) {
  TablePrinter T({"grammar", "nodes", "full (ms)", "incr (ms)", "speedup",
                  "rules full", "rules incr", "visits skipped"});

  DiagnosticEngine Diags;
  AttributeGrammar Calc = workloads::deskCalculator(Diags);
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(Calc, GD);

  for (unsigned Size : {1000u, 4000u, 16000u}) {
    TreeGenerator Gen(Calc, Size + 3);
    Tree Tr = Gen.generate(Size);
    IncrementalEvaluator IE(GE.Compiled->CP);
    Evaluator Full(GE.Compiled->CP);
    DiagnosticEngine D;
    if (!IE.initial(Tr, D)) {
      std::fprintf(stderr, "%s\n", D.dump().c_str());
      continue;
    }

    // Edit: replace a deep subtree by a fresh random one.
    TreeNode *Target = pickDeepNode(Tr.root());
    PhylumId Phy = Calc.prod(Target->Prod).Lhs;
    TreeGenerator EditGen(Calc, 999);
    auto Fresh = EditGen.generateNode(Tr, Phy, 12);
    IE.replaceSubtree(Tr, Target, std::move(Fresh));
    IE.resetStats();
    Timer TI;
    if (!IE.update(Tr, D, UpdateStrategy::StartAnywhere)) {
      std::fprintf(stderr, "%s\n", D.dump().c_str());
      continue;
    }
    double IncrMs = TI.milliseconds();
    uint64_t IncrRules = IE.stats().RulesReevaluated;
    uint64_t Skipped = IE.stats().VisitsSkipped;

    // Full reevaluation of the same (edited) tree for comparison.
    Tree Copy(Calc);
    Copy.setRoot(Tr.clone(Tr.root()));
    Timer TF;
    if (!Full.evaluate(Copy, D))
      continue;
    double FullMs = TF.milliseconds();

    T.addRow({"desk-calc", std::to_string(Tr.size()),
              TablePrinter::num(FullMs, 3), TablePrinter::num(IncrMs, 3),
              TablePrinter::num(FullMs / (IncrMs > 0 ? IncrMs : 1e-9), 1) +
                  "x",
              std::to_string(Full.stats().RulesEvaluated),
              std::to_string(IncrRules), std::to_string(Skipped)});
  }
  std::printf("== ablation: incremental vs exhaustive reevaluation ==\n%s\n",
              T.str().c_str());

  // Strategy comparison: start-anywhere vs from-root.
  {
    TablePrinter S({"strategy", "rules reevaluated", "visits performed",
                    "visits skipped"});
    for (int Mode = 0; Mode != 2; ++Mode) {
      TreeGenerator Gen(Calc, 77);
      Tree Tr = Gen.generate(8000);
      IncrementalEvaluator IE(GE.Compiled->CP);
      DiagnosticEngine D;
      if (!IE.initial(Tr, D))
        continue;
      TreeNode *Target = pickDeepNode(Tr.root());
      TreeGenerator EditGen(Calc, 3);
      auto Fresh =
          EditGen.generateNode(Tr, Calc.prod(Target->Prod).Lhs, 10);
      IE.replaceSubtree(Tr, Target, std::move(Fresh));
      IE.resetStats();
      IE.update(Tr, D,
                Mode == 0 ? UpdateStrategy::StartAnywhere
                          : UpdateStrategy::FromRoot);
      S.addRow({Mode == 0 ? "start-anywhere (DNC)" : "from-root",
                std::to_string(IE.stats().RulesReevaluated),
                std::to_string(IE.stats().VisitsPerformed),
                std::to_string(IE.stats().VisitsSkipped)});
    }
    std::printf("== start-anywhere vs root-driven propagation ==\n%s\n",
                S.str().c_str());
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
