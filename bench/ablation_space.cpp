//===- bench/ablation_space.cpp - space optimization ablation -------------===//
//
// Section 2.2 / 4.1: the static storage split (variables / stacks / tree
// cells), the grouping of variables and stacks driven by copy-rule counts
// (the paper cuts AG 5's variables 595 -> 106 and stacks 278 -> 49), and
// the dynamic effect: "a decrease of the number of attribute storage cells
// by a factor of 4 to 8 in the execution of AG 5 on various source texts".
// We report peak live cells under the storage-optimized evaluator against
// the tree-resident baseline across tree sizes.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "storage/StorageEvaluator.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/MiniPascal.h"

#include <benchmark/benchmark.h>

using namespace fnc2;
using namespace fnc2::bench;

int main(int argc, char **argv) {
  // Static picture: classification and grouping per grammar.
  {
    TablePrinter T({"grammar", "% vars", "% stacks", "% tree",
                    "vars before", "vars after", "stacks before",
                    "stacks after", "copies elim."});
    auto report = [&](const AttributeGrammar &AG) {
      DiagnosticEngine D;
      GeneratedEvaluator GE = generateEvaluator(AG, D);
      if (!GE.Success)
        return;
      const StorageAssignment &SA = GE.Storage;
      unsigned VarIds = 0, StackIds = 0;
      for (unsigned Id = 0; Id != SA.Ids.numIds(); ++Id) {
        VarIds += SA.ClassOf[Id] == StorageClass::Variable;
        StackIds += SA.ClassOf[Id] == StorageClass::Stack;
      }
      T.addRow({AG.Name, TablePrinter::pct(SA.pctVariables()),
                TablePrinter::pct(SA.pctStacks()),
                TablePrinter::pct(SA.pctTree()), std::to_string(VarIds),
                std::to_string(SA.NumVarGroups), std::to_string(StackIds),
                std::to_string(SA.NumStackGroups),
                std::to_string(SA.EliminatedCopyRules) + "/" +
                    std::to_string(SA.TotalCopyRules)});
    };
    DiagnosticEngine Diags;
    AttributeGrammar G1 = workloads::deskCalculator(Diags);
    AttributeGrammar G2 = workloads::miniPascal(Diags);
    report(G1);
    report(G2);
    for (const workloads::SystemAg &Ag : workloads::systemAgSuite()) {
      DiagnosticEngine D;
      olga::CompileResult R = olga::compileMolga(Ag.Source, D);
      if (!R.Success)
        continue;
      AttributeGrammar AG = std::move(R.Grammars[0].AG);
      AG.Name = Ag.Name + "-analogue";
      report(AG);
    }
    std::printf("== ablation: static storage classes and grouping ==\n%s\n",
                T.str().c_str());
  }

  // Dynamic picture: peak cells vs tree baseline across tree sizes, on the
  // AG5 analogue (the paper's subject) and mini-Pascal.
  {
    TablePrinter T({"grammar", "nodes", "baseline cells", "peak cells",
                    "reduction", "copies skipped"});
    auto sweep = [&](const AttributeGrammar &AG, std::string Name) {
      DiagnosticEngine D;
      GeneratedEvaluator GE = generateEvaluator(AG, D);
      if (!GE.Success)
        return;
      for (unsigned Size : {500u, 2000u, 8000u}) {
        StorageEvaluator SE(GE.Compiled->CP, GE.Compiled->CS);
        TreeGenerator Gen(AG, Size);
        Tree Tr = Gen.generate(Size);
        DiagnosticEngine TD;
        if (!SE.evaluate(Tr, TD)) {
          std::fprintf(stderr, "%s: %s\n", Name.c_str(), TD.dump().c_str());
          return;
        }
        const StorageStats &S = SE.stats();
        T.addRow({Name, std::to_string(Tr.size()),
                  std::to_string(S.TreeBaselineCells),
                  std::to_string(S.PeakLiveCells),
                  TablePrinter::num(S.reductionFactor(), 2) + "x",
                  std::to_string(S.CopiesSkipped)});
      }
    };
    DiagnosticEngine Diags;
    AttributeGrammar Calc = workloads::deskCalculator(Diags);
    sweep(Calc, "desk-calc");
    AttributeGrammar Pascal = workloads::miniPascal(Diags);
    sweep(Pascal, "mini-pascal");
    for (const workloads::SystemAg &Ag : workloads::systemAgSuite()) {
      if (Ag.Name != "AG5")
        continue;
      DiagnosticEngine D;
      olga::CompileResult R = olga::compileMolga(Ag.Source, D);
      if (R.Success)
        sweep(R.Grammars[0].AG, "AG5-analogue");
    }
    std::printf("== ablation: dynamic storage cells, optimized vs "
                "tree-resident (paper: 4-8x) ==\n%s\n",
                T.str().c_str());
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
