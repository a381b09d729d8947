//===- bench/fig2_system_pipeline.cpp - Paper Figure 2 --------------------===//
//
// Exercises the system structure of Figure 2: the generation-time half
// (OLGA front-end -> evaluator generator -> translators) and the
// execution-time half (constructed tree -> generated evaluator -> decorated
// tree), reporting per-component times so the division of labour is
// visible. The paper's comparison point: the bootstrapped system is 2-4x
// slower than the hand-written original, and five times slower than Sun's
// one-pass C compiler (an unfair baseline, as discussed in section 4.2).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "codegen/CEmitter.h"
#include "eval/Evaluator.h"
#include "tree/TreeGen.h"

#include <benchmark/benchmark.h>

using namespace fnc2;
using namespace fnc2::bench;

int main(int argc, char **argv) {
  TablePrinter T({"spec", "lines", "front-end (s)", "generator (s)",
                  "translator (s)", "tree nodes", "evaluation (s)",
                  "rules evaluated"});
  for (unsigned Phyla : {8u, 24u, 64u}) {
    workloads::SpecGenOptions Opts;
    Opts.Name = "F2";
    Opts.Phyla = Phyla;
    Opts.AttrPairs = 2;
    Opts.Funs = 8;
    Opts.Seed = 2000 + Phyla;
    std::string Src = workloads::generateMolgaSpec(Opts);

    DiagnosticEngine Diags;
    Timer FE;
    olga::CompileResult C = olga::compileMolga(Src, Diags);
    double FrontEndSec = FE.seconds();
    if (!C.Success) {
      std::fprintf(stderr, "spec failed: %s\n", Diags.dump().c_str());
      continue;
    }

    DiagnosticEngine GD;
    Timer Gen;
    GeneratedEvaluator GE = generateEvaluator(C.Grammars[0].AG, GD);
    double GeneratorSec = Gen.seconds();

    Timer Tr;
    CEmitStats CS;
    DiagnosticEngine ED;
    std::string CCode = emitC(C.Grammars[0], GE, CS, ED);
    double TranslatorSec = Tr.seconds();
    benchmark::DoNotOptimize(CCode.size());

    // Execution time: evaluate a generated tree.
    TreeGenerator TG(C.Grammars[0].AG, 99);
    Tree Tree = TG.generate(5000);
    Evaluator E(GE.Compiled->CP);
    DiagnosticEngine TD;
    Timer Ev;
    bool Ok = E.evaluate(Tree, TD);
    double EvalSec = Ev.seconds();
    if (!Ok) {
      std::fprintf(stderr, "evaluation failed: %s\n", TD.dump().c_str());
      continue;
    }

    T.addRow({"phyla=" + std::to_string(Phyla), std::to_string(C.Lines),
              TablePrinter::num(FrontEndSec, 4),
              TablePrinter::num(GeneratorSec, 4),
              TablePrinter::num(TranslatorSec, 4),
              std::to_string(Tree.size()), TablePrinter::num(EvalSec, 4),
              std::to_string(E.stats().RulesEvaluated)});
  }
  std::printf("== Figure 2: the FNC-2 system pipeline, generation time vs "
              "execution time ==\n%s\n",
              T.str().c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
