//===- bench/fig3_generator_cascade.cpp - Paper Figure 3 ------------------===//
//
// Exercises the generator cascade of Figure 3 (SNC test -> DNC test ->
// OAG test -> transformation -> visit sequences -> space optimization) and
// measures two of the paper's claims:
//
//  * per-phase times on the system suite (the boxes of the figure);
//  * "cascading these phases costs the same as performing the OAG test
//    from scratch, since the first phase of the OAG test is the DNC test,
//    and the first phase of the latter is the SNC test": we compare the
//    full cascade against running the OAG test directly;
//  * the time row of Table 1 is "clearly non-linear but also
//    non-exponential": a size sweep shows the growth curve.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

using namespace fnc2;
using namespace fnc2::bench;

int main(int argc, char **argv) {
  // Per-phase times on the suite.
  {
    TablePrinter T({"AG", "SNC (ms)", "DNC (ms)", "OAG (ms)",
                    "transform (ms)", "visit-seq (ms)", "storage (ms)",
                    "total (ms)"});
    for (const SuiteEntry &E : buildSystemSuite()) {
      const GeneratorPhaseTimes &P = E.Evaluator.Times;
      T.addRow({E.Ag.Name, TablePrinter::num(P.Snc * 1e3, 2),
                TablePrinter::num(P.Dnc * 1e3, 2),
                TablePrinter::num(P.Oag * 1e3, 2),
                TablePrinter::num(P.Transform * 1e3, 2),
                TablePrinter::num(P.VisitSeq * 1e3, 2),
                TablePrinter::num(P.Storage * 1e3, 2),
                TablePrinter::num(P.total() * 1e3, 2)});
    }
    std::printf("== Figure 3: generator cascade, per-phase times ==\n%s\n",
                T.str().c_str());
  }

  // Cascade vs direct OAG.
  {
    TablePrinter T({"AG", "cascade SNC+DNC+OAG (ms)", "direct OAG (ms)"});
    for (const SuiteEntry &E : buildSystemSuite()) {
      const AttributeGrammar &AG = E.Compile.Grammars[0].AG;
      Timer C;
      ClassifyResult CR = classifyGrammar(AG, E.Ag.OagK);
      double CascadeMs = C.milliseconds();
      benchmark::DoNotOptimize(CR.Class);
      Timer D;
      OagResult OR = runOagTest(AG, E.Ag.OagK);
      double DirectMs = D.milliseconds();
      benchmark::DoNotOptimize(OR.IsOAG);
      T.addRow({E.Ag.Name, TablePrinter::num(CascadeMs, 2),
                TablePrinter::num(DirectMs, 2)});
    }
    std::printf("== cascade vs direct OAG test (same order of magnitude) =="
                "\n%s\n",
                T.str().c_str());
  }

  // Size sweep: the growth curve the paper calls non-linear but
  // non-exponential.
  {
    TablePrinter T({"phyla", "occ. attr.", "generator (ms)",
                    "ms per occ. attr."});
    for (unsigned Phyla : {8u, 16u, 32u, 64u, 128u}) {
      workloads::SpecGenOptions Opts;
      Opts.Name = "F3";
      Opts.Phyla = Phyla;
      Opts.AttrPairs = 2;
      Opts.Seed = 3000 + Phyla;
      DiagnosticEngine Diags;
      olga::CompileResult C =
          olga::compileMolga(workloads::generateMolgaSpec(Opts), Diags);
      if (!C.Success)
        continue;
      DiagnosticEngine GD;
      Timer G;
      GeneratedEvaluator GE = generateEvaluator(C.Grammars[0].AG, GD);
      double Ms = G.milliseconds();
      benchmark::DoNotOptimize(GE.Success);
      unsigned Occ = C.Grammars[0].AG.numAttrOccurrences();
      T.addRow({std::to_string(Phyla), std::to_string(Occ),
                TablePrinter::num(Ms, 2), TablePrinter::num(Ms / Occ, 4)});
    }
    std::printf("== generator scaling (paper: non-linear, non-exponential) "
                "==\n%s\n",
                T.str().c_str());
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
