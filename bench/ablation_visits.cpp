//===- bench/ablation_visits.cpp - visit-count ablation -------------------===//
//
// Section 2.1.1's trade-off: a replacing partition has at least as many
// sets as the replaced one, so long inclusion can increase the number of
// visits per node — but "on all the practical AGs we have used, this
// increase is less than 2% in average, and since pure tree-walking accounts
// only for a very small fraction of the evaluator running time, the dynamic
// effect is unnoticeable". We evaluate identical trees under plans built
// with the classical (equality) and long-inclusion transformations and
// compare dynamic visit and instruction counts.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "eval/Evaluator.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"

#include <benchmark/benchmark.h>

using namespace fnc2;
using namespace fnc2::bench;

static bool planFromMode(const AttributeGrammar &AG, ReuseMode Mode,
                         EvaluationPlan &Plan) {
  SncResult Snc = runSncTest(AG);
  if (!Snc.IsSNC)
    return false;
  TransformResult TR = sncToLOrdered(AG, Snc, Mode);
  if (!TR.Success)
    return false;
  DiagnosticEngine D;
  return buildVisitSequences(AG, TR, Plan, D);
}

static void reportGrammar(TablePrinter &T, const AttributeGrammar &AG,
                          unsigned TreeSize) {
  EvaluationPlan PlanEq, PlanLong;
  if (!planFromMode(AG, ReuseMode::Equality, PlanEq) ||
      !planFromMode(AG, ReuseMode::LongInclusion, PlanLong))
    return;

  TreeGenerator Gen(AG, 7);
  Tree Tr = Gen.generate(TreeSize);
  CompiledPlan CPEq(PlanEq), CPLong(PlanLong);
  Evaluator EEq(CPEq), ELong(CPLong);
  DiagnosticEngine D;
  if (!EEq.evaluate(Tr, D) || !ELong.evaluate(Tr, D))
    return;
  uint64_t VEq = EEq.stats().VisitsPerformed;
  uint64_t VLong = ELong.stats().VisitsPerformed;
  double Increase = VEq == 0 ? 0.0 : 100.0 * (double(VLong) - VEq) / VEq;
  T.addRow({AG.Name, std::to_string(Tr.size()),
            std::to_string(PlanEq.numSequences()),
            std::to_string(PlanLong.numSequences()), std::to_string(VEq),
            std::to_string(VLong), TablePrinter::pct(Increase)});
}

int main(int argc, char **argv) {
  TablePrinter T({"grammar", "nodes", "eq #seqs", "long #seqs", "eq visits",
                  "long visits", "visit increase"});
  DiagnosticEngine Diags;
  AttributeGrammar G1 = workloads::deskCalculator(Diags);
  AttributeGrammar G2 = workloads::binaryNumbers(Diags);
  AttributeGrammar G3 = workloads::repmin(Diags);
  AttributeGrammar G4 = workloads::twoContextGrammar(Diags);
  reportGrammar(T, G1, 4000);
  reportGrammar(T, G2, 4000);
  reportGrammar(T, G3, 4000);
  reportGrammar(T, G4, 16);

  for (const workloads::SystemAg &Ag : workloads::systemAgSuite()) {
    DiagnosticEngine D;
    olga::CompileResult R = olga::compileMolga(Ag.Source, D);
    if (!R.Success)
      continue;
    AttributeGrammar AG = std::move(R.Grammars[0].AG);
    AG.Name = Ag.Name + "-analogue";
    reportGrammar(T, AG, 2000);
  }
  std::printf("== ablation: visit-count cost of long inclusion (paper: <2%% "
              "average) ==\n%s\n",
              T.str().c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
