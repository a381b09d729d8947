//===- bench/ablation_dynamic.cpp - static vs dynamic scheduling ----------===//
//
// The design choice of section 2.1.1: FNC-2 ruled out dynamic scheduling —
// "as much information as possible about the evaluation order should be
// embodied in the code of the evaluator itself and not computed at
// run-time". We compare the visit-sequence interpreter (static schedule)
// against the demand-driven evaluator (dynamic schedule with memoization
// and cycle detection) on identical trees.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "eval/DemandEvaluator.h"
#include "eval/Evaluator.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/MiniPascal.h"

#include <benchmark/benchmark.h>

using namespace fnc2;
using namespace fnc2::bench;

namespace {

struct Workload {
  AttributeGrammar AG;
  EvaluationPlan Plan;
};

Workload makeWorkload(int Which) {
  DiagnosticEngine Diags;
  Workload W;
  W.AG = Which == 0 ? workloads::deskCalculator(Diags)
                    : Which == 1 ? workloads::binaryNumbers(Diags)
                                 : workloads::miniPascal(Diags);
  DiagnosticEngine D;
  GeneratedEvaluator GE = generateEvaluator(W.AG, D);
  W.Plan = std::move(GE.Plan);
  W.Plan.AG = &W.AG;
  return W;
}

} // namespace

static void BM_StaticVisitSequences(benchmark::State &State) {
  static Workload W = makeWorkload(static_cast<int>(0));
  TreeGenerator Gen(W.AG, 11);
  Tree Tr = Gen.generate(static_cast<unsigned>(State.range(0)));
  CompiledPlan CP(W.Plan);
  Evaluator E(CP);
  for (auto _ : State) {
    DiagnosticEngine D;
    bool Ok = E.evaluate(Tr, D);
    benchmark::DoNotOptimize(Ok);
  }
  State.counters["rules/s"] = benchmark::Counter(
      double(E.stats().RulesEvaluated), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StaticVisitSequences)->Arg(1000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

static void BM_DynamicDemandDriven(benchmark::State &State) {
  static Workload W = makeWorkload(static_cast<int>(0));
  TreeGenerator Gen(W.AG, 11);
  Tree Tr = Gen.generate(static_cast<unsigned>(State.range(0)));
  DemandEvaluator E(W.AG);
  for (auto _ : State) {
    DiagnosticEngine D;
    bool Ok = E.evaluateAll(Tr, D);
    benchmark::DoNotOptimize(Ok);
  }
  State.counters["rules/s"] = benchmark::Counter(
      double(E.stats().RulesEvaluated), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DynamicDemandDriven)->Arg(1000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  // Narrative table with one-shot timings across grammars.
  TablePrinter T({"grammar", "nodes", "static (ms)", "dynamic (ms)",
                  "dynamic/static", "static dispatches",
                  "dynamic dispatches"});
  for (int Which = 0; Which != 3; ++Which) {
    Workload W = makeWorkload(Which);
    TreeGenerator Gen(W.AG, 23);
    Tree Tr = Gen.generate(8000);
    CompiledPlan CP(W.Plan);
    Evaluator SE(CP);
    DemandEvaluator DE(W.AG);
    DiagnosticEngine D;
    Timer TS;
    if (!SE.evaluate(Tr, D))
      continue;
    double StaticMs = TS.milliseconds();
    Timer TD;
    if (!DE.evaluateAll(Tr, D))
      continue;
    double DynamicMs = TD.milliseconds();
    T.addRow({W.AG.Name, std::to_string(Tr.size()),
              TablePrinter::num(StaticMs, 2), TablePrinter::num(DynamicMs, 2),
              TablePrinter::num(DynamicMs / StaticMs, 2) + "x",
              std::to_string(SE.stats().InstructionsExecuted),
              std::to_string(DE.stats().InstructionsExecuted)});
  }
  std::printf("== ablation: static visit sequences vs dynamic scheduling ==\n"
              "%s\n",
              T.str().c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
