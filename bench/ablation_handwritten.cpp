//===- bench/ablation_handwritten.cpp - generated vs hand-written ---------===//
//
// Section 4.2: "comparison between the hand-written version of the system
// and the bootstrapped version shows that the latter is only between two
// and four times slower on average", and the slowdown is attributed to the
// execution of semantic rules, not the evaluator itself. We compile
// identical mini-Pascal trees with the AG-generated evaluator and with a
// hand-written recursive compiler producing the same P-code, and report the
// ratio across program sizes.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "eval/Evaluator.h"
#include "workloads/MiniPascal.h"

#include <benchmark/benchmark.h>

using namespace fnc2;
using namespace fnc2::bench;

int main(int argc, char **argv) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::miniPascal(Diags);
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  if (!GE.Success) {
    std::fprintf(stderr, "%s\n", GD.dump().c_str());
    return 1;
  }

  TablePrinter T({"statements", "nodes", "hand (native) ms",
                  "hand (same data) ms", "generated AG ms",
                  "AG / same-data", "AG / native", "identical output"});
  for (unsigned Stmts : {50u, 200u, 800u, 3200u}) {
    std::string Src = workloads::generateMiniPascalSource(Stmts, Stmts);
    DiagnosticEngine D;
    Tree Tr = workloads::parseMiniPascal(AG, Src, D);
    if (D.hasErrors() || !Tr.root()) {
      std::fprintf(stderr, "parse failed: %s\n", D.dump().c_str());
      continue;
    }

    // Hand-written baselines: native data structures, and the semantic
    // rules' own persistent values (the paper's comparison basis); best of
    // three runs each.
    workloads::PCodeResult Hand, HandSame;
    double HandMs = 1e99, HandSameMs = 1e99;
    for (int Rep = 0; Rep != 3; ++Rep) {
      Timer TH;
      Hand = workloads::compileMiniPascalByHand(AG, Tr.root());
      HandMs = std::min(HandMs, TH.milliseconds());
      Timer TS;
      HandSame = workloads::compileMiniPascalByHandSameData(AG, Tr.root());
      HandSameMs = std::min(HandSameMs, TS.milliseconds());
    }

    // Generated evaluator: best of three runs.
    Evaluator E(GE.Compiled->CP);
    double AgMs = 1e99;
    workloads::PCodeResult ByAg;
    for (int Rep = 0; Rep != 3; ++Rep) {
      Timer TA;
      if (!E.evaluate(Tr, D)) {
        std::fprintf(stderr, "%s\n", D.dump().c_str());
        return 1;
      }
      AgMs = std::min(AgMs, TA.milliseconds());
    }
    ByAg = workloads::pcodeFromTree(AG, Tr);

    bool Same = ByAg.Code == Hand.Code && ByAg.Errors == Hand.Errors &&
                ByAg.Code == HandSame.Code && ByAg.Errors == HandSame.Errors;
    T.addRow({std::to_string(Stmts), std::to_string(Tr.size()),
              TablePrinter::num(HandMs, 3), TablePrinter::num(HandSameMs, 3),
              TablePrinter::num(AgMs, 3),
              TablePrinter::num(AgMs / (HandSameMs > 0 ? HandSameMs : 1e-9),
                                2) +
                  "x",
              TablePrinter::num(AgMs / (HandMs > 0 ? HandMs : 1e-9), 2) +
                  "x",
              Same ? "yes" : "NO"});
  }
  std::printf("== ablation: AG-generated evaluator vs hand-written compilers "
              "(paper: 2-4x against the same basic data structures) ==\n%s\n",
              T.str().c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
