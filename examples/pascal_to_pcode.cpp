//===- examples/pascal_to_pcode.cpp - the Pascal-to-P-code compiler -------===//
//
// The paper's flagship external application: a compiler from a Pascal-like
// language to P-code, specified as an attribute grammar. Parses a source
// program (the file named on the command line, or a built-in demo),
// evaluates the AG, and prints the P-code and static-error count. Also
// demonstrates the space-optimized evaluator: the same run under the
// memory map, with the peak-cell statistics.
//
// Run:  ./pascal_to_pcode [program.pas]
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluator.h"
#include "fnc2/Generator.h"
#include "storage/StorageEvaluator.h"
#include "workloads/MiniPascal.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace fnc2;

static const char *Demo = R"pas(
var n: int;
var sum: int;
var big: bool;
begin
  n := 10;
  sum := 0;
  while 0 < n do begin
    sum := sum + n * n;
    n := n - 1;
  end;
  big := 100 < sum;
  if big then begin
    write sum;
  end else begin
    write 0;
  end;
end
)pas";

int main(int argc, char **argv) {
  std::string Source = Demo;
  if (argc > 1) {
    std::ifstream In(argv[1]);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  }

  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::miniPascal(Diags);
  DiagnosticEngine GenDiags;
  GeneratedEvaluator GE = generateEvaluator(AG, GenDiags);
  if (!GE.Success) {
    std::fprintf(stderr, "%s", GenDiags.dump().c_str());
    return 1;
  }
  std::printf("mini-pascal AG: class %s, %u visit sequences, storage "
              "%u vars / %u stacks\n\n",
              GE.Classes.className().c_str(), GE.Plan.numSequences(),
              GE.Storage.NumVarGroups, GE.Storage.NumStackGroups);

  DiagnosticEngine ParseDiags;
  Tree T = workloads::parseMiniPascal(AG, Source, ParseDiags);
  if (ParseDiags.hasErrors() || !T.root()) {
    std::fprintf(stderr, "%s", ParseDiags.dump().c_str());
    return 1;
  }

  Evaluator E(GE.Compiled->CP);
  DiagnosticEngine EvalDiags;
  if (!E.evaluate(T, EvalDiags)) {
    std::fprintf(stderr, "%s", EvalDiags.dump().c_str());
    return 1;
  }
  workloads::PCodeResult R = workloads::pcodeFromTree(AG, T);
  std::printf("; %ld static error(s)\n", (long)R.Errors);
  for (const std::string &I : R.Code)
    std::printf("  %s\n", I.c_str());

  // The same program under the space-optimized evaluator.
  StorageEvaluator SE(GE.Compiled->CP, GE.Compiled->CS);
  DiagnosticEngine SD;
  if (SE.evaluate(T, SD)) {
    const StorageStats &S = SE.stats();
    std::printf("\nstorage-optimized run: %llu peak cells vs %llu "
                "tree-resident cells (%.1fx reduction), %llu copies "
                "eliminated\n",
                (unsigned long long)S.PeakLiveCells,
                (unsigned long long)S.TreeBaselineCells, S.reductionFactor(),
                (unsigned long long)S.CopiesSkipped);
  }
  return R.Errors == 0 ? 0 : 2;
}
