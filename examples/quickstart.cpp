//===- examples/quickstart.cpp - fnc2cpp in five minutes ------------------===//
//
// Builds Knuth's binary-numbers attribute grammar (the example from the
// paper that started the field [34]) through the public API, runs the full
// FNC-2 generator cascade on it, prints the resulting visit sequences, and
// evaluates a tree — including the fractional part whose scale depends on
// its own length, which forces two visits per list node.
//
// Run:  ./quickstart
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluator.h"
#include "fnc2/Generator.h"
#include "workloads/ClassicGrammars.h"

#include <cstdio>

using namespace fnc2;

int main() {
  // 1. Build (or load) an attribute grammar. Workloads ship a few classics;
  //    see workloads/ClassicGrammars.cpp for how to define your own with
  //    GrammarBuilder, or feed molga text through olga::compileMolga.
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.dump().c_str());
    return 1;
  }
  std::printf("grammar:\n%s\n", AG.dump().c_str());

  // 2. Run the evaluator generator: SNC -> DNC -> OAG tests, then visit
  //    sequences and the space optimization.
  DiagnosticEngine GenDiags;
  GeneratedEvaluator GE = generateEvaluator(AG, GenDiags);
  if (!GE.Success) {
    std::fprintf(stderr, "%s", GenDiags.dump().c_str());
    return 1;
  }
  std::printf("class: %s\n", GE.Classes.className().c_str());
  std::printf("visit sequences:\n%s\n", GE.Plan.dump().c_str());

  // 3. Build a tree — here 110.101 in binary — and evaluate it.
  DiagnosticEngine TreeDiags;
  Tree T = readTerm(AG,
                    "Fraction(Pair(Pair(Single(One),One),Zero),"
                    "Pair(Pair(Single(One),Zero),One))",
                    TreeDiags);
  if (TreeDiags.hasErrors()) {
    std::fprintf(stderr, "%s", TreeDiags.dump().c_str());
    return 1;
  }

  Evaluator E(GE.Compiled->CP);
  DiagnosticEngine EvalDiags;
  if (!E.evaluate(T, EvalDiags)) {
    std::fprintf(stderr, "%s", EvalDiags.dump().c_str());
    return 1;
  }

  // 4. Read the result: values are fixed-point in 1/1024 units.
  PhylumId Num = AG.findPhylum("Num");
  AttrId Val = AG.findAttr(Num, "val");
  int64_t Raw = T.root()->attrVal(AG.attr(Val).IndexInOwner).asInt();
  std::printf("110.101b = %ld/1024 = %.4f (expected 6.625)\n", (long)Raw,
              double(Raw) / 1024.0);
  std::printf("%llu rules evaluated in %llu visits\n",
              (unsigned long long)E.stats().RulesEvaluated,
              (unsigned long long)E.stats().VisitsPerformed);
  return 0;
}
