//===- examples/olga_compiler.cpp - the fnc2 driver -----------------------===//
//
// The FNC-2 system as a command-line tool (figure 2, generation-time half):
// reads a molga compilation unit (file argument, or a built-in demo), runs
// the front-end (input + typing), the companion mkfnc2 dependency check,
// the evaluator generator per grammar, and the translator to C. Prints the
// Table 1-style statistics row for each grammar and writes the C output
// next to the input (or to stdout with -c). --emit-native and --native
// drive the native code-generation backend instead of the C translator.
//
// Run:  ./olga_compiler [spec.olga] [-c] [--emit-native] [--native]
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "codegen/CppEmitter.h"
#include "codegen/NativeEvaluator.h"
#include "eval/Evaluator.h"
#include "fnc2/Generator.h"
#include "olga/Driver.h"
#include "olga/Parser.h"
#include "tools/Companion.h"
#include "tree/TreeGen.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace fnc2;

static const char *Demo = R"molga(
module StringUtil
  fun repeat(s: string, n: int): string =
    if n <= 0 then "" else s ^ repeat(s, n - 1)
end

grammar Pretty
  import StringUtil
  phylum Doc root
  phylum Item
  attr Doc syn text : string
  attr Item inh depth : int
  attr Item syn text : string

  operator Render(i: Item) -> Doc
  operator Section(title: Item, body: Item) -> Item
  operator Para() -> Item lexeme string

  rules for Render
    i.depth := 0
    Doc.text := i.text
  end
  rules for Section
    title.depth := Item.depth
    body.depth := Item.depth + 1
    Item.text := title.text ^ "\n" ^ body.text
  end
  rules for Para
    Item.text := repeat("  ", Item.depth) ^ lexeme
  end
end
)molga";

static void printHelp(const char *Prog) {
  std::printf(
      "usage: %s [spec.olga] [options]\n"
      "\n"
      "Compiles a molga specification (a built-in demo when no file is\n"
      "given): front-end, dependency check, evaluator generation, and a\n"
      "backend per grammar.\n"
      "\n"
      "options:\n"
      "  -c                 print the translated C to stdout instead of\n"
      "                     writing <input>.generated.c\n"
      "  --cache-dir <dir>  persist generator artifacts (and native\n"
      "                     objects with --native) under <dir>\n"
      "  --emit-native      write the native backend's specialized C++\n"
      "                     (branch-free visit bodies over the compiled\n"
      "                     plan) to <input>.<grammar>.native.cpp\n"
      "  --native           compile the specialized C++ with the host\n"
      "                     toolchain, dlopen it, and evaluate a sample\n"
      "                     tree through the native engine, reporting the\n"
      "                     speedup over the interpreted compiled plan\n"
      "  --help             this text\n",
      Prog);
}

/// Rounds a sample-tree evaluation and returns ms/round (for the quick
/// --native comparison; bench/native_speedup is the rigorous version).
template <typename EvalT>
static double msPerRound(EvalT &E, Tree &T, DiagnosticEngine &D) {
  constexpr unsigned Rounds = 20;
  E.evaluate(T, D); // warm-up
  auto Start = std::chrono::steady_clock::now();
  for (unsigned R = 0; R != Rounds; ++R)
    if (!E.evaluate(T, D))
      return -1;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
             .count() /
         Rounds;
}

int main(int argc, char **argv) {
  std::string Source = Demo;
  std::string Path;
  std::string CacheDir;
  bool CToStdout = false;
  bool EmitNative = false;
  bool RunNative = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "-c") == 0) {
      CToStdout = true;
      continue;
    }
    if (std::strcmp(argv[I], "--help") == 0 ||
        std::strcmp(argv[I], "-h") == 0) {
      printHelp(argv[0]);
      return 0;
    }
    if (std::strcmp(argv[I], "--emit-native") == 0) {
      EmitNative = true;
      continue;
    }
    if (std::strcmp(argv[I], "--native") == 0) {
      RunNative = true;
      continue;
    }
    if (std::strcmp(argv[I], "--cache-dir") == 0) {
      if (I + 1 == argc) {
        std::fprintf(stderr, "--cache-dir requires a directory argument\n");
        return 1;
      }
      CacheDir = argv[++I];
      continue;
    }
    if (argv[I][0] == '-') {
      std::fprintf(stderr, "unknown option %s (try --help)\n", argv[I]);
      return 1;
    }
    Path = argv[I];
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", Path.c_str());
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  }

  // mkfnc2: module dependency graph and build order.
  DiagnosticEngine DepDiags;
  olga::CompilationUnit Unit = olga::parseUnit(Source, DepDiags);
  ModuleDepGraph Deps = buildModuleDepGraph(Unit, DepDiags);
  if (DepDiags.hasErrors()) {
    std::fprintf(stderr, "%s", DepDiags.dump().c_str());
    return 1;
  }
  std::printf("build order:");
  for (const std::string &U : Deps.BuildOrder)
    std::printf(" %s", U.c_str());
  std::printf("\n");

  // Front-end: input + typing.
  DiagnosticEngine Diags;
  olga::CompileResult R = olga::compileMolga(Source, Diags);
  if (!R.Success) {
    std::fprintf(stderr, "%s", Diags.dump().c_str());
    return 1;
  }
  std::printf("front-end: %u lines, input %.1f ms, typing %.1f ms, "
              "%u constant(s) folded, %u tail-recursive function(s)\n",
              R.Lines, R.Phases.InputSec * 1e3, R.Phases.TypingSec * 1e3,
              R.Optimizer.ConstantsFolded, R.Optimizer.TailRecursiveFuns);

  // Generator + translator per grammar.
  for (const olga::LoweredGrammar &LG : R.Grammars) {
    DiagnosticEngine GD;
    GeneratorOptions GOpts;
    GOpts.CacheDir = CacheDir;
    GeneratedEvaluator GE = generateEvaluator(LG.AG, GD, GOpts);
    if (!GE.Success) {
      std::fprintf(stderr, "%s", GD.dump().c_str());
      if (!GE.Trace.empty())
        std::fprintf(stderr, "%s", GE.Trace.c_str());
      return 1;
    }
    Table1Row Row = GE.statsRow(LG.AG);
    std::printf("grammar %s: %u phyla, %u operators, %u rules, class %s, "
                "%u sequences, %.1f%% vars / %.1f%% stacks / %.1f%% tree, "
                "generated in %.1f ms\n",
                LG.AG.Name.c_str(), Row.Phyla, Row.Operators, Row.SemRules,
                Row.ClassName.c_str(), GE.Plan.numSequences(), Row.PctVars,
                Row.PctStacks, Row.PctNonTemp, Row.TimeSec * 1e3);
    if (GE.FromCache)
      std::printf("  (loaded from artifact cache)\n");

    CEmitStats CS;
    DiagnosticEngine ED;
    std::string C = emitC(LG, GE, CS, ED);
    if (CToStdout) {
      std::printf("%s", C.c_str());
    } else {
      std::string OutPath =
          (Path.empty() ? LG.AG.Name : Path) + ".generated.c";
      std::ofstream(OutPath) << C;
      std::printf("  translator: %u lines of C -> %s\n", CS.Lines,
                  OutPath.c_str());
    }

    if (EmitNative || RunNative) {
      const CompiledPlan &CP = GE.Compiled->CP;
      if (EmitNative) {
        PlanWalker Walker(CP);
        CppEmitResult Emitted = emitNativeCpp(LG.AG, Walker);
        std::string OutPath = (Path.empty() ? std::string() : Path + ".") +
                              LG.AG.Name + ".native.cpp";
        std::ofstream(OutPath) << Emitted.Source;
        std::printf("  native emitter: %u bodies, %u dispatch tables, "
                    "%u inlined / %u copy / %u const / %u call rules -> %s\n",
                    Emitted.Bodies, Emitted.DispatchTables,
                    Emitted.InlinedRules, Emitted.CopyRules,
                    Emitted.ConstRules, Emitted.CallRules, OutPath.c_str());
      }
      if (RunNative) {
        NativeBackend Backend({CacheDir, /*UseMemo=*/true});
        NativeBuildResult B = Backend.build(LG.AG, CP);
        if (B.Unavailable) {
          std::printf("  native engine: unavailable (%s)\n",
                      B.Reason.c_str());
        } else if (!B.Module) {
          std::fprintf(stderr, "  native engine: build failed: %s\n",
                       B.Reason.c_str());
          return 1;
        } else {
          TreeGenerator Gen(LG.AG, 13);
          Tree T = Gen.generate(300);
          DiagnosticEngine RD;
          Evaluator Interp(GE.Compiled->CP);
          NativeEvaluator NE(CP, B.Module);
          for (AttrId A : LG.AG.phylum(LG.AG.Start).Attrs)
            if (LG.AG.attr(A).isInherited()) {
              Interp.setRootInherited(A, Value::ofInt(0));
              NE.setRootInherited(A, Value::ofInt(0));
            }
          const double InterpMs = msPerRound(Interp, T, RD);
          const double NativeMs = msPerRound(NE, T, RD);
          if (InterpMs < 0 || NativeMs < 0) {
            std::fprintf(stderr, "  native engine: evaluation failed: %s\n",
                         RD.dump().c_str());
            return 1;
          }
          std::printf("  native engine: %s, %.4f ms/round vs %.4f "
                      "interpreted (%.2fx) over a %u-node sample tree\n",
                      B.FromCache ? "bound from cache" : "compiled",
                      NativeMs, InterpMs,
                      NativeMs > 0 ? InterpMs / NativeMs : 0.0, T.size());
        }
      }
    }
  }
  return 0;
}
