//===- tests/OlgaTest.cpp - molga front-end tests -------------------------===//

#include "fnc2/Generator.h"
#include "eval/Evaluator.h"
#include "olga/Driver.h"
#include "olga/ExprEval.h"
#include "olga/Parser.h"
#include "tree/Tree.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

using namespace fnc2;
using namespace fnc2::olga;

namespace {

/// A complete calculator specification used by several tests.
const char *CalcSource = R"molga(
module Lib
  type env = map
  const zero : int = 0
  fun bind(e: env, n: string, v: int): env = insert(e, n, v)
  fun find(e: env, n: string): int = lookup(e, n, zero)
end

grammar Calc
  import Lib
  phylum Prog root
  phylum Exp
  attr Prog syn result : int
  attr Exp inh env : map
  attr Exp syn val : int

  operator Top(e: Exp) -> Prog
  operator Num() -> Exp lexeme int
  operator Var() -> Exp lexeme string
  operator Add(l: Exp, r: Exp) -> Exp
  operator Mul(l: Exp, r: Exp) -> Exp
  operator Let(b: Exp, body: Exp) -> Exp lexeme string

  rules for Top
    e.env := emptymap()
    Prog.result := e.val
  end
  rules for Num
    Exp.val := lexeme
  end
  rules for Var
    Exp.val := find(Exp.env, lexeme)
  end
  rules for Add
    Exp.val := l.val + r.val
  end
  rules for Mul
    Exp.val := l.val * r.val
  end
  rules for Let
    body.env := bind(Exp.env, lexeme, b.val)
    Exp.val := body.val
  end
end
)molga";

/// Sources the parser must reject.
const char *const SyntaxErrorSources[] = {
    "module",                       // missing name
    "grammar G phylum end",         // missing phylum name
    "module M fun f() = 1 end",     // missing return type
    "module M fun f(): int = end",  // missing body
    "grammar G rules for end end",  // missing operator name
};

/// An erroneous source and a fragment its diagnostics must contain.
struct ErrorCase {
  const char *Source;
  const char *Expected;
};

const ErrorCase TypeErrorCases[] = {
    {"module M fun f(): int = true end", "declared to return int"},
    {"module M fun f(): int = 1 + \"a\" end", "integer operands"},
    {"module M fun f(): bool = 1 and true end", "boolean operands"},
    {"module M fun f(): int = g(1) end", "unknown function"},
    {"module M fun f(x: int): int = if x then 1 else 2 end",
     "condition must be boolean"},
    {"module M fun f(): int = if true then 1 else \"a\" end",
     "incompatible types"},
    {"module M fun f(): int = y end", "unknown name"},
    {"module M fun f(): int = min(1) end", "expects 2 arguments"},
    {"module M fun f(): string = lookup(emptymap(), \"k\", 7) end",
     "declared to return string"},
    {"module M import Nowhere end", "unknown module"},
    {"module M fun f(): int = 1 end module M2 fun f(): int = 2 end",
     "duplicate function"},
};

const ErrorCase GrammarErrorCases[] = {
    {"grammar G phylum A root phylum A operator L() -> A end",
     "duplicate phylum"},
    {"grammar G phylum A operator L() -> A end", "exactly one root"},
    {"grammar G phylum A root attr B syn x : int operator L() -> A end",
     "unknown phylum"},
    {"grammar G phylum A root operator L() -> B end",
     "produces unknown phylum"},
    {"grammar G phylum A root attr A syn s : int operator L() -> A "
     "rules for L A.s := lexeme end end",
     "has no lexeme"},
    {"grammar G phylum A root attr A inh h : int operator L() -> A "
     "rules for L A.h := 1 end end",
     "cannot define inherited"},
    {"grammar G phylum A root attr A syn s : int "
     "operator W(c: A) -> A operator L() -> A "
     "rules for W c.s := 1 end rules for L A.s := 1 end end",
     "cannot define synthesized"},
    {"grammar G phylum A root attr A syn s : int operator L() -> A "
     "rules for L A.s := A.nope end end",
     "no attribute 'nope'"},
    {"grammar G phylum A root attr A syn s : bool operator L() -> A "
     "rules for L A.s := 3 end end",
     "with a value of type int"},
    {"grammar G phylum A root attr A syn s : int operator L() -> A "
     "rules for L t := 3 end end",
     "undeclared local"},
};

/// Calls a function of a module the grammar does not import.
const char *HiddenImportSource = R"molga(
module Hidden fun secret(): int = 42 end
grammar G
  phylum A root
  attr A syn s : int
  operator L() -> A
  rules for L A.s := secret() end
end
)molga";

/// Never defines the result of Pair: lowering reports it.
const char *UndefinedOutputSource = R"molga(
grammar G
  phylum A root
  attr A syn s : int
  operator Leaf() -> A lexeme int
  operator Pair(l: A, r: A) -> A
  rules for Leaf
    A.s := lexeme
  end
end
)molga";

TEST(LexerTest, TokenizesBasics) {
  DiagnosticEngine D;
  auto Toks = tokenize("fun f(x: int): int = x + 1 -- comment\n", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  EXPECT_EQ(Toks[0].Kind, TokKind::KwFun);
  EXPECT_EQ(Toks[1].Kind, TokKind::Ident);
  EXPECT_EQ(Toks[1].Text, "f");
  EXPECT_EQ(Toks.back().Kind, TokKind::Eof);
  // The comment disappears entirely.
  for (const Token &T : Toks)
    EXPECT_NE(T.Text, "comment");
}

TEST(LexerTest, MultiCharOperators) {
  DiagnosticEngine D;
  auto Toks = tokenize(":= -> <> <= >= < > =", D);
  ASSERT_FALSE(D.hasErrors());
  EXPECT_EQ(Toks[0].Kind, TokKind::Assign);
  EXPECT_EQ(Toks[1].Kind, TokKind::Arrow);
  EXPECT_EQ(Toks[2].Kind, TokKind::NotEqual);
  EXPECT_EQ(Toks[3].Kind, TokKind::LessEq);
  EXPECT_EQ(Toks[4].Kind, TokKind::GreaterEq);
  EXPECT_EQ(Toks[5].Kind, TokKind::Less);
  EXPECT_EQ(Toks[6].Kind, TokKind::Greater);
  EXPECT_EQ(Toks[7].Kind, TokKind::Equal);
}

TEST(LexerTest, StringEscapesAndErrors) {
  DiagnosticEngine D;
  auto Toks = tokenize("\"a\\nb\"", D);
  ASSERT_FALSE(D.hasErrors());
  EXPECT_EQ(Toks[0].Text, "a\nb");

  DiagnosticEngine D2;
  tokenize("\"unterminated", D2);
  EXPECT_TRUE(D2.hasErrors());

  DiagnosticEngine D3;
  tokenize("@", D3);
  EXPECT_TRUE(D3.hasErrors());
}

TEST(LexerTest, RejectsOutOfRangeIntegers) {
  DiagnosticEngine D;
  auto Toks = tokenize("9223372036854775807", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  EXPECT_EQ(Toks[0].IntValue, std::numeric_limits<int64_t>::max());

  DiagnosticEngine D2;
  Toks = tokenize("x 99999999999999999999 y", D2);
  EXPECT_EQ(D2.dump(), "1:3: error: integer literal out of range\n");
  ASSERT_EQ(Toks.size(), 4u);
  EXPECT_EQ(Toks[1].Kind, TokKind::IntLit);
  EXPECT_EQ(Toks[2].Text, "y");
}

TEST(LexerTest, TracksLocations) {
  DiagnosticEngine D;
  auto Toks = tokenize("a\n  b", D);
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[1].Loc.Column, 3u);
}

TEST(ParserTest, ParsesCalcUnit) {
  DiagnosticEngine D;
  CompilationUnit Unit = parseUnit(CalcSource, D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  ASSERT_EQ(Unit.Modules.size(), 1u);
  ASSERT_EQ(Unit.Grammars.size(), 1u);
  EXPECT_EQ(Unit.Modules[0].Funs.size(), 2u);
  EXPECT_EQ(Unit.Modules[0].Consts.size(), 1u);
  EXPECT_EQ(Unit.Grammars[0].Operators.size(), 6u);
  EXPECT_EQ(Unit.Grammars[0].Rules.size(), 6u);
  EXPECT_TRUE(Unit.Grammars[0].Phyla[0].IsRoot);
}

TEST(ParserTest, ExpressionPrecedence) {
  DiagnosticEngine D;
  CompilationUnit U =
      parseUnit("module M fun f(x: int): int = 1 + x * 2 end", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  const Expr &Body = *U.Modules[0].Funs[0].Body;
  ASSERT_EQ(Body.Kind, ExprKind::Binary);
  EXPECT_EQ(Body.Name, "+");
  EXPECT_EQ(Body.Children[1]->Kind, ExprKind::Binary);
  EXPECT_EQ(Body.Children[1]->Name, "*");
}

TEST(ParserTest, MatchAndLet) {
  DiagnosticEngine D;
  CompilationUnit U = parseUnit(
      "module M fun f(x: int): int = let y = x + 1 in "
      "match y with | 0 -> 10 | 1 -> 11 | n -> n end end", D);
  ASSERT_FALSE(D.hasErrors()) << D.dump();
  const Expr &Body = *U.Modules[0].Funs[0].Body;
  ASSERT_EQ(Body.Kind, ExprKind::Let);
  ASSERT_EQ(Body.Children[1]->Kind, ExprKind::Match);
  EXPECT_EQ(Body.Children[1]->Arms.size(), 3u);
  EXPECT_EQ(Body.Children[1]->Arms[2].Kind, MatchArm::PatKind::Bind);
}

TEST(ParserTest, ReportsSyntaxErrors) {
  for (const char *Src : SyntaxErrorSources) {
    DiagnosticEngine D;
    parseUnit(Src, D);
    EXPECT_TRUE(D.hasErrors()) << Src;
  }
}

TEST(SemaTest, ChecksCalc) {
  DiagnosticEngine D;
  auto Prog = checkUnit(parseUnit(CalcSource, D), D);
  EXPECT_FALSE(D.hasErrors()) << D.dump();
  EXPECT_TRUE(Prog->Funs.count("bind"));
  EXPECT_TRUE(Prog->Consts.count("zero"));
  EXPECT_EQ(Prog->Consts.at("zero").second.asInt(), 0);
  EXPECT_TRUE(Prog->Aliases.count("env"));
}

TEST(SemaTest, TypeErrors) {
  for (const auto &C : TypeErrorCases) {
    DiagnosticEngine D;
    checkUnit(parseUnit(C.Source, D), D);
    EXPECT_TRUE(D.hasErrors()) << C.Source;
    EXPECT_NE(D.dump().find(C.Expected), std::string::npos)
        << C.Source << "\n" << D.dump();
  }
}

TEST(SemaTest, GrammarErrors) {
  for (const auto &C : GrammarErrorCases) {
    DiagnosticEngine D;
    checkUnit(parseUnit(C.Source, D), D);
    EXPECT_TRUE(D.hasErrors()) << C.Source;
    EXPECT_NE(D.dump().find(C.Expected), std::string::npos)
        << C.Source << "\n" << D.dump();
  }
}

TEST(SemaTest, ImportVisibilityEnforced) {
  DiagnosticEngine D;
  checkUnit(parseUnit(HiddenImportSource, D), D);
  EXPECT_TRUE(D.hasErrors());
  EXPECT_NE(D.dump().find("does not import"), std::string::npos) << D.dump();
}

TEST(DriverTest, EndToEndCalcEvaluation) {
  DiagnosticEngine D;
  CompileResult R = compileMolga(CalcSource, D);
  ASSERT_TRUE(R.Success) << D.dump();
  ASSERT_EQ(R.Grammars.size(), 1u);
  const LoweredGrammar &LG = *R.grammar("Calc");

  // The lowered grammar goes through the full generator and evaluates.
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(LG.AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();
  EXPECT_EQ(GE.Classes.className(), "OAG(0)");

  Evaluator E(GE.Compiled->CP);
  DiagnosticEngine TD;
  Tree T = readTerm(
      LG.AG, "Top(Let<\"x\">(Num<6>,Mul(Var<\"x\">,Add(Var<\"x\">,Num<1>))))",
      TD);
  ASSERT_FALSE(TD.hasErrors()) << TD.dump();
  ASSERT_TRUE(E.evaluate(T, TD)) << TD.dump();
  PhylumId Prog = LG.AG.findPhylum("Prog");
  AttrId Result = LG.AG.findAttr(Prog, "result");
  EXPECT_EQ(T.root()->attrVal(LG.AG.attr(Result).IndexInOwner).asInt(),
            6 * (6 + 1));
  EXPECT_FALSE(LG.RuntimeDiags->hasErrors()) << LG.RuntimeDiags->dump();
}

// The runtime log lives as long as the grammar: a rule that fails on
// every call fills it to its bound and no further.
TEST(DriverTest, RuntimeErrorLogIsBounded) {
  DiagnosticEngine D;
  CompileResult R = compileMolga(R"(
grammar Div
  phylum Top root
  attr Top syn v : int
  operator Num() -> Top lexeme int
  rules for Num
    Top.v := 100 / lexeme
  end
end
)",
                                 D);
  ASSERT_TRUE(R.Success) << D.dump();
  const LoweredGrammar &LG = *R.grammar("Div");
  ASSERT_EQ(LG.AG.Rules.size(), 1u);
  const SemanticFn &Fn = LG.AG.Rules[0].Fn;
  const Value Five = Value::ofInt(5), Zero = Value::ofInt(0);
  EXPECT_EQ(Fn(std::span<const Value>(&Five, 1)).asInt(), 20);
  EXPECT_FALSE(LG.RuntimeDiags->hasErrors()) << LG.RuntimeDiags->dump();
  for (unsigned I = 0; I != 100; ++I)
    Fn(std::span<const Value>(&Zero, 1));
  EXPECT_EQ(LG.RuntimeDiags->errorCount(), 64u);
  EXPECT_NE(LG.RuntimeDiags->dump().find("division by zero"),
            std::string::npos);
}

TEST(DriverTest, AutoCopyGeneratesEnvBroadcast) {
  DiagnosticEngine D;
  CompileResult R = compileMolga(CalcSource, D);
  ASSERT_TRUE(R.Success) << D.dump();
  const AttributeGrammar &AG = R.Grammars[0].AG;
  unsigned AutoCopies = 0;
  for (const SemanticRule &Rule : AG.Rules)
    AutoCopies += Rule.IsAutoGenerated;
  // Add/Mul sons and Let's bound son get their env by auto-copy.
  EXPECT_GE(AutoCopies, 5u);
}

TEST(DriverTest, LocalAttributesLowerAndEvaluate) {
  const char *Src = R"molga(
grammar L
  phylum A root
  attr A syn s : int
  operator Leaf() -> A lexeme int
  rules for Leaf
    local twice : int := lexeme + lexeme
    A.s := twice * 3
  end
end
)molga";
  DiagnosticEngine D;
  CompileResult R = compileMolga(Src, D);
  ASSERT_TRUE(R.Success) << D.dump();
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(R.Grammars[0].AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();
  Evaluator E(GE.Compiled->CP);
  DiagnosticEngine TD;
  Tree T = readTerm(R.Grammars[0].AG, "Leaf<7>", TD);
  ASSERT_TRUE(E.evaluate(T, TD)) << TD.dump();
  EXPECT_EQ(T.root()->attrVal(0).asInt(), (7 + 7) * 3);
}

TEST(DriverTest, MatchEvaluates) {
  const char *Src = R"molga(
grammar M
  phylum A root
  attr A syn s : string
  operator Leaf() -> A lexeme int
  rules for Leaf
    A.s := match lexeme with
           | 0 -> "zero"
           | 1 -> "one"
           | 2 -> "two"
           | n -> "many(" ^ tostr(n) ^ ")"
           end
  end
end
)molga";
  DiagnosticEngine D;
  CompileResult R = compileMolga(Src, D);
  ASSERT_TRUE(R.Success) << D.dump();
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(R.Grammars[0].AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();
  Evaluator E(GE.Compiled->CP);

  struct Case {
    int Lex;
    const char *Expected;
  } Cases[] = {{0, "zero"}, {1, "one"}, {2, "two"}, {9, "many(9)"}};
  for (const auto &C : Cases) {
    DiagnosticEngine TD;
    Tree T = readTerm(R.Grammars[0].AG,
                      "Leaf<" + std::to_string(C.Lex) + ">", TD);
    ASSERT_TRUE(E.evaluate(T, TD)) << TD.dump();
    EXPECT_EQ(T.root()->attrVal(0).asString(), C.Expected);
  }
}

TEST(OptimizerTest, FoldsConstants) {
  DiagnosticEngine D;
  CompileResult R = compileMolga(
      "module M fun f(): int = 2 * 3 + 4 fun g(): bool = not true end", D);
  ASSERT_TRUE(R.Success) << D.dump();
  EXPECT_GE(R.Optimizer.ConstantsFolded, 2u);
  // f's body is now a literal 10.
  const Expr &Body = *R.Prog->Unit.Modules[0].Funs[0].Body;
  EXPECT_EQ(Body.Kind, ExprKind::IntLit);
  EXPECT_EQ(Body.IntValue, 10);
}

TEST(OptimizerTest, FoldsIfWithConstantCondition) {
  DiagnosticEngine D;
  CompileResult R = compileMolga(
      "module M fun f(x: int): int = if 1 < 2 then x else x * 100 end", D);
  ASSERT_TRUE(R.Success) << D.dump();
  const Expr &Body = *R.Prog->Unit.Modules[0].Funs[0].Body;
  EXPECT_EQ(Body.Kind, ExprKind::Name) << "if-folding selected the branch";
}

TEST(OptimizerTest, DetectsTailRecursion) {
  const char *Src = R"molga(
module M
  fun countdown(n: int, acc: int): int =
    if n <= 0 then acc else countdown(n - 1, acc + n)
  fun slowsum(n: int): int =
    if n <= 0 then 0 else n + slowsum(n - 1)
  fun plain(x: int): int = x + 1
end
)molga";
  DiagnosticEngine D;
  CompileResult R = compileMolga(Src, D);
  ASSERT_TRUE(R.Success) << D.dump();
  EXPECT_EQ(R.Optimizer.FunsAnalyzed, 3u);
  EXPECT_EQ(R.Optimizer.TailRecursiveFuns, 1u);
  EXPECT_TRUE(R.Prog->Unit.Modules[0].Funs[0].TailRecursive);
  EXPECT_FALSE(R.Prog->Unit.Modules[0].Funs[1].TailRecursive);
  EXPECT_FALSE(R.Prog->Unit.Modules[0].Funs[2].TailRecursive);
}

TEST(OptimizerTest, CompilesLiteralMatches) {
  DiagnosticEngine D;
  CompileResult R = compileMolga(
      "module M fun f(x: int): int = match x with | 5 -> 50 | 1 -> 10 "
      "| 3 -> 30 | _ -> 0 end end", D);
  ASSERT_TRUE(R.Success) << D.dump();
  EXPECT_EQ(R.Optimizer.MatchesCompiled, 1u);
  // Arms got sorted for binary-search dispatch.
  const Expr &Body = *R.Prog->Unit.Modules[0].Funs[0].Body;
  ASSERT_EQ(Body.Kind, ExprKind::Match);
  EXPECT_EQ(Body.Arms[0].IntValue, 1);
  EXPECT_EQ(Body.Arms[1].IntValue, 3);
  EXPECT_EQ(Body.Arms[2].IntValue, 5);
  EXPECT_EQ(Body.Arms[3].Kind, MatchArm::PatKind::Wild);
}

TEST(ExprEvalTest, RecursiveFunctions) {
  DiagnosticEngine D;
  CompileResult R = compileMolga(
      "module M fun fib(n: int): int = "
      "if n < 2 then n else fib(n - 1) + fib(n - 2) end", D);
  ASSERT_TRUE(R.Success) << D.dump();
  EvalContext Ctx;
  Ctx.Prog = R.Prog.get();
  Expr Call;
  Call.Kind = ExprKind::Call;
  Call.Name = "fib";
  auto Arg = std::make_unique<Expr>();
  Arg->Kind = ExprKind::IntLit;
  Arg->IntValue = 12;
  Call.Children.push_back(std::move(Arg));
  DiagnosticEngine ED;
  Value V = evalExpr(Call, Ctx, ED);
  ASSERT_FALSE(ED.hasErrors()) << ED.dump();
  EXPECT_EQ(V.asInt(), 144);
}

TEST(ExprEvalTest, FuelStopsRunawayRecursion) {
  DiagnosticEngine D;
  CompileResult R = compileMolga(
      "module M fun loop(n: int): int = loop(n + 1) end", D);
  ASSERT_TRUE(R.Success) << D.dump();
  EvalContext Ctx;
  Ctx.Prog = R.Prog.get();
  Ctx.Fuel = 10000;
  Expr Call;
  Call.Kind = ExprKind::Call;
  Call.Name = "loop";
  auto Arg = std::make_unique<Expr>();
  Arg->Kind = ExprKind::IntLit;
  Call.Children.push_back(std::move(Arg));
  DiagnosticEngine ED;
  evalExpr(Call, Ctx, ED);
  EXPECT_TRUE(ED.hasErrors());
  EXPECT_NE(ED.dump().find("fuel"), std::string::npos);
}

// With the default fuel a runaway recursion would nest about 260k frames
// deep and overflow the stack; the depth bound stops it first, with one
// error however many calls are pending.
TEST(ExprEvalTest, DepthBoundStopsRecursionAtDefaultFuel) {
  DiagnosticEngine D;
  CompileResult R = compileMolga(
      "module M fun loop(n: int): int = loop(n + 1) "
      "fun down(n: int): int = if n <= 0 then 0 else 1 + down(n - 1) end",
      D);
  ASSERT_TRUE(R.Success) << D.dump();
  auto CallWith = [](const char *Fn, int64_t N) {
    Expr Call;
    Call.Kind = ExprKind::Call;
    Call.Name = Fn;
    auto Arg = std::make_unique<Expr>();
    Arg->Kind = ExprKind::IntLit;
    Arg->IntValue = N;
    Call.Children.push_back(std::move(Arg));
    return Call;
  };
  for (const char *Fn : {"loop", "down"}) {
    EvalContext Ctx;
    Ctx.Prog = R.Prog.get();
    DiagnosticEngine ED;
    Value V = evalExpr(CallWith(Fn, 1000000), Ctx, ED);
    EXPECT_TRUE(V.isUnit()) << Fn;
    ASSERT_EQ(ED.diagnostics().size(), 1u) << Fn << ": " << ED.dump();
    EXPECT_NE(ED.diagnostics().front().Message.find(
                  "nested deeper than 8192 levels"),
              std::string::npos)
        << Fn << ": " << ED.dump();
  }
  // A non-tail recursion takes three frames per call here, so the bound
  // admits one about 2700 calls deep.
  for (int64_t N : {400, 2000}) {
    EvalContext Ctx;
    Ctx.Prog = R.Prog.get();
    DiagnosticEngine ED;
    Value V = evalExpr(CallWith("down", N), Ctx, ED);
    EXPECT_FALSE(ED.hasErrors()) << N << ": " << ED.dump();
    EXPECT_EQ(V.asInt(), N);
  }
}

// Exhausting the fuel deep inside a wide recursion stops the whole
// evaluation: one error, not one per pending step, and the caller's
// bindings are left as they were.
TEST(ExprEvalTest, ExhaustedFuelReportsOneError) {
  DiagnosticEngine D;
  CompileResult R = compileMolga(
      "module M fun fib(n: int): int = "
      "if n < 2 then n else fib(n - 1) + fib(n - 2) end",
      D);
  ASSERT_TRUE(R.Success) << D.dump();
  EvalContext Ctx;
  Ctx.Prog = R.Prog.get();
  Ctx.Bindings.emplace_back("outer", Value::ofInt(1));
  Expr Call;
  Call.Kind = ExprKind::Call;
  Call.Name = "fib";
  auto Arg = std::make_unique<Expr>();
  Arg->Kind = ExprKind::IntLit;
  Arg->IntValue = 40;
  Call.Children.push_back(std::move(Arg));
  DiagnosticEngine ED;
  Value V = evalExpr(Call, Ctx, ED);
  EXPECT_TRUE(V.isUnit());
  ASSERT_EQ(ED.diagnostics().size(), 1u) << ED.dump();
  EXPECT_NE(ED.dump().find("fuel"), std::string::npos) << ED.dump();
  ASSERT_EQ(Ctx.Bindings.size(), 1u);
  EXPECT_EQ(Ctx.Bindings[0].first, "outer");
}

TEST(DriverTest, WellDefinednessCaught) {
  // val of Add's result is never defined: the AG core reports it during
  // lowering (molga's well-definedness check).
  DiagnosticEngine D;
  CompileResult R = compileMolga(UndefinedOutputSource, D);
  EXPECT_FALSE(R.Success);
  EXPECT_NE(D.dump().find("no defining rule"), std::string::npos) << D.dump();
}

// Pins every front-end diagnostic verbatim: text, location, order and
// count. A change to the lexer, parser, checker or lowering that is meant
// to be a pure speedup must leave this golden byte-identical; regenerate
// with FNC2_UPDATE_GOLDENS=1 only for an intended change of diagnostics.
TEST(DriverTest, DiagnosticsMatchGolden) {
  std::vector<const char *> Corpus = {"\"unterminated", "@"};
  Corpus.insert(Corpus.end(), std::begin(SyntaxErrorSources),
                std::end(SyntaxErrorSources));
  for (const ErrorCase &C : TypeErrorCases)
    Corpus.push_back(C.Source);
  for (const ErrorCase &C : GrammarErrorCases)
    Corpus.push_back(C.Source);
  Corpus.push_back(HiddenImportSource);
  Corpus.push_back(UndefinedOutputSource);
  // The first declaration of a duplicated attribute types its uses.
  Corpus.push_back(R"molga(
grammar G
  phylum A root
  attr A syn s : int
  attr A syn s : string
  operator L() -> A
  rules for L A.s := "x" end
end
)molga");
  // The last declaration of a duplicated operator scopes its rules.
  Corpus.push_back(R"molga(
grammar G
  phylum A root
  attr A syn s : int
  operator L() -> A
  operator L(c: A) -> A
  rules for L A.s := c.s end
end
)molga");
  // Each reference re-reports the unknown declared type.
  Corpus.push_back(R"molga(
grammar G
  phylum A root
  attr A syn s : nosuch
  operator L(c: A) -> A
  operator E() -> A
  rules for L A.s := c.s end
  rules for E A.s := 1 end
end
)molga");
  // The lexical error on line 2 is reported before the syntax error on
  // line 1.
  Corpus.push_back("grammar G phylum end\n@\n");

  std::string Actual;
  for (const char *Src : Corpus) {
    DiagnosticEngine D;
    compileMolga(Src, D);
    std::string Text = Src;
    if (!Text.empty() && Text.front() == '\n')
      Text.erase(0, 1);
    if (Text.empty() || Text.back() != '\n')
      Text += '\n';
    Actual += "== source\n" + Text + "-- diagnostics\n" + D.dump();
  }

  const std::string Path =
      std::string(FNC2_GOLDEN_DIR) + "/molga_diagnostics.golden";
  if (std::getenv("FNC2_UPDATE_GOLDENS")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden " << Path
                         << " (regenerate with FNC2_UPDATE_GOLDENS=1)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Actual)
      << "molga diagnostics drifted from " << Path
      << " (if the change is intentional, regenerate with "
         "FNC2_UPDATE_GOLDENS=1)";
}

} // namespace
