//===- olga/ExprEval.cpp --------------------------------------------------===//

#include "olga/ExprEval.h"

#include <cassert>

using namespace fnc2;
using namespace fnc2::olga;

bool olga::applyBuiltin(const std::string &Name, std::span<const Value> Args,
                        Value &Result) {
  auto IsInts = [&](unsigned N) {
    if (Args.size() != N)
      return false;
    for (const Value &V : Args)
      if (!V.isInt())
        return false;
    return true;
  };

  if (Name == "emptymap" && Args.empty()) {
    Result = Value::emptyMap();
    return true;
  }
  if (Name == "insert" && Args.size() == 3 && Args[0].isMap() &&
      Args[1].isString()) {
    Result = Args[0].mapInsert(Args[1].asString(), Args[2]);
    return true;
  }
  if (Name == "lookup" && Args.size() == 3 && Args[0].isMap() &&
      Args[1].isString()) {
    const Value *Found = Args[0].mapLookup(Args[1].asString());
    Result = Found ? *Found : Args[2];
    return true;
  }
  if (Name == "haskey" && Args.size() == 2 && Args[0].isMap() &&
      Args[1].isString()) {
    Result = Value::ofBool(Args[0].mapLookup(Args[1].asString()) != nullptr);
    return true;
  }
  if (Name == "mapsize" && Args.size() == 1 && Args[0].isMap()) {
    Result = Value::ofInt(Args[0].mapSize());
    return true;
  }
  if (Name == "min" && IsInts(2)) {
    Result = Value::ofInt(std::min(Args[0].asInt(), Args[1].asInt()));
    return true;
  }
  if (Name == "max" && IsInts(2)) {
    Result = Value::ofInt(std::max(Args[0].asInt(), Args[1].asInt()));
    return true;
  }
  if (Name == "len" && Args.size() == 1 && Args[0].isList()) {
    Result = Value::ofInt(static_cast<int64_t>(Args[0].asList().size()));
    return true;
  }
  if (Name == "append" && Args.size() == 2 && Args[0].isList()) {
    Result = Args[0].listAppend(Args[1]);
    return true;
  }
  if (Name == "concat" && Args.size() == 2 && Args[0].isList() &&
      Args[1].isList()) {
    Result = Value::listConcat(Args[0], Args[1]);
    return true;
  }
  if (Name == "get" && Args.size() == 3 && Args[0].isList() &&
      Args[1].isInt()) {
    const auto &L = Args[0].asList();
    int64_t I = Args[1].asInt();
    Result = (I >= 0 && static_cast<size_t>(I) < L.size())
                 ? L[static_cast<size_t>(I)]
                 : Args[2];
    return true;
  }
  if (Name == "tostr" && Args.size() == 1 && Args[0].isInt()) {
    Result = Value::ofString(std::to_string(Args[0].asInt()));
    return true;
  }
  if (Name == "strlen" && Args.size() == 1 && Args[0].isString()) {
    Result = Value::ofInt(static_cast<int64_t>(Args[0].asString().size()));
    return true;
  }
  return false;
}

static Value evalBinary(const std::string &Op, const Value &L, const Value &R,
                        const SourceLoc &Loc, DiagnosticEngine &Diags) {
  if (Op == "=")
    return Value::ofBool(L.equals(R));
  if (Op == "<>")
    return Value::ofBool(!L.equals(R));
  if (Op == "^" && L.isString() && R.isString())
    return Value::ofString(L.asString() + R.asString());
  if (L.isInt() && R.isInt()) {
    int64_t A = L.asInt(), B = R.asInt();
    if (Op == "+")
      return Value::ofInt(A + B);
    if (Op == "-")
      return Value::ofInt(A - B);
    if (Op == "*")
      return Value::ofInt(A * B);
    if (Op == "/") {
      if (B == 0) {
        Diags.error("division by zero", Loc);
        return Value::ofInt(0);
      }
      return Value::ofInt(A / B);
    }
    if (Op == "%") {
      if (B == 0) {
        Diags.error("modulo by zero", Loc);
        return Value::ofInt(0);
      }
      return Value::ofInt(A % B);
    }
    if (Op == "<")
      return Value::ofBool(A < B);
    if (Op == "<=")
      return Value::ofBool(A <= B);
    if (Op == ">")
      return Value::ofBool(A > B);
    if (Op == ">=")
      return Value::ofBool(A >= B);
  }
  if (L.isString() && R.isString()) {
    const std::string &A = L.asString(), &B = R.asString();
    if (Op == "<")
      return Value::ofBool(A < B);
    if (Op == "<=")
      return Value::ofBool(A <= B);
    if (Op == ">")
      return Value::ofBool(A > B);
    if (Op == ">=")
      return Value::ofBool(A >= B);
  }
  Diags.error("operator '" + Op + "' applied to incompatible values", Loc);
  return Value();
}

namespace {

/// Deepest evaluation nesting, in interpreter frames: one per expression
/// level, so a molga call adds one per level of its body (three for
/// `1 + f(n - 1)` under an if). Fuel bounds the work of a runaway
/// recursion but not its stack. Sized for the optimized build: a frame
/// measures 288 bytes there (352 under TSan), so the bound holds the
/// interpreter to about 2.3 MiB of an 8 MiB thread stack while admitting a
/// non-tail recursion some 2700 calls deep. ASan's use-after-scope
/// redzones grow a frame to about 4 KiB (32 MiB at the bound), so ASan runs
/// need a larger stack (ci.sh raises the limit for its ASan step).
constexpr unsigned kMaxEvalDepth = 8192;

/// Unwinds a whole evaluation once its fuel or depth bound is hit, after
/// the one diagnostic is reported: the pending outer steps would otherwise
/// each report their own exhaustion or a type error on the unit result.
struct Abort {};

Value eval(const Expr &E, EvalContext &Ctx, DiagnosticEngine &Diags,
           unsigned Depth) {
  if (Ctx.Fuel == 0) {
    Diags.error("evaluation fuel exhausted (runaway recursion?)", E.Loc);
    throw Abort();
  }
  if (Depth == kMaxEvalDepth) {
    Diags.error("evaluation nested deeper than " +
                    std::to_string(kMaxEvalDepth) +
                    " levels (runaway recursion?)",
                E.Loc);
    throw Abort();
  }
  --Ctx.Fuel;

  switch (E.Kind) {
  case ExprKind::IntLit:
    return Value::ofInt(E.IntValue);
  case ExprKind::BoolLit:
    return Value::ofBool(E.BoolValue);
  case ExprKind::StringLit:
    return Value::ofString(E.Name);
  case ExprKind::ListLit: {
    std::vector<Value> Elems;
    Elems.reserve(E.Children.size());
    for (const ExprPtr &C : E.Children)
      Elems.push_back(eval(*C, Ctx, Diags, Depth + 1));
    return Value::ofList(std::move(Elems));
  }
  case ExprKind::Lexeme:
  case ExprKind::AttrRef: {
    assert(E.ArgIndex >= 0 &&
           static_cast<size_t>(E.ArgIndex) < Ctx.OccArgs.size() &&
           "unlowered occurrence access");
    return Ctx.OccArgs[E.ArgIndex];
  }
  case ExprKind::Name: {
    if (const Value *Bound = Ctx.lookup(E.Name))
      return *Bound;
    if (E.ArgIndex >= 0 &&
        static_cast<size_t>(E.ArgIndex) < Ctx.OccArgs.size())
      return Ctx.OccArgs[E.ArgIndex]; // local attribute occurrence
    if (Ctx.Prog) {
      auto It = Ctx.Prog->Consts.find(E.Name);
      if (It != Ctx.Prog->Consts.end())
        return It->second.second;
    }
    Diags.error("unbound name '" + E.Name + "' at run time", E.Loc);
    return Value();
  }
  case ExprKind::Unary: {
    Value V = eval(*E.Children[0], Ctx, Diags, Depth + 1);
    if (E.Name == "-" && V.isInt())
      return Value::ofInt(-V.asInt());
    if (E.Name == "not" && V.isBool())
      return Value::ofBool(!V.asBool());
    Diags.error("unary '" + E.Name + "' applied to incompatible value",
                E.Loc);
    return Value();
  }
  case ExprKind::Binary: {
    // Short-circuit the boolean connectives.
    if (E.Name == "and" || E.Name == "or") {
      Value L = eval(*E.Children[0], Ctx, Diags, Depth + 1);
      if (!L.isBool()) {
        Diags.error("'" + E.Name + "' needs boolean operands", E.Loc);
        return Value();
      }
      if (E.Name == "and" && !L.asBool())
        return Value::ofBool(false);
      if (E.Name == "or" && L.asBool())
        return Value::ofBool(true);
      return eval(*E.Children[1], Ctx, Diags, Depth + 1);
    }
    Value L = eval(*E.Children[0], Ctx, Diags, Depth + 1);
    Value R = eval(*E.Children[1], Ctx, Diags, Depth + 1);
    return evalBinary(E.Name, L, R, E.Loc, Diags);
  }
  case ExprKind::If: {
    Value C = eval(*E.Children[0], Ctx, Diags, Depth + 1);
    if (!C.isBool()) {
      Diags.error("condition is not boolean", E.Loc);
      return Value();
    }
    return eval(*E.Children[C.asBool() ? 1 : 2], Ctx, Diags, Depth + 1);
  }
  case ExprKind::Let: {
    Value Bound = eval(*E.Children[0], Ctx, Diags, Depth + 1);
    Ctx.Bindings.emplace_back(E.Name, std::move(Bound));
    Value Result = eval(*E.Children[1], Ctx, Diags, Depth + 1);
    Ctx.Bindings.pop_back();
    return Result;
  }
  case ExprKind::Call: {
    std::vector<Value> Args;
    Args.reserve(E.Children.size());
    for (const ExprPtr &C : E.Children)
      Args.push_back(eval(*C, Ctx, Diags, Depth + 1));
    Value Result;
    if (applyBuiltin(E.Name, Args, Result))
      return Result;
    if (Ctx.Prog) {
      auto It = Ctx.Prog->Funs.find(E.Name);
      if (It != Ctx.Prog->Funs.end() && It->second.Decl) {
        const FunDecl &F = *It->second.Decl;
        if (F.Params.size() != Args.size()) {
          Diags.error("call to '" + E.Name + "' with wrong arity", E.Loc);
          return Value();
        }
        // Fresh frame: functions only see their parameters and constants.
        EvalContext Callee;
        Callee.Prog = Ctx.Prog;
        Callee.Fuel = Ctx.Fuel;
        for (size_t I = 0; I != Args.size(); ++I)
          Callee.Bindings.emplace_back(F.Params[I].first,
                                       std::move(Args[I]));
        Value Result2 = eval(*F.Body, Callee, Diags, Depth + 1);
        Ctx.Fuel = Callee.Fuel;
        return Result2;
      }
    }
    Diags.error("call to unknown function '" + E.Name + "'", E.Loc);
    return Value();
  }
  case ExprKind::Match: {
    Value Scrut = eval(*E.Children[0], Ctx, Diags, Depth + 1);
    for (const MatchArm &Arm : E.Arms) {
      bool Hit = false;
      switch (Arm.Kind) {
      case MatchArm::PatKind::IntPat:
        Hit = Scrut.isInt() && Scrut.asInt() == Arm.IntValue;
        break;
      case MatchArm::PatKind::BoolPat:
        Hit = Scrut.isBool() && Scrut.asBool() == Arm.BoolValue;
        break;
      case MatchArm::PatKind::StringPat:
        Hit = Scrut.isString() && Scrut.asString() == Arm.Text;
        break;
      case MatchArm::PatKind::Bind:
      case MatchArm::PatKind::Wild:
        Hit = true;
        break;
      }
      if (!Hit)
        continue;
      if (Arm.Kind == MatchArm::PatKind::Bind) {
        Ctx.Bindings.emplace_back(Arm.Text, Scrut);
        Value Result = eval(*Arm.Body, Ctx, Diags, Depth + 1);
        Ctx.Bindings.pop_back();
        return Result;
      }
      return eval(*Arm.Body, Ctx, Diags, Depth + 1);
    }
    Diags.error("non-exhaustive match at run time", E.Loc);
    return Value();
  }
  }
  return Value();
}

} // namespace

Value olga::evalExpr(const Expr &E, EvalContext &Ctx,
                     DiagnosticEngine &Diags) {
  const size_t NumBindings = Ctx.Bindings.size();
  try {
    return eval(E, Ctx, Diags, 0);
  } catch (const Abort &) {
    Ctx.Bindings.erase(Ctx.Bindings.begin() + NumBindings,
                       Ctx.Bindings.end());
    return Value();
  }
}
