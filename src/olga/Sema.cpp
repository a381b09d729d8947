//===- olga/Sema.cpp ------------------------------------------------------===//

#include "olga/Sema.h"

#include "olga/ExprEval.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

using namespace fnc2;
using namespace fnc2::olga;

std::string Type::str() const {
  switch (Kind) {
  case TypeKind::Int: return "int";
  case TypeKind::Bool: return "bool";
  case TypeKind::String: return "string";
  case TypeKind::Map: return "map";
  case TypeKind::List: return "list";
  case TypeKind::Unit: return "unit";
  case TypeKind::Any: return "any";
  case TypeKind::Error: return "<error>";
  }
  return "?";
}

const std::map<std::string, FunSig> &olga::builtinFunctions() {
  static const std::map<std::string, FunSig> Builtins = [] {
    std::map<std::string, FunSig> B;
    auto sig = [](std::vector<Type> Params, Type Result,
                  int ResultFromParam = -1) {
      FunSig S;
      S.Params = std::move(Params);
      S.Result = Result;
      S.ResultFromParam = ResultFromParam;
      return S;
    };
    B["emptymap"] = sig({}, Type::mapTy());
    B["insert"] = sig({Type::mapTy(), Type::stringTy(), Type::anyTy()},
                      Type::mapTy());
    B["lookup"] = sig({Type::mapTy(), Type::stringTy(), Type::anyTy()},
                      Type::anyTy(), /*ResultFromParam=*/2);
    B["haskey"] = sig({Type::mapTy(), Type::stringTy()}, Type::boolTy());
    B["mapsize"] = sig({Type::mapTy()}, Type::intTy());
    B["min"] = sig({Type::intTy(), Type::intTy()}, Type::intTy());
    B["max"] = sig({Type::intTy(), Type::intTy()}, Type::intTy());
    B["len"] = sig({Type::listTy()}, Type::intTy());
    B["append"] = sig({Type::listTy(), Type::anyTy()}, Type::listTy());
    B["concat"] = sig({Type::listTy(), Type::listTy()}, Type::listTy());
    B["get"] = sig({Type::listTy(), Type::intTy(), Type::anyTy()},
                   Type::anyTy(), /*ResultFromParam=*/2);
    B["tostr"] = sig({Type::intTy()}, Type::stringTy());
    B["strlen"] = sig({Type::stringTy()}, Type::intTy());
    return B;
  }();
  return Builtins;
}

Type olga::resolveType(const TypeRef &Ref,
                       const std::map<std::string, Type> &Aliases,
                       DiagnosticEngine &Diags) {
  if (Ref.Name == "int")
    return Type::intTy();
  if (Ref.Name == "bool")
    return Type::boolTy();
  if (Ref.Name == "string")
    return Type::stringTy();
  if (Ref.Name == "map")
    return Type::mapTy();
  if (Ref.Name == "list")
    return Type::listTy();
  if (Ref.Name == "unit")
    return Type::unitTy();
  auto It = Aliases.find(Ref.Name);
  if (It != Aliases.end())
    return It->second;
  Diags.error("unknown type '" + Ref.Name + "'", Ref.Loc);
  return Type::errorTy();
}

namespace {

/// Hashes a (phylum, attribute) name pair.
struct NamePairHash {
  size_t operator()(
      const std::pair<std::string_view, std::string_view> &K) const {
    std::hash<std::string_view> H;
    return H(K.first) * 31 + H(K.second);
  }
};

/// One grammar's symbol tables, built once by checkGrammar. The keys view
/// the declarations' own names, which outlive the check.
struct GrammarSymbols {
  std::unordered_set<std::string_view> Phyla;
  /// (phylum, attribute) -> the first declaration of that attribute.
  std::unordered_map<std::pair<std::string_view, std::string_view>,
                     const AttrDecl *, NamePairHash>
      Attrs;
  /// Operator name -> the last declaration of that operator.
  std::unordered_map<std::string_view, const OperatorDecl *> Ops;
};

/// The rule-body context: which operator we are inside and which local
/// attributes are in scope.
struct RuleCtx {
  const GrammarSymbols *Syms = nullptr;
  const OperatorDecl *Op = nullptr;
  std::map<std::string, Type> Locals;
  const std::set<std::string> *VisibleModules = nullptr;
};

class Checker {
public:
  Checker(Program &Prog, DiagnosticEngine &Diags)
      : Prog(Prog), Diags(Diags) {}

  void run();

  Type checkExpr(Expr &E, std::vector<std::pair<std::string, Type>> &Scope,
                 const RuleCtx *RC);

private:
  Type attrType(const GrammarSymbols &Syms, const std::string &Phylum,
                const std::string &Attr, bool *IsInherited = nullptr) {
    auto It = Syms.Attrs.find({Phylum, Attr});
    if (It == Syms.Attrs.end())
      return Type::errorTy();
    if (IsInherited)
      *IsInherited = It->second->Inherited;
    return resolveType(It->second->DeclType, Prog.Aliases, Diags);
  }

  void checkGrammar(GrammarDecl &G);
  void checkRuleBlock(const GrammarSymbols &Syms, RuleBlock &Block,
                      const std::set<std::string> &Visible);

  Program &Prog;
  DiagnosticEngine &Diags;
};

} // namespace

Type Checker::checkExpr(Expr &E,
                        std::vector<std::pair<std::string, Type>> &Scope,
                        const RuleCtx *RC) {
  auto setTy = [&](Type T) {
    E.Ty = T;
    return T;
  };

  switch (E.Kind) {
  case ExprKind::IntLit:
    return setTy(Type::intTy());
  case ExprKind::BoolLit:
    return setTy(Type::boolTy());
  case ExprKind::StringLit:
    return setTy(Type::stringTy());
  case ExprKind::ListLit: {
    for (ExprPtr &C : E.Children)
      checkExpr(*C, Scope, RC);
    return setTy(Type::listTy());
  }
  case ExprKind::Lexeme: {
    if (!RC || !RC->Op) {
      Diags.error("'lexeme' outside a semantic rule", E.Loc);
      return setTy(Type::errorTy());
    }
    if (!RC->Op->HasLexeme) {
      Diags.error("operator '" + RC->Op->Name + "' has no lexeme", E.Loc);
      return setTy(Type::errorTy());
    }
    return setTy(resolveType(RC->Op->LexemeType, Prog.Aliases, Diags));
  }
  case ExprKind::AttrRef: {
    if (!RC || !RC->Op) {
      Diags.error("attribute reference outside a semantic rule", E.Loc);
      return setTy(Type::errorTy());
    }
    const std::string *Phylum = nullptr;
    for (const auto &[Var, Phy] : RC->Op->Children)
      if (Var == E.Name)
        Phylum = &Phy;
    if (!Phylum && E.Name == RC->Op->LhsPhylum)
      Phylum = &RC->Op->LhsPhylum;
    if (!Phylum) {
      Diags.error("'" + E.Name + "' names neither a son of operator '" +
                      RC->Op->Name + "' nor its result phylum",
                  E.Loc);
      return setTy(Type::errorTy());
    }
    Type T = attrType(*RC->Syms, *Phylum, E.Member);
    if (T == Type::errorTy())
      Diags.error("phylum '" + *Phylum + "' has no attribute '" + E.Member +
                      "'",
                  E.Loc);
    return setTy(T);
  }
  case ExprKind::Name: {
    for (auto It = Scope.rbegin(); It != Scope.rend(); ++It)
      if (It->first == E.Name)
        return setTy(It->second);
    if (RC) {
      auto It = RC->Locals.find(E.Name);
      if (It != RC->Locals.end())
        return setTy(It->second);
    }
    auto CIt = Prog.Consts.find(E.Name);
    if (CIt != Prog.Consts.end())
      return setTy(CIt->second.first);
    Diags.error("unknown name '" + E.Name + "'", E.Loc);
    return setTy(Type::errorTy());
  }
  case ExprKind::Unary: {
    Type T = checkExpr(*E.Children[0], Scope, RC);
    if (E.Name == "-") {
      if (!T.compatible(Type::intTy()))
        Diags.error("unary '-' needs an integer", E.Loc);
      return setTy(Type::intTy());
    }
    if (!T.compatible(Type::boolTy()))
      Diags.error("'not' needs a boolean", E.Loc);
    return setTy(Type::boolTy());
  }
  case ExprKind::Binary: {
    Type L = checkExpr(*E.Children[0], Scope, RC);
    Type R = checkExpr(*E.Children[1], Scope, RC);
    const std::string &Op = E.Name;
    if (Op == "and" || Op == "or") {
      if (!L.compatible(Type::boolTy()) || !R.compatible(Type::boolTy()))
        Diags.error("'" + Op + "' needs boolean operands", E.Loc);
      return setTy(Type::boolTy());
    }
    if (Op == "=" || Op == "<>") {
      if (!L.compatible(R))
        Diags.error("comparison of incompatible types " + L.str() + " and " +
                        R.str(),
                    E.Loc);
      return setTy(Type::boolTy());
    }
    if (Op == "<" || Op == "<=" || Op == ">" || Op == ">=") {
      bool Ok = (L.compatible(Type::intTy()) && R.compatible(Type::intTy())) ||
                (L.compatible(Type::stringTy()) &&
                 R.compatible(Type::stringTy()));
      if (!Ok)
        Diags.error("ordering comparison needs two integers or two strings",
                    E.Loc);
      return setTy(Type::boolTy());
    }
    if (Op == "^") {
      if (!L.compatible(Type::stringTy()) || !R.compatible(Type::stringTy()))
        Diags.error("'^' concatenates strings", E.Loc);
      return setTy(Type::stringTy());
    }
    if (!L.compatible(Type::intTy()) || !R.compatible(Type::intTy()))
      Diags.error("arithmetic '" + Op + "' needs integer operands", E.Loc);
    return setTy(Type::intTy());
  }
  case ExprKind::If: {
    Type C = checkExpr(*E.Children[0], Scope, RC);
    if (!C.compatible(Type::boolTy()))
      Diags.error("condition must be boolean", E.Children[0]->Loc);
    Type T = checkExpr(*E.Children[1], Scope, RC);
    Type F = checkExpr(*E.Children[2], Scope, RC);
    if (!T.compatible(F))
      Diags.error("branches have incompatible types " + T.str() + " and " +
                      F.str(),
                  E.Loc);
    return setTy(T.Kind == TypeKind::Any ? F : T);
  }
  case ExprKind::Let: {
    Type Bound = checkExpr(*E.Children[0], Scope, RC);
    Scope.emplace_back(E.Name, Bound);
    Type Body = checkExpr(*E.Children[1], Scope, RC);
    Scope.pop_back();
    return setTy(Body);
  }
  case ExprKind::Call: {
    std::vector<Type> ArgTypes;
    for (ExprPtr &C : E.Children)
      ArgTypes.push_back(checkExpr(*C, Scope, RC));

    const FunSig *Sig = nullptr;
    auto BIt = builtinFunctions().find(E.Name);
    if (BIt != builtinFunctions().end()) {
      Sig = &BIt->second;
    } else {
      auto FIt = Prog.Funs.find(E.Name);
      if (FIt != Prog.Funs.end()) {
        Sig = &FIt->second;
        if (RC && RC->VisibleModules && !Sig->Module.empty() &&
            !RC->VisibleModules->count(Sig->Module))
          Diags.error("function '" + E.Name + "' is defined in module '" +
                          Sig->Module + "', which this grammar does not import",
                      E.Loc);
      }
    }
    if (!Sig) {
      Diags.error("call to unknown function '" + E.Name + "'", E.Loc);
      return setTy(Type::errorTy());
    }
    if (Sig->Params.size() != ArgTypes.size()) {
      Diags.error("'" + E.Name + "' expects " +
                      std::to_string(Sig->Params.size()) + " arguments, got " +
                      std::to_string(ArgTypes.size()),
                  E.Loc);
      return setTy(Sig->Result);
    }
    for (size_t I = 0; I != ArgTypes.size(); ++I)
      if (!Sig->Params[I].compatible(ArgTypes[I]))
        Diags.error("argument " + std::to_string(I + 1) + " of '" + E.Name +
                        "' has type " + ArgTypes[I].str() + ", expected " +
                        Sig->Params[I].str(),
                    E.Children[I]->Loc);
    if (Sig->ResultFromParam >= 0 &&
        static_cast<size_t>(Sig->ResultFromParam) < ArgTypes.size())
      return setTy(ArgTypes[Sig->ResultFromParam]);
    return setTy(Sig->Result);
  }
  case ExprKind::Match: {
    Type Scrut = checkExpr(*E.Children[0], Scope, RC);
    Type Result = Type::anyTy();
    bool SawCatchAll = false;
    for (MatchArm &Arm : E.Arms) {
      Type PatTy = Type::anyTy();
      switch (Arm.Kind) {
      case MatchArm::PatKind::IntPat:
        PatTy = Type::intTy();
        break;
      case MatchArm::PatKind::BoolPat:
        PatTy = Type::boolTy();
        break;
      case MatchArm::PatKind::StringPat:
        PatTy = Type::stringTy();
        break;
      case MatchArm::PatKind::Bind:
      case MatchArm::PatKind::Wild:
        SawCatchAll = true;
        break;
      }
      if (!PatTy.compatible(Scrut))
        Diags.error("pattern type " + PatTy.str() +
                        " does not match scrutinee type " + Scrut.str(),
                    Arm.Loc);
      Type BodyTy;
      if (Arm.Kind == MatchArm::PatKind::Bind) {
        Scope.emplace_back(Arm.Text, Scrut);
        BodyTy = checkExpr(*Arm.Body, Scope, RC);
        Scope.pop_back();
      } else {
        BodyTy = checkExpr(*Arm.Body, Scope, RC);
      }
      if (!Result.compatible(BodyTy))
        Diags.error("match arms have incompatible types", Arm.Loc);
      if (Result.Kind == TypeKind::Any)
        Result = BodyTy;
    }
    if (!SawCatchAll)
      Diags.warning("match without a catch-all arm may fail at run time",
                    E.Loc);
    return setTy(Result);
  }
  }
  return setTy(Type::errorTy());
}

void Checker::run() {
  std::set<std::string> ModuleNames;
  for (const ModuleDecl &M : Prog.Unit.Modules)
    if (!ModuleNames.insert(M.Name).second)
      Diags.error("duplicate module '" + M.Name + "'", M.Loc);

  // Aliases first (they may be used by everything else).
  for (const ModuleDecl &M : Prog.Unit.Modules)
    for (const TypeAlias &A : M.Types) {
      if (Prog.Aliases.count(A.Name)) {
        Diags.error("duplicate type alias '" + A.Name + "'", A.Loc);
        continue;
      }
      Prog.Aliases[A.Name] = resolveType(A.Aliased, Prog.Aliases, Diags);
    }

  // Function signatures.
  for (const ModuleDecl &M : Prog.Unit.Modules) {
    for (const std::string &Imp : M.Imports)
      if (!ModuleNames.count(Imp))
        Diags.error("module '" + M.Name + "' imports unknown module '" + Imp +
                        "'",
                    M.Loc);
    for (const FunDecl &F : M.Funs) {
      if (Prog.Funs.count(F.Name) || builtinFunctions().count(F.Name)) {
        Diags.error("duplicate function '" + F.Name + "'", F.Loc);
        continue;
      }
      FunSig Sig;
      for (const auto &[PName, PType] : F.Params)
        Sig.Params.push_back(resolveType(PType, Prog.Aliases, Diags));
      Sig.Result = resolveType(F.ReturnType, Prog.Aliases, Diags);
      Sig.Decl = &F;
      Sig.Module = M.Name;
      Prog.Funs[F.Name] = std::move(Sig);
    }
  }

  // Constants: checked and evaluated in declaration order.
  for (ModuleDecl &M : Prog.Unit.Modules) {
    for (ConstDecl &C : M.Consts) {
      if (Prog.Consts.count(C.Name)) {
        Diags.error("duplicate constant '" + C.Name + "'", C.Loc);
        continue;
      }
      std::vector<std::pair<std::string, Type>> Scope;
      Type Declared = resolveType(C.DeclType, Prog.Aliases, Diags);
      Type Actual = checkExpr(*C.Value, Scope, nullptr);
      if (!Declared.compatible(Actual))
        Diags.error("constant '" + C.Name + "' declared " + Declared.str() +
                        " but its value has type " + Actual.str(),
                    C.Loc);
      EvalContext Ctx;
      Ctx.Prog = &Prog;
      Prog.Consts[C.Name] = {Declared, evalExpr(*C.Value, Ctx, Diags)};
    }
  }

  // Function bodies.
  for (ModuleDecl &M : Prog.Unit.Modules) {
    for (FunDecl &F : M.Funs) {
      std::vector<std::pair<std::string, Type>> Scope;
      for (const auto &[PName, PType] : F.Params)
        Scope.emplace_back(PName, resolveType(PType, Prog.Aliases, Diags));
      Type Body = checkExpr(*F.Body, Scope, nullptr);
      Type Declared = resolveType(F.ReturnType, Prog.Aliases, Diags);
      if (!Declared.compatible(Body))
        Diags.error("function '" + F.Name + "' declared to return " +
                        Declared.str() + " but its body has type " +
                        Body.str(),
                    F.Loc);
    }
  }

  // Grammars.
  for (GrammarDecl &G : Prog.Unit.Grammars) {
    // Transitive import closure.
    std::set<std::string> Visible;
    std::vector<std::string> Work = G.Imports;
    while (!Work.empty()) {
      std::string M = Work.back();
      Work.pop_back();
      if (!ModuleNames.count(M)) {
        Diags.error("grammar '" + G.Name + "' imports unknown module '" + M +
                        "'",
                    G.Loc);
        continue;
      }
      if (!Visible.insert(M).second)
        continue;
      for (const ModuleDecl &MD : Prog.Unit.Modules)
        if (MD.Name == M)
          for (const std::string &Sub : MD.Imports)
            Work.push_back(Sub);
    }
    Prog.GrammarImports[G.Name] =
        std::vector<std::string>(Visible.begin(), Visible.end());
    checkGrammar(G);
  }
}

void Checker::checkGrammar(GrammarDecl &G) {
  GrammarSymbols Syms;
  unsigned Roots = 0;
  for (const PhylumDecl &P : G.Phyla) {
    if (!Syms.Phyla.insert(P.Name).second)
      Diags.error("duplicate phylum '" + P.Name + "'", P.Loc);
    Roots += P.IsRoot;
  }
  if (Roots != 1)
    Diags.error("grammar '" + G.Name + "' must declare exactly one root "
                "phylum (found " + std::to_string(Roots) + ")",
                G.Loc);

  for (const AttrDecl &A : G.Attrs) {
    if (!Syms.Phyla.count(A.Phylum))
      Diags.error("attribute on unknown phylum '" + A.Phylum + "'", A.Loc);
    if (!Syms.Attrs.try_emplace({A.Phylum, A.Name}, &A).second)
      Diags.error("duplicate attribute '" + A.Name + "' on phylum '" +
                      A.Phylum + "'",
                  A.Loc);
    resolveType(A.DeclType, Prog.Aliases, Diags);
  }

  for (const OperatorDecl &Op : G.Operators) {
    auto [It, Inserted] = Syms.Ops.try_emplace(Op.Name, &Op);
    if (!Inserted) {
      Diags.error("duplicate operator '" + Op.Name + "'", Op.Loc);
      It->second = &Op;
    }
    if (!Syms.Phyla.count(Op.LhsPhylum))
      Diags.error("operator '" + Op.Name + "' produces unknown phylum '" +
                      Op.LhsPhylum + "'",
                  Op.Loc);
    std::set<std::string> ChildNames;
    for (const auto &[Var, Phy] : Op.Children) {
      if (!ChildNames.insert(Var).second)
        Diags.error("duplicate son name '" + Var + "' in operator '" +
                        Op.Name + "'",
                    Op.Loc);
      if (!Syms.Phyla.count(Phy))
        Diags.error("operator '" + Op.Name + "' uses unknown phylum '" + Phy +
                        "'",
                    Op.Loc);
    }
    if (Op.HasLexeme) {
      Type T = resolveType(Op.LexemeType, Prog.Aliases, Diags);
      if (!(T == Type::intTy()) && !(T == Type::stringTy()))
        Diags.error("lexeme type must be int or string", Op.Loc);
    }
  }

  const std::set<std::string> Visible(
      Prog.GrammarImports[G.Name].begin(), Prog.GrammarImports[G.Name].end());
  for (RuleBlock &Block : G.Rules)
    checkRuleBlock(Syms, Block, Visible);
}

void Checker::checkRuleBlock(const GrammarSymbols &Syms, RuleBlock &Block,
                             const std::set<std::string> &Visible) {
  auto OpIt = Syms.Ops.find(Block.Operator);
  if (OpIt == Syms.Ops.end()) {
    Diags.error("rules for unknown operator '" + Block.Operator + "'",
                Block.Loc);
    return;
  }
  const OperatorDecl *Op = OpIt->second;

  RuleCtx RC;
  RC.Syms = &Syms;
  RC.Op = Op;
  RC.VisibleModules = &Visible;

  for (RuleStmt &S : Block.Stmts) {
    if (S.IsLocalDecl) {
      if (RC.Locals.count(S.Attr)) {
        Diags.error("duplicate local attribute '" + S.Attr + "'", S.Loc);
        continue;
      }
      Type Declared = resolveType(S.LocalType, Prog.Aliases, Diags);
      RC.Locals[S.Attr] = Declared;
      std::vector<std::pair<std::string, Type>> Scope;
      Type Actual = checkExpr(*S.Value, Scope, &RC);
      if (!Declared.compatible(Actual))
        Diags.error("local attribute '" + S.Attr + "' declared " +
                        Declared.str() + " but defined with type " +
                        Actual.str(),
                    S.Loc);
      continue;
    }

    Type TargetTy = Type::errorTy();
    if (S.Base.empty()) {
      Diags.error("assignment to undeclared local '" + S.Attr +
                      "' (declare it with 'local')",
                  S.Loc);
    } else {
      const std::string *Phylum = nullptr;
      bool IsLhs = false;
      for (const auto &[Var, Phy] : Op->Children)
        if (Var == S.Base)
          Phylum = &Phy;
      if (!Phylum && S.Base == Op->LhsPhylum) {
        Phylum = &Op->LhsPhylum;
        IsLhs = true;
      }
      if (!Phylum) {
        Diags.error("'" + S.Base + "' names neither a son of operator '" +
                        Op->Name + "' nor its result phylum",
                    S.Loc);
      } else {
        bool Inherited = false;
        TargetTy = attrType(Syms, *Phylum, S.Attr, &Inherited);
        if (TargetTy == Type::errorTy()) {
          Diags.error("phylum '" + *Phylum + "' has no attribute '" + S.Attr +
                          "'",
                      S.Loc);
        } else if (IsLhs && Inherited) {
          Diags.error("cannot define inherited attribute '" + S.Attr +
                          "' of the result phylum (it is an input)",
                      S.Loc);
        } else if (!IsLhs && !Inherited) {
          Diags.error("cannot define synthesized attribute '" + S.Attr +
                          "' of son '" + S.Base + "' (it is an input)",
                      S.Loc);
        }
      }
    }

    std::vector<std::pair<std::string, Type>> Scope;
    Type ValueTy = checkExpr(*S.Value, Scope, &RC);
    if (!(TargetTy == Type::errorTy()) && !TargetTy.compatible(ValueTy))
      Diags.error("rule defines '" + S.Attr + "' of type " + TargetTy.str() +
                      " with a value of type " + ValueTy.str(),
                  S.Loc);
  }
}

std::shared_ptr<Program> olga::checkUnit(CompilationUnit Unit,
                                         DiagnosticEngine &Diags) {
  auto Prog = std::make_shared<Program>();
  Prog->Unit = std::move(Unit);
  Checker C(*Prog, Diags);
  C.run();
  return Prog;
}
