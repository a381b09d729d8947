//===- olga/Lower.cpp -----------------------------------------------------===//

#include "olga/Lower.h"

#include "grammar/GrammarBuilder.h"
#include "olga/ExprEval.h"

#include <map>

using namespace fnc2;
using namespace fnc2::olga;

namespace {

/// Lowers one grammar declaration.
class GrammarLowerer {
public:
  GrammarLowerer(GrammarDecl &G, std::shared_ptr<Program> Prog,
                 DiagnosticEngine &Diags)
      : G(G), Prog(std::move(Prog)), Diags(Diags), Builder(G.Name) {}

  LoweredGrammar run();

private:
  /// Resolves an occurrence reference (base.attr / lexeme / local name)
  /// within \p Op to an AttrOcc; returns false when it is not one.
  bool resolveOcc(const OperatorDecl &Op, ProdId P, Expr &E,
                  const std::map<std::string, AttrOcc> &Locals, AttrOcc &Out);

  /// Walks \p E, assigns ArgIndex to every occurrence reference, and
  /// appends the distinct occurrences to \p Args. \p Bound tracks names
  /// shadowed by lets and match bindings.
  void collectArgs(const OperatorDecl &Op, ProdId P, Expr &E,
                   const std::map<std::string, AttrOcc> &Locals,
                   std::vector<std::string> &Bound,
                   std::vector<AttrOcc> &Args);

  GrammarDecl &G;
  std::shared_ptr<Program> Prog;
  DiagnosticEngine &Diags;
  GrammarBuilder Builder;
  std::shared_ptr<DiagnosticEngine> RuntimeDiags =
      std::make_shared<DiagnosticEngine>();
};

} // namespace

bool GrammarLowerer::resolveOcc(const OperatorDecl &Op, ProdId P, Expr &E,
                                const std::map<std::string, AttrOcc> &Locals,
                                AttrOcc &Out) {
  AttributeGrammar &AG = Builder.grammar();
  if (E.Kind == ExprKind::Lexeme) {
    Out = AttrOcc::lexeme();
    return true;
  }
  if (E.Kind == ExprKind::AttrRef) {
    unsigned Pos = ~0u;
    const std::string *Phylum = nullptr;
    for (unsigned C = 0; C != Op.Children.size(); ++C)
      if (Op.Children[C].first == E.Name) {
        Pos = C + 1;
        Phylum = &Op.Children[C].second;
      }
    if (Pos == ~0u && E.Name == Op.LhsPhylum) {
      Pos = 0;
      Phylum = &Op.LhsPhylum;
    }
    if (Pos == ~0u)
      return false; // sema reported already
    PhylumId Phy = AG.findPhylum(*Phylum);
    AttrId A = Phy == InvalidId ? InvalidId : AG.findAttr(Phy, E.Member);
    if (A == InvalidId)
      return false;
    Out = AttrOcc::onSymbol(Pos, A);
    return true;
  }
  if (E.Kind == ExprKind::Name) {
    auto It = Locals.find(E.Name);
    if (It == Locals.end())
      return false;
    (void)P;
    Out = It->second;
    return true;
  }
  return false;
}

void GrammarLowerer::collectArgs(const OperatorDecl &Op, ProdId P, Expr &E,
                                 const std::map<std::string, AttrOcc> &Locals,
                                 std::vector<std::string> &Bound,
                                 std::vector<AttrOcc> &Args) {
  auto isBound = [&](const std::string &Name) {
    for (const std::string &B : Bound)
      if (B == Name)
        return true;
    return false;
  };

  if (E.Kind == ExprKind::Name && isBound(E.Name))
    return; // let/match binding or parameter: not an occurrence
  AttrOcc Occ;
  if (resolveOcc(Op, P, E, Locals, Occ)) {
    for (size_t I = 0; I != Args.size(); ++I)
      if (Args[I] == Occ) {
        E.ArgIndex = static_cast<int>(I);
        return;
      }
    E.ArgIndex = static_cast<int>(Args.size());
    Args.push_back(Occ);
    return;
  }

  switch (E.Kind) {
  case ExprKind::Let:
    collectArgs(Op, P, *E.Children[0], Locals, Bound, Args);
    Bound.push_back(E.Name);
    collectArgs(Op, P, *E.Children[1], Locals, Bound, Args);
    Bound.pop_back();
    return;
  case ExprKind::Match:
    collectArgs(Op, P, *E.Children[0], Locals, Bound, Args);
    for (MatchArm &Arm : E.Arms) {
      if (Arm.Kind == MatchArm::PatKind::Bind) {
        Bound.push_back(Arm.Text);
        collectArgs(Op, P, *Arm.Body, Locals, Bound, Args);
        Bound.pop_back();
      } else {
        collectArgs(Op, P, *Arm.Body, Locals, Bound, Args);
      }
    }
    return;
  default:
    for (ExprPtr &C : E.Children)
      collectArgs(Op, P, *C, Locals, Bound, Args);
    return;
  }
}

LoweredGrammar GrammarLowerer::run() {
  // Phyla and attributes.
  PhylumId Root = InvalidId;
  for (const PhylumDecl &P : G.Phyla) {
    PhylumId Id = Builder.phylum(P.Name);
    if (P.IsRoot)
      Root = Id;
  }
  for (const AttrDecl &A : G.Attrs) {
    PhylumId Phy = Builder.grammar().findPhylum(A.Phylum);
    if (Phy == InvalidId)
      continue;
    Type T = resolveType(A.DeclType, Prog->Aliases, Diags);
    if (A.Inherited)
      Builder.inherited(Phy, A.Name, T.str());
    else
      Builder.synthesized(Phy, A.Name, T.str());
  }

  // Operators, indexed by the production each one lowers to.
  std::vector<const OperatorDecl *> OpOf;
  for (const OperatorDecl &Op : G.Operators) {
    PhylumId Lhs = Builder.grammar().findPhylum(Op.LhsPhylum);
    if (Lhs == InvalidId)
      continue;
    std::vector<PhylumId> Rhs;
    bool Ok = true;
    for (const auto &[Var, Phy] : Op.Children) {
      PhylumId Id = Builder.grammar().findPhylum(Phy);
      if (Id == InvalidId)
        Ok = false;
      else
        Rhs.push_back(Id);
    }
    if (!Ok)
      continue;
    bool StringLexeme = Op.HasLexeme && Op.LexemeType.Name == "string";
    Builder.production(Op.Name, Lhs, std::move(Rhs), Op.HasLexeme,
                       StringLexeme);
    OpOf.push_back(&Op);
  }

  // Rules. Locals accumulate per operator across its blocks.
  std::vector<std::map<std::string, AttrOcc>> LocalsOf(OpOf.size());
  for (RuleBlock &Block : G.Rules) {
    ProdId P = Builder.grammar().findProd(Block.Operator);
    if (P == InvalidId)
      continue;
    const OperatorDecl &Op = *OpOf[P];
    auto &Locals = LocalsOf[P];

    // Two passes: declare locals first so rules may reference them in any
    // textual order, then lower the defining expressions.
    for (const RuleStmt &S : Block.Stmts)
      if (S.IsLocalDecl && !Locals.count(S.Attr))
        Locals[S.Attr] = Builder.local(
            P, S.Attr, resolveType(S.LocalType, Prog->Aliases, Diags).str());

    for (RuleStmt &S : Block.Stmts) {
      AttrOcc Target;
      if (S.IsLocalDecl || S.Base.empty()) {
        auto LIt = Locals.find(S.Attr);
        if (LIt == Locals.end())
          continue; // sema reported
        Target = LIt->second;
      } else {
        Expr Ref;
        Ref.Kind = ExprKind::AttrRef;
        Ref.Name = S.Base;
        Ref.Member = S.Attr;
        std::map<std::string, AttrOcc> NoLocals;
        if (!resolveOcc(Op, P, Ref, NoLocals, Target))
          continue; // sema reported
      }

      std::vector<AttrOcc> Args;
      std::vector<std::string> Bound;
      Expr &Body = *S.Value;
      collectArgs(Op, P, Body, Locals, Bound, Args);

      // Copy rules: the body is exactly one occurrence reference.
      bool IsBareOcc = Body.ArgIndex == 0 && Args.size() == 1 &&
                       (Body.Kind == ExprKind::AttrRef ||
                        Body.Kind == ExprKind::Name) &&
                       !Args[0].isLexeme();
      std::string FnName = Body.Kind == ExprKind::Call ? Body.Name
                           : IsBareOcc                 ? "copy"
                           : Body.Children.empty() && Body.Arms.empty()
                               ? "const"
                               : "<expr>";

      auto ProgRef = Prog;
      auto RuntimeRef = RuntimeDiags;
      const Expr *BodyPtr = &Body;
      SemanticFn Fn = [ProgRef, RuntimeRef,
                       BodyPtr](std::span<const Value> OccArgs) {
        EvalContext Ctx;
        Ctx.Prog = ProgRef.get();
        Ctx.OccArgs = OccArgs;
        return evalExpr(*BodyPtr, Ctx, *RuntimeRef);
      };

      RuleId R;
      if (IsBareOcc) {
        R = Builder.rule(P, Target, std::move(Args), "copy", std::move(Fn));
        Builder.grammar().Rules[R].IsCopy = true;
      } else {
        R = Builder.rule(P, Target, std::move(Args), FnName, std::move(Fn));
      }
      // Expose the interpreted body to the native backend's FnInliner; the
      // shared Program keeps the AST alive for the lifetime of the rule.
      Builder.grammar().Rules[R].Body = BodyPtr;
      Builder.grammar().Rules[R].BodyProg = ProgRef;
    }
  }

  if (Root != InvalidId)
    Builder.setStart(Root);

  LoweredGrammar Out;
  Out.Prog = Prog;
  Out.RuntimeDiags = RuntimeDiags;
  Out.AG = Builder.finalize(Diags);
  return Out;
}

std::vector<LoweredGrammar>
olga::lowerProgram(std::shared_ptr<Program> Prog, DiagnosticEngine &Diags) {
  std::vector<LoweredGrammar> Out;
  for (GrammarDecl &G : Prog->Unit.Grammars) {
    GrammarLowerer L(G, Prog, Diags);
    Out.push_back(L.run());
  }
  return Out;
}
