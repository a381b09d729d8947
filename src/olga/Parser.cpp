//===- olga/Parser.cpp ----------------------------------------------------===//

#include "olga/Parser.h"

using namespace fnc2;
using namespace fnc2::olga;

namespace {

class Parser {
public:
  Parser(std::vector<Token> Tokens, DiagnosticEngine &Diags)
      : Tokens(std::move(Tokens)), Diags(Diags) {}

  CompilationUnit parse() {
    CompilationUnit Unit;
    while (!at(TokKind::Eof)) {
      if (at(TokKind::KwModule)) {
        Unit.Modules.push_back(parseModule());
      } else if (at(TokKind::KwGrammar)) {
        Unit.Grammars.push_back(parseGrammar());
      } else {
        error("expected 'module' or 'grammar'");
        sync({TokKind::KwModule, TokKind::KwGrammar});
        if (at(TokKind::Eof))
          break;
      }
    }
    return Unit;
  }

private:
  //===-- token plumbing --------------------------------------------------===//
  const Token &peek(unsigned Ahead = 0) const {
    size_t I = std::min(Pos + Ahead, Tokens.size() - 1);
    return Tokens[I];
  }
  bool at(TokKind K) const { return peek().Kind == K; }
  const Token &consume() { return Tokens[std::min(Pos++, Tokens.size() - 1)]; }
  bool accept(TokKind K) {
    if (!at(K))
      return false;
    consume();
    return true;
  }
  /// Consumes a \p K token, or reports its absence and returns a blank
  /// stand-in (valid until the next failed expect) without consuming.
  const Token &expect(TokKind K, const char *Context) {
    if (at(K))
      return consume();
    error(std::string("expected ") + tokKindName(K) + " " + Context +
          ", found " + tokKindName(peek().Kind));
    Missing = Token{K, {}, 0, peek().Loc};
    return Missing;
  }
  void error(const std::string &Msg) { Diags.error(Msg, peek().Loc); }
  void sync(std::initializer_list<TokKind> Until) {
    while (!at(TokKind::Eof)) {
      for (TokKind K : Until)
        if (at(K))
          return;
      consume();
    }
  }

  //===-- shared pieces ---------------------------------------------------===//
  TypeRef parseTypeRef() {
    const Token &T = consume();
    switch (T.Kind) {
    case TokKind::Ident:
      return {std::string(T.Text), T.Loc};
    default:
      // Builtin type names lex as identifiers except when they collide with
      // keywords; none do, so anything else is an error.
      Diags.error("expected a type name", T.Loc);
      return {"<error>", T.Loc};
    }
  }

  std::vector<std::string> parseImports() {
    std::vector<std::string> Imports;
    while (accept(TokKind::KwImport)) {
      Imports.emplace_back(expect(TokKind::Ident, "after 'import'").Text);
      while (accept(TokKind::Comma))
        Imports.emplace_back(expect(TokKind::Ident, "in import list").Text);
    }
    return Imports;
  }

  //===-- modules ---------------------------------------------------------===//
  ModuleDecl parseModule() {
    ModuleDecl M;
    M.Loc = peek().Loc;
    expect(TokKind::KwModule, "at module start");
    M.Name = expect(TokKind::Ident, "after 'module'").Text;
    M.Imports = parseImports();
    while (!at(TokKind::KwEnd) && !at(TokKind::Eof)) {
      if (at(TokKind::KwType)) {
        TypeAlias A;
        A.Loc = consume().Loc;
        A.Name = expect(TokKind::Ident, "after 'type'").Text;
        expect(TokKind::Equal, "in type alias");
        A.Aliased = parseTypeRef();
        M.Types.push_back(std::move(A));
      } else if (at(TokKind::KwConst)) {
        ConstDecl C;
        C.Loc = consume().Loc;
        C.Name = expect(TokKind::Ident, "after 'const'").Text;
        expect(TokKind::Colon, "in constant declaration");
        C.DeclType = parseTypeRef();
        expect(TokKind::Equal, "in constant declaration");
        C.Value = parseExpr();
        M.Consts.push_back(std::move(C));
      } else if (at(TokKind::KwFun)) {
        M.Funs.push_back(parseFun());
      } else {
        error("expected 'type', 'const', 'fun' or 'end' in module");
        sync({TokKind::KwType, TokKind::KwConst, TokKind::KwFun,
              TokKind::KwEnd});
      }
    }
    expect(TokKind::KwEnd, "closing the module");
    return M;
  }

  FunDecl parseFun() {
    FunDecl F;
    F.Loc = peek().Loc;
    expect(TokKind::KwFun, "at function start");
    F.Name = expect(TokKind::Ident, "after 'fun'").Text;
    expect(TokKind::LParen, "in function signature");
    if (!at(TokKind::RParen)) {
      do {
        std::string P(expect(TokKind::Ident, "as parameter name").Text);
        expect(TokKind::Colon, "after parameter name");
        F.Params.emplace_back(std::move(P), parseTypeRef());
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "closing the parameter list");
    expect(TokKind::Colon, "before the return type");
    F.ReturnType = parseTypeRef();
    expect(TokKind::Equal, "before the function body");
    F.Body = parseExpr();
    return F;
  }

  //===-- grammars ----------------------------------------------------------//
  GrammarDecl parseGrammar() {
    GrammarDecl G;
    G.Loc = peek().Loc;
    expect(TokKind::KwGrammar, "at grammar start");
    G.Name = expect(TokKind::Ident, "after 'grammar'").Text;
    G.Imports = parseImports();
    while (!at(TokKind::KwEnd) && !at(TokKind::Eof)) {
      if (at(TokKind::KwPhylum)) {
        PhylumDecl P;
        P.Loc = consume().Loc;
        P.Name = expect(TokKind::Ident, "after 'phylum'").Text;
        P.IsRoot = accept(TokKind::KwRoot);
        G.Phyla.push_back(std::move(P));
      } else if (at(TokKind::KwAttr)) {
        AttrDecl A;
        A.Loc = consume().Loc;
        A.Phylum = expect(TokKind::Ident, "after 'attr'").Text;
        if (accept(TokKind::KwInh))
          A.Inherited = true;
        else if (accept(TokKind::KwSyn))
          A.Inherited = false;
        else
          error("expected 'inh' or 'syn' in attribute declaration");
        A.Name = expect(TokKind::Ident, "as attribute name").Text;
        expect(TokKind::Colon, "before the attribute type");
        A.DeclType = parseTypeRef();
        G.Attrs.push_back(std::move(A));
      } else if (at(TokKind::KwOperator)) {
        G.Operators.push_back(parseOperator());
      } else if (at(TokKind::KwRules)) {
        G.Rules.push_back(parseRuleBlock());
      } else {
        error("expected 'phylum', 'attr', 'operator', 'rules' or 'end'");
        sync({TokKind::KwPhylum, TokKind::KwAttr, TokKind::KwOperator,
              TokKind::KwRules, TokKind::KwEnd});
      }
    }
    expect(TokKind::KwEnd, "closing the grammar");
    return G;
  }

  OperatorDecl parseOperator() {
    OperatorDecl Op;
    Op.Loc = peek().Loc;
    expect(TokKind::KwOperator, "at operator start");
    Op.Name = expect(TokKind::Ident, "after 'operator'").Text;
    expect(TokKind::LParen, "in operator signature");
    if (!at(TokKind::RParen)) {
      do {
        std::string Var(expect(TokKind::Ident, "as child name").Text);
        expect(TokKind::Colon, "after child name");
        std::string Phy(expect(TokKind::Ident, "as child phylum").Text);
        Op.Children.emplace_back(std::move(Var), std::move(Phy));
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "closing the child list");
    expect(TokKind::Arrow, "before the result phylum");
    Op.LhsPhylum = expect(TokKind::Ident, "as result phylum").Text;
    if (accept(TokKind::KwLexeme)) {
      Op.HasLexeme = true;
      Op.LexemeType = parseTypeRef();
    }
    return Op;
  }

  RuleBlock parseRuleBlock() {
    RuleBlock B;
    B.Loc = peek().Loc;
    expect(TokKind::KwRules, "at rule block start");
    expect(TokKind::KwFor, "after 'rules'");
    B.Operator = expect(TokKind::Ident, "as operator name").Text;
    while (!at(TokKind::KwEnd) && !at(TokKind::Eof)) {
      RuleStmt S;
      S.Loc = peek().Loc;
      if (accept(TokKind::KwLocal)) {
        S.IsLocalDecl = true;
        S.Attr = expect(TokKind::Ident, "as local attribute name").Text;
        expect(TokKind::Colon, "before the local attribute type");
        S.LocalType = parseTypeRef();
        expect(TokKind::Assign, "in local attribute definition");
        S.Value = parseExpr();
      } else if (at(TokKind::Ident)) {
        std::string_view First = consume().Text;
        if (accept(TokKind::Dot)) {
          S.Base = First;
          S.Attr = expect(TokKind::Ident, "as attribute name").Text;
        } else {
          S.Attr = First; // bare local attribute target
        }
        expect(TokKind::Assign, "in semantic rule");
        S.Value = parseExpr();
      } else {
        error("expected a semantic rule or 'end'");
        sync({TokKind::KwEnd, TokKind::KwLocal, TokKind::Ident});
        continue;
      }
      B.Stmts.push_back(std::move(S));
    }
    expect(TokKind::KwEnd, "closing the rule block");
    return B;
  }

  //===-- expressions -------------------------------------------------------//
  ExprPtr mk(ExprKind K) {
    auto E = std::make_unique<Expr>();
    E->Kind = K;
    E->Loc = peek().Loc;
    return E;
  }

  ExprPtr parseExpr() { return parseOr(); }

  ExprPtr parseOr() {
    ExprPtr L = parseAnd();
    while (at(TokKind::KwOr)) {
      auto E = mk(ExprKind::Binary);
      consume();
      E->Name = "or";
      E->Children.push_back(std::move(L));
      E->Children.push_back(parseAnd());
      L = std::move(E);
    }
    return L;
  }

  ExprPtr parseAnd() {
    ExprPtr L = parseCmp();
    while (at(TokKind::KwAnd)) {
      auto E = mk(ExprKind::Binary);
      consume();
      E->Name = "and";
      E->Children.push_back(std::move(L));
      E->Children.push_back(parseCmp());
      L = std::move(E);
    }
    return L;
  }

  ExprPtr parseCmp() {
    ExprPtr L = parseAdd();
    const char *Op = nullptr;
    switch (peek().Kind) {
    case TokKind::Equal: Op = "="; break;
    case TokKind::NotEqual: Op = "<>"; break;
    case TokKind::Less: Op = "<"; break;
    case TokKind::LessEq: Op = "<="; break;
    case TokKind::Greater: Op = ">"; break;
    case TokKind::GreaterEq: Op = ">="; break;
    default: return L;
    }
    auto E = mk(ExprKind::Binary);
    consume();
    E->Name = Op;
    E->Children.push_back(std::move(L));
    E->Children.push_back(parseAdd());
    return E;
  }

  ExprPtr parseAdd() {
    ExprPtr L = parseMul();
    while (at(TokKind::Plus) || at(TokKind::Minus) || at(TokKind::Caret)) {
      auto E = mk(ExprKind::Binary);
      E->Name = at(TokKind::Plus) ? "+" : at(TokKind::Minus) ? "-" : "^";
      consume();
      E->Children.push_back(std::move(L));
      E->Children.push_back(parseMul());
      L = std::move(E);
    }
    return L;
  }

  ExprPtr parseMul() {
    ExprPtr L = parseUnary();
    while (at(TokKind::Star) || at(TokKind::Slash) || at(TokKind::Percent)) {
      auto E = mk(ExprKind::Binary);
      E->Name = at(TokKind::Star) ? "*" : at(TokKind::Slash) ? "/" : "%";
      consume();
      E->Children.push_back(std::move(L));
      E->Children.push_back(parseUnary());
      L = std::move(E);
    }
    return L;
  }

  ExprPtr parseUnary() {
    if (at(TokKind::Minus) || at(TokKind::KwNot)) {
      auto E = mk(ExprKind::Unary);
      E->Name = at(TokKind::Minus) ? "-" : "not";
      consume();
      E->Children.push_back(parseUnary());
      return E;
    }
    return parsePostfix();
  }

  ExprPtr parsePostfix() {
    ExprPtr E = parsePrimary();
    while (at(TokKind::Dot) && E->Kind == ExprKind::Name &&
           E->Children.empty()) {
      consume();
      auto Ref = mk(ExprKind::AttrRef);
      Ref->Name = E->Name;
      Ref->Member = expect(TokKind::Ident, "as attribute name").Text;
      Ref->Loc = E->Loc;
      E = std::move(Ref);
    }
    return E;
  }

  ExprPtr parsePrimary() {
    switch (peek().Kind) {
    case TokKind::IntLit: {
      auto E = mk(ExprKind::IntLit);
      E->IntValue = consume().IntValue;
      return E;
    }
    case TokKind::StringLit: {
      auto E = mk(ExprKind::StringLit);
      E->Name = consume().Text;
      return E;
    }
    case TokKind::KwTrue:
    case TokKind::KwFalse: {
      auto E = mk(ExprKind::BoolLit);
      E->BoolValue = consume().Kind == TokKind::KwTrue;
      return E;
    }
    case TokKind::KwLexeme: {
      auto E = mk(ExprKind::Lexeme);
      consume();
      return E;
    }
    case TokKind::LParen: {
      consume();
      ExprPtr E = parseExpr();
      expect(TokKind::RParen, "closing the parenthesis");
      return E;
    }
    case TokKind::LBracket: {
      auto E = mk(ExprKind::ListLit);
      consume();
      if (!at(TokKind::RBracket)) {
        do
          E->Children.push_back(parseExpr());
        while (accept(TokKind::Comma));
      }
      expect(TokKind::RBracket, "closing the list literal");
      return E;
    }
    case TokKind::KwIf: {
      auto E = mk(ExprKind::If);
      consume();
      E->Children.push_back(parseExpr());
      expect(TokKind::KwThen, "in conditional");
      E->Children.push_back(parseExpr());
      expect(TokKind::KwElse, "in conditional");
      E->Children.push_back(parseExpr());
      return E;
    }
    case TokKind::KwLet: {
      auto E = mk(ExprKind::Let);
      consume();
      E->Name = expect(TokKind::Ident, "after 'let'").Text;
      expect(TokKind::Equal, "in let binding");
      E->Children.push_back(parseExpr());
      expect(TokKind::KwIn, "in let binding");
      E->Children.push_back(parseExpr());
      return E;
    }
    case TokKind::KwMatch:
      return parseMatch();
    case TokKind::Ident: {
      auto E = mk(ExprKind::Name);
      E->Name = consume().Text;
      if (accept(TokKind::LParen)) {
        E->Kind = ExprKind::Call;
        if (!at(TokKind::RParen)) {
          do
            E->Children.push_back(parseExpr());
          while (accept(TokKind::Comma));
        }
        expect(TokKind::RParen, "closing the call");
      }
      return E;
    }
    default:
      error("expected an expression, found " + tokKindName(peek().Kind));
      consume();
      return mk(ExprKind::IntLit);
    }
  }

  ExprPtr parseMatch() {
    auto E = mk(ExprKind::Match);
    expect(TokKind::KwMatch, "at match start");
    E->Children.push_back(parseExpr());
    expect(TokKind::KwWith, "after the scrutinee");
    while (accept(TokKind::Pipe)) {
      MatchArm Arm;
      Arm.Loc = peek().Loc;
      switch (peek().Kind) {
      case TokKind::IntLit:
        Arm.Kind = MatchArm::PatKind::IntPat;
        Arm.IntValue = consume().IntValue;
        break;
      case TokKind::Minus:
        consume();
        Arm.Kind = MatchArm::PatKind::IntPat;
        Arm.IntValue = -expect(TokKind::IntLit, "after '-'").IntValue;
        break;
      case TokKind::StringLit:
        Arm.Kind = MatchArm::PatKind::StringPat;
        Arm.Text = consume().Text;
        break;
      case TokKind::KwTrue:
      case TokKind::KwFalse:
        Arm.Kind = MatchArm::PatKind::BoolPat;
        Arm.BoolValue = consume().Kind == TokKind::KwTrue;
        break;
      case TokKind::Underscore:
        consume();
        Arm.Kind = MatchArm::PatKind::Wild;
        break;
      case TokKind::Ident:
        Arm.Kind = MatchArm::PatKind::Bind;
        Arm.Text = consume().Text;
        break;
      default:
        error("expected a pattern");
        consume();
        break;
      }
      expect(TokKind::Arrow, "after the pattern");
      Arm.Body = parseExpr();
      E->Arms.push_back(std::move(Arm));
    }
    expect(TokKind::KwEnd, "closing the match");
    if (E->Arms.empty())
      error("match expression has no arms");
    return E;
  }

  std::vector<Token> Tokens;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  Token Missing;
};

} // namespace

CompilationUnit olga::parseUnit(const std::string &Source,
                                DiagnosticEngine &Diags) {
  Parser P(tokenize(Source, Diags), Diags);
  return P.parse();
}
