//===- olga/Lexer.cpp -----------------------------------------------------===//

#include "olga/Lexer.h"

#include "value/Value.h"

#include <algorithm>
#include <limits>
#include <utility>

using namespace fnc2;
using namespace fnc2::olga;

// molga is ASCII: classify bytes directly rather than through the locale.
static bool isSpace(char C) {
  return C == ' ' || C == '\n' || C == '\t' || C == '\r' || C == '\v' ||
         C == '\f';
}
static bool isDigit(char C) { return C >= '0' && C <= '9'; }
static bool isAlpha(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
}
static bool isIdentChar(char C) { return isAlpha(C) || isDigit(C) || C == '_'; }

/// Keyword spellings in ascending order, for binary search.
static constexpr std::pair<std::string_view, TokKind> Keywords[] = {
    {"and", TokKind::KwAnd},         {"attr", TokKind::KwAttr},
    {"const", TokKind::KwConst},     {"else", TokKind::KwElse},
    {"end", TokKind::KwEnd},         {"false", TokKind::KwFalse},
    {"for", TokKind::KwFor},         {"fun", TokKind::KwFun},
    {"grammar", TokKind::KwGrammar}, {"if", TokKind::KwIf},
    {"import", TokKind::KwImport},   {"in", TokKind::KwIn},
    {"inh", TokKind::KwInh},         {"let", TokKind::KwLet},
    {"lexeme", TokKind::KwLexeme},   {"local", TokKind::KwLocal},
    {"match", TokKind::KwMatch},     {"module", TokKind::KwModule},
    {"not", TokKind::KwNot},         {"operator", TokKind::KwOperator},
    {"or", TokKind::KwOr},           {"phylum", TokKind::KwPhylum},
    {"root", TokKind::KwRoot},       {"rules", TokKind::KwRules},
    {"syn", TokKind::KwSyn},         {"then", TokKind::KwThen},
    {"true", TokKind::KwTrue},       {"type", TokKind::KwType},
    {"with", TokKind::KwWith},
};
static_assert(std::is_sorted(std::begin(Keywords), std::end(Keywords)));

/// The keyword spelled \p W, or Ident.
static TokKind keywordKind(std::string_view W) {
  auto It = std::lower_bound(
      std::begin(Keywords), std::end(Keywords), W,
      [](const auto &K, std::string_view V) { return K.first < V; });
  return It != std::end(Keywords) && It->first == W ? It->second
                                                     : TokKind::Ident;
}

std::vector<Token> olga::tokenize(std::string_view Source,
                                  DiagnosticEngine &Diags) {
  std::vector<Token> Out;
  size_t Pos = 0;
  unsigned Line = 1, Col = 1;

  auto advance = [&]() {
    if (Pos < Source.size() && Source[Pos] == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    ++Pos;
  };
  auto peek = [&](size_t Ahead = 0) -> char {
    return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
  };
  /// Moves past a run of \p N characters that holds no newline.
  auto skip = [&](size_t N) {
    Pos += N;
    Col += static_cast<unsigned>(N);
  };
  auto emit = [&](TokKind Kind, SourceLoc Loc, std::string_view Text = {},
                  int64_t IntValue = 0) {
    Out.push_back(Token{Kind, Text, IntValue, Loc});
  };

  while (Pos < Source.size()) {
    char C = peek();
    if (isSpace(C)) {
      advance();
      continue;
    }
    // Comments: "--" to end of line.
    if (C == '-' && peek(1) == '-') {
      size_t Nl = Source.find('\n', Pos);
      skip((Nl == std::string_view::npos ? Source.size() : Nl) - Pos);
      continue;
    }
    SourceLoc Loc{Line, Col};
    if (isAlpha(C)) {
      size_t End = Pos + 1;
      while (End < Source.size() && isIdentChar(Source[End]))
        ++End;
      std::string_view Word = Source.substr(Pos, End - Pos);
      emit(keywordKind(Word), Loc, Word);
      skip(Word.size());
      continue;
    }
    if (isDigit(C)) {
      constexpr int64_t Max = std::numeric_limits<int64_t>::max();
      int64_t V = 0;
      bool InRange = true;
      while (isDigit(peek())) {
        int Digit = peek() - '0';
        InRange = InRange && V <= (Max - Digit) / 10;
        if (InRange)
          V = V * 10 + Digit;
        skip(1);
      }
      if (!InRange)
        Diags.error("integer literal out of range", Loc);
      emit(TokKind::IntLit, Loc, {}, V);
      continue;
    }
    if (C == '"') {
      advance();
      size_t Begin = Pos;
      std::string S;
      bool Escaped = false, Closed = false;
      while (Pos < Source.size()) {
        char D = peek();
        if (D == '"') {
          advance();
          Closed = true;
          break;
        }
        if (D == '\\') {
          Escaped = true;
          advance();
          char E = peek();
          S += E == 'n' ? '\n' : E == 't' ? '\t' : E;
          advance();
          continue;
        }
        S += D;
        advance();
      }
      if (!Closed)
        Diags.error("unterminated string literal", Loc);
      // Without escapes the contents are a slice of the source.
      emit(TokKind::StringLit, Loc,
           Escaped ? std::string_view(*internString(S))
                   : Source.substr(Begin, S.size()));
      continue;
    }
    auto two = [&](char Second, TokKind Twice, TokKind Once) {
      advance();
      if (peek() == Second) {
        advance();
        emit(Twice, Loc);
      } else {
        emit(Once, Loc);
      }
    };
    switch (C) {
    case '(': advance(); emit(TokKind::LParen, Loc); break;
    case ')': advance(); emit(TokKind::RParen, Loc); break;
    case '[': advance(); emit(TokKind::LBracket, Loc); break;
    case ']': advance(); emit(TokKind::RBracket, Loc); break;
    case ',': advance(); emit(TokKind::Comma, Loc); break;
    case '.': advance(); emit(TokKind::Dot, Loc); break;
    case '|': advance(); emit(TokKind::Pipe, Loc); break;
    case '+': advance(); emit(TokKind::Plus, Loc); break;
    case '*': advance(); emit(TokKind::Star, Loc); break;
    case '/': advance(); emit(TokKind::Slash, Loc); break;
    case '%': advance(); emit(TokKind::Percent, Loc); break;
    case '^': advance(); emit(TokKind::Caret, Loc); break;
    case '=': advance(); emit(TokKind::Equal, Loc); break;
    case '_': advance(); emit(TokKind::Underscore, Loc); break;
    case ':': two('=', TokKind::Assign, TokKind::Colon); break;
    case '>': two('=', TokKind::GreaterEq, TokKind::Greater); break;
    case '<':
      advance();
      if (peek() == '=') {
        advance();
        emit(TokKind::LessEq, Loc);
      } else if (peek() == '>') {
        advance();
        emit(TokKind::NotEqual, Loc);
      } else {
        emit(TokKind::Less, Loc);
      }
      break;
    case '-':
      advance();
      if (peek() == '>') {
        advance();
        emit(TokKind::Arrow, Loc);
      } else {
        emit(TokKind::Minus, Loc);
      }
      break;
    default:
      Diags.error(std::string("unexpected character '") + C + "'", Loc);
      advance();
      break;
    }
  }
  Out.push_back(Token{TokKind::Eof, {}, 0, SourceLoc{Line, Col}});
  return Out;
}

std::string olga::tokKindName(TokKind Kind) {
  switch (Kind) {
  case TokKind::Eof: return "end of input";
  case TokKind::Ident: return "identifier";
  case TokKind::IntLit: return "integer literal";
  case TokKind::StringLit: return "string literal";
  case TokKind::KwModule: return "'module'";
  case TokKind::KwEnd: return "'end'";
  case TokKind::KwImport: return "'import'";
  case TokKind::KwType: return "'type'";
  case TokKind::KwFun: return "'fun'";
  case TokKind::KwConst: return "'const'";
  case TokKind::KwGrammar: return "'grammar'";
  case TokKind::KwPhylum: return "'phylum'";
  case TokKind::KwRoot: return "'root'";
  case TokKind::KwAttr: return "'attr'";
  case TokKind::KwInh: return "'inh'";
  case TokKind::KwSyn: return "'syn'";
  case TokKind::KwOperator: return "'operator'";
  case TokKind::KwLexeme: return "'lexeme'";
  case TokKind::KwRules: return "'rules'";
  case TokKind::KwFor: return "'for'";
  case TokKind::KwLocal: return "'local'";
  case TokKind::KwIf: return "'if'";
  case TokKind::KwThen: return "'then'";
  case TokKind::KwElse: return "'else'";
  case TokKind::KwLet: return "'let'";
  case TokKind::KwIn: return "'in'";
  case TokKind::KwMatch: return "'match'";
  case TokKind::KwWith: return "'with'";
  case TokKind::KwTrue: return "'true'";
  case TokKind::KwFalse: return "'false'";
  case TokKind::KwAnd: return "'and'";
  case TokKind::KwOr: return "'or'";
  case TokKind::KwNot: return "'not'";
  case TokKind::LParen: return "'('";
  case TokKind::RParen: return "')'";
  case TokKind::LBracket: return "'['";
  case TokKind::RBracket: return "']'";
  case TokKind::Comma: return "','";
  case TokKind::Colon: return "':'";
  case TokKind::Dot: return "'.'";
  case TokKind::Pipe: return "'|'";
  case TokKind::Arrow: return "'->'";
  case TokKind::Assign: return "':='";
  case TokKind::Plus: return "'+'";
  case TokKind::Minus: return "'-'";
  case TokKind::Star: return "'*'";
  case TokKind::Slash: return "'/'";
  case TokKind::Percent: return "'%'";
  case TokKind::Caret: return "'^'";
  case TokKind::Equal: return "'='";
  case TokKind::NotEqual: return "'<>'";
  case TokKind::Less: return "'<'";
  case TokKind::LessEq: return "'<='";
  case TokKind::Greater: return "'>'";
  case TokKind::GreaterEq: return "'>='";
  case TokKind::Underscore: return "'_'";
  }
  return "?";
}
