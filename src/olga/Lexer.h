//===- olga/Lexer.h - molga tokenizer ---------------------------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for molga, our OLGA-style AG-description language (paper
/// section 2.4): strongly typed, purely applicative, block-structured, with
/// declaration/definition modules and grammars as compilation units.
/// Comments run from "--" to end of line.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_OLGA_LEXER_H
#define FNC2_OLGA_LEXER_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fnc2::olga {

enum class TokKind : uint8_t {
  Eof,
  Ident,
  IntLit,
  StringLit,
  // Keywords.
  KwModule,
  KwEnd,
  KwImport,
  KwType,
  KwFun,
  KwConst,
  KwGrammar,
  KwPhylum,
  KwRoot,
  KwAttr,
  KwInh,
  KwSyn,
  KwOperator,
  KwLexeme,
  KwRules,
  KwFor,
  KwLocal,
  KwIf,
  KwThen,
  KwElse,
  KwLet,
  KwIn,
  KwMatch,
  KwWith,
  KwTrue,
  KwFalse,
  KwAnd,
  KwOr,
  KwNot,
  // Punctuation / operators.
  LParen,
  RParen,
  LBracket,
  RBracket,
  Comma,
  Colon,
  Dot,
  Pipe,
  Arrow,     // ->
  Assign,    // :=
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Caret,     // string concatenation
  Equal,
  NotEqual,  // <>
  Less,
  LessEq,
  Greater,
  GreaterEq,
  Underscore,
};

struct Token {
  TokKind Kind = TokKind::Eof;
  /// Identifier or keyword spelling, or string-literal contents with
  /// escapes resolved. A slice of the source, except for a literal with
  /// escapes, whose text is interned (see internString).
  std::string_view Text;
  int64_t IntValue = 0;
  SourceLoc Loc;
};

/// Tokenizes \p Source; lexical errors are reported through \p Diags and
/// yield an Eof-terminated partial stream. The tokens view \p Source,
/// which must outlive them.
std::vector<Token> tokenize(std::string_view Source, DiagnosticEngine &Diags);

/// Token spelling for diagnostics.
std::string tokKindName(TokKind Kind);

} // namespace fnc2::olga

#endif // FNC2_OLGA_LEXER_H
