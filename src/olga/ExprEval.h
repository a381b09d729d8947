//===- olga/ExprEval.h - molga expression interpreter -----------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict interpreter for checked molga expressions. Semantic rules lowered
/// from a grammar evaluate through this (the occurrence arguments arrive in
/// the ArgIndex slots); constant declarations and tests use it directly.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_OLGA_EXPREVAL_H
#define FNC2_OLGA_EXPREVAL_H

#include "olga/Sema.h"

namespace fnc2::olga {

/// Evaluation context: named bindings (parameters, lets, match binds,
/// constants) plus the occurrence argument vector for rule bodies.
struct EvalContext {
  const Program *Prog = nullptr;
  std::span<const Value> OccArgs;
  std::vector<std::pair<std::string, Value>> Bindings;
  /// Recursion fuel; hitting zero reports an error (molga is applicative,
  /// runaway recursion is a specification bug).
  unsigned Fuel = 1u << 20;

  const Value *lookup(const std::string &Name) const {
    for (auto It = Bindings.rbegin(); It != Bindings.rend(); ++It)
      if (It->first == Name)
        return &It->second;
    return nullptr;
  }
};

/// Evaluates \p E under \p Ctx. On a runtime error (which type checking
/// should preclude) reports through \p Diags and returns unit. Running out
/// of fuel, or nesting deeper than a fixed bound (8192 interpreter frames,
/// which keeps a runaway recursion from overflowing the stack before its
/// fuel runs out), stops the whole evaluation with one error: the result
/// is unit and \p Ctx's bindings are as on entry.
Value evalExpr(const Expr &E, EvalContext &Ctx, DiagnosticEngine &Diags);

/// Applies a named builtin to argument values (shared with the constant
/// folder); returns false if the name/arity is not a builtin.
bool applyBuiltin(const std::string &Name, std::span<const Value> Args,
                  Value &Result);

} // namespace fnc2::olga

#endif // FNC2_OLGA_EXPREVAL_H
