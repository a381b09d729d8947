//===- olga/Lower.h - molga to abstract AG lowering -------------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a checked molga grammar to the abstract AG the evaluator
/// generator consumes: phyla, operators, attributes, local attributes and
/// semantic rules whose functions interpret the checked expression ASTs.
/// This is the molga front-end's contribution of the "abstract AG (syntax
/// and local dependencies)" of paper section 3.1.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_OLGA_LOWER_H
#define FNC2_OLGA_LOWER_H

#include "grammar/AttributeGrammar.h"
#include "olga/Sema.h"

namespace fnc2::olga {

/// A lowered grammar: the abstract AG plus the objects its semantic
/// functions close over.
struct LoweredGrammar {
  AttributeGrammar AG;
  /// Keeps the expression ASTs alive for the closures.
  std::shared_ptr<Program> Prog;
  /// Collects runtime errors raised inside semantic functions (division by
  /// zero, non-exhaustive matches, runaway recursion); empty after a clean
  /// evaluation. A call's errors are kept while the log holds fewer than
  /// 64, so it stays bounded however many evaluations fail.
  std::shared_ptr<DiagnosticEngine> RuntimeDiags;
};

/// Lowers every grammar of the checked program. Front-end errors are
/// reported through \p Diags; grammars that fail well-formedness are still
/// returned (with their diagnostics) so callers can inspect them.
std::vector<LoweredGrammar> lowerProgram(std::shared_ptr<Program> Prog,
                                         DiagnosticEngine &Diags);

} // namespace fnc2::olga

#endif // FNC2_OLGA_LOWER_H
