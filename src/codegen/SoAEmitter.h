//===- codegen/SoAEmitter.h - CompiledPlan -> cohort C++ --------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cohort (SoA) target of the native code generator: the second emitter
/// driven by codegen/PlanWalker, producing the `fnc2_native_soa_run` entry
/// point that evaluates a whole cohort of same-shape trees per call. Where
/// CppEmitter specializes one tree position per call, this emitter
/// specializes one *lane loop* per instruction: every semantic rule of a
/// (production, visit) body becomes a tight member loop over the
/// member-contiguous attribute lanes of eval/MergedBatchSession's
/// SoAFrameArena (slot S of a position lives at Lane0 + S * NumMembers),
/// with restrict-qualified lane pointers resolved once per rule and no
/// per-member dispatch of any kind. The four lowering tiers match the
/// scalar emitter: constant-table broadcasts, lane-to-lane copy loops,
/// inlined NativeExpr / FnInliner bodies, and gather+call loops through a
/// hoisted function pointer.
///
/// Emitted names are soa_-prefixed and the translation unit re-exports
/// nothing but the cohort entry point, so NativeBackend can concatenate it
/// with the scalar TU and compile both into one shared object (they share
/// the anonymous namespace; the NativeABI.h include guard deduplicates).
///
/// Output is deterministic, pinned by the golden emitted-source test, and
/// versioned by codegen/CppEmitter's kEmitterVersion (one key covers both
/// targets because they ship in one object).
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_CODEGEN_SOAEMITTER_H
#define FNC2_CODEGEN_SOAEMITTER_H

#include "codegen/CppEmitter.h"

namespace fnc2 {

/// Emits the cohort (SoA) translation unit for \p Walker's plan. \p AG must
/// be the plan's grammar. The result's counters classify rule sites exactly
/// like emitNativeCpp's.
CppEmitResult emitSoaCpp(const AttributeGrammar &AG, const PlanWalker &Walker);

} // namespace fnc2

#endif // FNC2_CODEGEN_SOAEMITTER_H
