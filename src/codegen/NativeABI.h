//===- codegen/NativeABI.h - Host / emitted-code contract -------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract between the host process and a natively compiled evaluator
/// (a shared object emitted by codegen/CppEmitter, compiled by
/// codegen/NativeBackend and dlopen()ed back in). Both sides include this
/// header — the emitted translation unit literally `#include`s it, which is
/// why it pulls the real tree and value types rather than mirroring their
/// layout: Value is non-trivial (shared_ptr representation), so the only
/// safe ABI is the one the host compiler defines for the real classes.
/// Undefined references of the emitted object (Value methods, the frame
/// allocator, the interning pool) resolve against the host executable at
/// dlopen time (CMAKE_ENABLE_EXPORTS).
///
/// Entry points of an emitted object:
///   * `fnc2_native_info`  — a PlanInfo the host validates before running
///     anything: ABI version, plan fingerprint, pool sizes and sizeof
///     checks. A stale or foreign object is rejected, never executed.
///   * `fnc2_native_const_pool` — pool indices of the zero-argument rules,
///     in emission order; the host pre-evaluates each one once at bind time
///     into RunCtx::Consts (sound because semantic functions are pure).
///   * `fnc2_native_run`   — evaluates one rooted tree; the host has
///     already ensured the root frame and installed the root-inherited
///     values.
///   * `fnc2_native_soa_run` — evaluates one same-shape cohort over SoA
///     attribute lanes (see SoaPos/SoaRunCtx below); the host has already
///     prefilled lexeme pseudo-slots and the root-inherited lanes. Unlike the interpreted engines there is no resetAttributes
///     pre-pass: the emitted code is unconditional, overwriting every slot
///     the exhaustive plan defines before reading it and re-setting every
///     computed bit, and it never consults ComputedBits or SeqCache.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_CODEGEN_NATIVEABI_H
#define FNC2_CODEGEN_NATIVEABI_H

#include "tree/Tree.h"

#include <algorithm>
#include <string>

namespace fnc2::native {

/// Bumped whenever the emitted-code contract changes (RunCtx layout, entry
/// point signatures, helper semantics). Part of the native artifact key, so
/// old shared objects are recompiled, not misread.
/// v2: every object additionally exports fnc2_native_soa_run, the cohort
/// (SoA) entry point, and PlanInfo grew SizeofSoaPos.
inline constexpr uint32_t kAbiVersion = 2;

/// Why an emitted function bailed out.
enum class FailKind : uint8_t {
  None = 0,
  /// No visit sequence for (FailNode->Prod, FailNode->PartitionId).
  NoSequence = 1,
};

/// Per-evaluation state the host hands to fnc2_native_run. The tables are
/// bound once per module from the live CompiledPlan; the counters replicate
/// EvalStats (same counting rules as the interpreted engines, asserted
/// equal by the differential suites).
struct RunCtx {
  /// Reusable argument buffer (MaxRuleArgs Values) for rules that call
  /// through a semantic-function pointer.
  Value *Args = nullptr;
  /// Rule-pool-indexed semantic function pointers.
  const SemanticFn *const *Fns = nullptr;
  /// Pre-evaluated values of the zero-argument rules, indexed as in
  /// fnc2_native_const_pool.
  const Value *Consts = nullptr;

  uint64_t RulesEvaluated = 0;
  uint64_t VisitsPerformed = 0;
  uint64_t InstructionsExecuted = 0;

  /// Failure report (valid when fnc2_native_run returned false).
  TreeNode *FailNode = nullptr;
  FailKind Fail = FailKind::None;
};

/// The validation block every emitted object exports.
struct PlanInfo {
  uint32_t AbiVersion = 0;
  uint32_t NumProds = 0;
  uint32_t MaxPartition = 0;
  uint32_t NumFns = 0;    ///< Size of the rule pool the object indexes.
  uint32_t NumConsts = 0; ///< Entries in fnc2_native_const_pool.
  uint32_t MaxRuleArgs = 0;
  uint32_t SizeofValue = 0;    ///< sizeof(Value) the object was built with.
  uint32_t SizeofTreeNode = 0; ///< sizeof(TreeNode) likewise.
  uint32_t SizeofSoaPos = 0;   ///< sizeof(SoaPos) likewise (cohort entry).
  uint64_t PlanFingerprint = 0;
};

using RunFn = bool (*)(TreeNode *Root, RunCtx *Ctx);

//===----------------------------------------------------------------------===//
// Cohort (SoA) entry point
//===----------------------------------------------------------------------===//
//
// The second entry point, emitted by codegen/SoAEmitter: one call runs a
// whole cohort of same-shape trees, every instruction executed as a member
// loop over the contiguous attribute lanes of eval/MergedBatchSession's
// SoAFrameArena. The host builds one SoaPos per tree position (level
// order, matching the cohort shape) and hands lane bases; slot S of
// position P lives at P.Lane0 + S * Ctx->NumMembers, member-contiguous.

/// One tree position of a cohort, the SoA analogue of a TreeNode: lane
/// base, first-son pointer (positions are level-order contiguous, so the
/// sons of a position are a consecutive SoaPos range), and the position's
/// computed-bit words (per position, not per member — every member of a
/// cohort computes the same slots).
struct SoaPos {
  Value *Lane0 = nullptr;      ///< Null when the position has no slots.
  const SoaPos *Sons = nullptr; ///< First son; son K is Sons[K].
  uint64_t *Mask = nullptr;     ///< Computed-bit words of this position.
  uint32_t Prod = 0;            ///< Production, indexes dispatch tables.
  uint32_t Index = 0;           ///< Position index (PartitionAt/Touched).
};

/// Per-cohort-run state for fnc2_native_soa_run; the counters follow the
/// interpreted merged engine's counting rules (each instruction counts
/// once per member).
struct SoaRunCtx {
  /// Reusable argument buffer (MaxRuleArgs Values) for call-path rules.
  Value *Args = nullptr;
  /// Rule-pool-indexed semantic function pointers.
  const SemanticFn *const *Fns = nullptr;
  /// Pre-evaluated zero-argument rule values, as in RunCtx.
  const Value *Consts = nullptr;
  /// Position-indexed scatter-back metadata the host owns: the partition a
  /// position was visited under, and whether it was touched at all.
  uint32_t *PartitionAt = nullptr;
  uint8_t *Touched = nullptr;
  uint32_t NumMembers = 0;

  uint64_t RulesEvaluated = 0;
  uint64_t VisitsPerformed = 0;
  uint64_t InstructionsExecuted = 0;

  /// Failure report (valid when fnc2_native_soa_run returned false).
  const SoaPos *FailPos = nullptr;
  FailKind Fail = FailKind::None;
};

using SoaRunFn = bool (*)(const SoaPos *Root, SoaRunCtx *Ctx);

/// Names of the exported symbols (shared by emitter and binder).
inline constexpr const char *kInfoSymbol = "fnc2_native_info";
inline constexpr const char *kConstPoolSymbol = "fnc2_native_const_pool";
inline constexpr const char *kRunSymbol = "fnc2_native_run";
inline constexpr const char *kSoaRunSymbol = "fnc2_native_soa_run";

/// Store helper the emitted code uses for every attribute write: the slot
/// assignment plus its computed bit, the same state transition
/// eval/Evaluator performs.
inline void setSlot(TreeNode *N, uint32_t S, Value V) {
  N->Slots[S] = std::move(V);
  N->ComputedBits[S >> 6] |= uint64_t(1) << (S & 63);
}

} // namespace fnc2::native

#endif // FNC2_CODEGEN_NATIVEABI_H
