//===- tests/FamilyCheck.h - shared evaluator-family checkers ---*- C++ -*-===//
//
// The cross-engine differential machinery shared by DifferentialTest (fresh
// generations), ArtifactCacheTest (loaded generations) and
// MergedBatchTest: clone helpers, the structural attribution comparator, and
// runFamily(), which drives a *registry* of engines over generated trees and
// cross-checks every one against the sequential exhaustive evaluator.
//
// The registry (engineFamily()) is the single place an engine is listed:
// each entry names the engine and supplies a runner over the shared
// EngineContext (sources, reference attributions, reference stats, pool).
// Adding an engine to every differential/fuzz/oracle suite that calls
// runFamily() is one registration line here.
//
//===----------------------------------------------------------------------===//

#ifndef FNC2_TESTS_FAMILYCHECK_H
#define FNC2_TESTS_FAMILYCHECK_H

#include "codegen/NativeEvaluator.h"
#include "codegen/NativeMergedEvaluator.h"
#include "eval/BatchEvaluator.h"
#include "eval/DemandEvaluator.h"
#include "eval/Evaluator.h"
#include "eval/MergedBatchEvaluator.h"
#include "fnc2/ArtifactCache.h"
#include "fnc2/Generator.h"
#include "storage/BatchStorageEvaluator.h"
#include "storage/StorageEvaluator.h"
#include "tree/TreeGen.h"

#include <gtest/gtest.h>

namespace fnc2::testutil {

/// Clones \p T into a fresh tree with pristine attribute state.
inline Tree cloneTree(const AttributeGrammar &AG, const Tree &T) {
  Tree C(AG);
  C.setRoot(T.clone(T.root()));
  return C;
}

/// Applies a fixed value for every inherited attribute of the start phylum
/// through \p Set, so grammars whose roots demand context still evaluate.
template <typename EvalT>
void provideRootInherited(const AttributeGrammar &AG, EvalT &E) {
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      E.setRootInherited(A, Value::ofInt(7));
}

/// Asserts both trees carry identical attribute instances: same computed
/// masks, structurally equal values; locals compare when both sides did
/// compute them (the variants differ in whether locals survive).
inline void expectSameAttribution(const AttributeGrammar &AG,
                                  const TreeNode *Ref, const TreeNode *Got,
                                  const std::string &Tag) {
  ASSERT_EQ(Ref->Prod, Got->Prod) << Tag;
  ASSERT_EQ(Ref->FrameAttrs, Got->FrameAttrs)
      << Tag << ": attribute slot count at " << AG.prod(Ref->Prod).Name;
  for (unsigned I = 0; I != Ref->FrameAttrs; ++I) {
    EXPECT_EQ(Ref->attrComputed(I), Got->attrComputed(I))
        << Tag << ": computed mask " << I << " at " << AG.prod(Ref->Prod).Name;
    if (Ref->attrComputed(I) && Got->attrComputed(I)) {
      EXPECT_TRUE(Ref->attrVal(I).equals(Got->attrVal(I)))
          << Tag << ": attribute " << I << " at " << AG.prod(Ref->Prod).Name
          << ": " << Ref->attrVal(I).str() << " vs " << Got->attrVal(I).str();
    }
  }
  unsigned Locals = std::min(Ref->FrameLocals, Got->FrameLocals);
  for (unsigned I = 0; I != Locals; ++I)
    if (Ref->localComputed(I) && Got->localComputed(I)) {
      EXPECT_TRUE(Ref->localVal(I).equals(Got->localVal(I)))
          << Tag << ": local " << I << " at " << AG.prod(Ref->Prod).Name;
    }
  ASSERT_EQ(Ref->arity(), Got->arity()) << Tag;
  for (unsigned I = 0; I != Ref->arity(); ++I)
    expectSameAttribution(AG, Ref->child(I), Got->child(I), Tag);
}

/// Everything an engine runner needs: the compiled bundle of the
/// generation under test, which every engine borrows, the source trees, the
/// sequential exhaustive reference attribution with its per-tree and summed
/// stats, and a shared pool for the batch engines.
struct EngineContext {
  const AttributeGrammar &AG;
  const CompiledArtifact &A;
  const std::vector<Tree> &Sources;
  const std::vector<Tree> &Reference;
  const std::vector<EvalStats> &RefStats;
  const EvalStats &SeqTotal;
  ThreadPool &Pool;

  unsigned numTrees() const {
    return static_cast<unsigned>(Sources.size());
  }
};

/// One registered engine of the family.
struct EngineSpec {
  const char *Name;
  void (*Run)(const EngineContext &);
};

namespace familydetail {

// Demand-driven evaluation agrees, and — computing each needed instance
// exactly once while skipping unneeded locals — never runs more rules than
// the exhaustive evaluator.
inline void runDemand(const EngineContext &C) {
  for (unsigned I = 0; I != C.numTrees(); ++I) {
    Tree T = cloneTree(C.AG, C.Sources[I]);
    DemandEvaluator DE(C.AG);
    provideRootInherited(C.AG, DE);
    DiagnosticEngine D;
    ASSERT_TRUE(DE.evaluateAll(T, D)) << C.AG.Name << ": " << D.dump();
    expectSameAttribution(C.AG, C.Reference[I].root(), T.root(),
                          C.AG.Name + "/demand");
    EXPECT_LE(DE.stats().RulesEvaluated, C.RefStats[I].RulesEvaluated)
        << C.AG.Name << "/demand tree " << I;
  }
}

// Storage-optimized evaluation agrees (mirroring writes into the tree).
inline void runStorage(const EngineContext &C) {
  for (unsigned I = 0; I != C.numTrees(); ++I) {
    Tree T = cloneTree(C.AG, C.Sources[I]);
    StorageEvaluator SE(C.A.CP, C.A.CS);
    SE.setMirrorToTree(true);
    provideRootInherited(C.AG, SE);
    DiagnosticEngine D;
    ASSERT_TRUE(SE.evaluate(T, D)) << C.AG.Name << ": " << D.dump();
    expectSameAttribution(C.AG, C.Reference[I].root(), T.root(),
                          C.AG.Name + "/storage");
    EXPECT_EQ(SE.stats().RulesEvaluated, C.RefStats[I].RulesEvaluated)
        << C.AG.Name << "/storage tree " << I
        << ": same plan, same tree, same rule executions";
  }
}

// The batch engine matches the sequential evaluator on every tree, and the
// worker stats merged on join equal the sequential totals: same trees, same
// plan, no work lost or double-counted across workers.
inline void runBatch(const EngineContext &C) {
  std::vector<Tree> Batch;
  for (const Tree &T : C.Sources)
    Batch.push_back(cloneTree(C.AG, T));
  BatchEvaluator BE(C.A.CP, C.Pool);
  provideRootInherited(C.AG, BE);
  BatchResult R = BE.evaluate(Batch);
  ASSERT_TRUE(R.allSucceeded())
      << C.AG.Name << ": " << R.Outcomes[0].Diags.dump();
  for (unsigned I = 0; I != C.numTrees(); ++I)
    expectSameAttribution(C.AG, C.Reference[I].root(), Batch[I].root(),
                          C.AG.Name + "/batch");
  EXPECT_EQ(R.Stats.RulesEvaluated, C.SeqTotal.RulesEvaluated) << C.AG.Name;
  EXPECT_EQ(R.Stats.VisitsPerformed, C.SeqTotal.VisitsPerformed) << C.AG.Name;
  EXPECT_EQ(R.Stats.InstructionsExecuted, C.SeqTotal.InstructionsExecuted)
      << C.AG.Name;
}

// ... and so does the batched storage evaluator.
inline void runBatchStorage(const EngineContext &C) {
  std::vector<Tree> Batch;
  for (const Tree &T : C.Sources)
    Batch.push_back(cloneTree(C.AG, T));
  BatchStorageEvaluator BSE(C.A.CP, C.A.CS, C.Pool);
  BSE.setMirrorToTree(true);
  provideRootInherited(C.AG, BSE);
  BatchStorageResult R = BSE.evaluate(Batch);
  ASSERT_TRUE(R.allSucceeded())
      << C.AG.Name << ": " << R.Outcomes[0].Diags.dump();
  for (unsigned I = 0; I != C.numTrees(); ++I)
    expectSameAttribution(C.AG, C.Reference[I].root(), Batch[I].root(),
                          C.AG.Name + "/batch-storage");
}

// The shape-merged SoA engine: every source is cloned twice, interleaved,
// so each shape forms a cohort of (at least) two; threshold 1 forces the
// merged path for every tree. Attributions must be bit-identical to the
// reference and the merged stats must fold to exactly twice the sequential
// totals — the cohort-level counters account for every member.
inline void runMergedBatch(const EngineContext &C) {
  std::vector<Tree> Batch;
  for (const Tree &T : C.Sources) {
    Batch.push_back(cloneTree(C.AG, T));
    Batch.push_back(cloneTree(C.AG, T));
  }
  MergedBatchEvaluator ME(C.A.CP, C.Pool);
  ME.setCohortThreshold(1);
  provideRootInherited(C.AG, ME);
  BatchResult R = ME.evaluate(Batch);
  ASSERT_TRUE(R.allSucceeded())
      << C.AG.Name << ": " << R.Outcomes[0].Diags.dump();
  for (unsigned I = 0; I != C.numTrees(); ++I) {
    expectSameAttribution(C.AG, C.Reference[I].root(), Batch[2 * I].root(),
                          C.AG.Name + "/merged");
    expectSameAttribution(C.AG, C.Reference[I].root(), Batch[2 * I + 1].root(),
                          C.AG.Name + "/merged-dup");
  }
  const MergedStats &MS = ME.mergedStats();
  EXPECT_EQ(MS.TreesFallback, 0u) << C.AG.Name << ": threshold 1 merges all";
  EXPECT_EQ(MS.TreesMerged, Batch.size()) << C.AG.Name;
  EXPECT_EQ(MS.RulesEvaluated, 2 * C.SeqTotal.RulesEvaluated) << C.AG.Name;
  EXPECT_EQ(MS.VisitsPerformed, 2 * C.SeqTotal.VisitsPerformed) << C.AG.Name;
  EXPECT_EQ(MS.InstructionsExecuted, 2 * C.SeqTotal.InstructionsExecuted)
      << C.AG.Name;
  EXPECT_EQ(R.Stats.RulesEvaluated, MS.RulesEvaluated)
      << C.AG.Name << ": BatchResult mirrors the merged fold";
}

// The native backend: the plan specialized to branch-free C++, compiled by
// the host toolchain, dlopen()ed and driven through NativeEvaluator. Skips
// cleanly when the machine has no C++ compiler or the grammar cannot be
// lowered (rules without semantic functions); a genuine emit/compile/load
// failure is a test failure, never a skip. Attribution AND all three
// EvalStats counters must be bit-identical to the reference — the emitted
// constant increments replicate the interpreted counting exactly. Compiled
// objects persist in NativeBackend::shared()'s per-user cache directory, so
// repeated test binaries bind without re-invoking the compiler.
inline void runNative(const EngineContext &C) {
  if (!NativeBackend::available())
    return;
  NativeBuildResult B = NativeBackend::shared().build(C.AG, C.A.CP);
  if (B.Unavailable)
    return;
  ASSERT_TRUE(B.Module) << C.AG.Name << "/native: " << B.Reason;
  for (unsigned I = 0; I != C.numTrees(); ++I) {
    Tree T = cloneTree(C.AG, C.Sources[I]);
    NativeEvaluator NE(C.A.CP, B.Module);
    provideRootInherited(C.AG, NE);
    DiagnosticEngine D;
    ASSERT_TRUE(NE.evaluate(T, D)) << C.AG.Name << ": " << D.dump();
    expectSameAttribution(C.AG, C.Reference[I].root(), T.root(),
                          C.AG.Name + "/native");
    EXPECT_EQ(NE.stats().RulesEvaluated, C.RefStats[I].RulesEvaluated)
        << C.AG.Name << "/native tree " << I;
    EXPECT_EQ(NE.stats().VisitsPerformed, C.RefStats[I].VisitsPerformed)
        << C.AG.Name << "/native tree " << I;
    EXPECT_EQ(NE.stats().InstructionsExecuted,
              C.RefStats[I].InstructionsExecuted)
        << C.AG.Name << "/native tree " << I;
  }
}

// The native-merged engine: cohort formation and scatter-back from the
// merged engine, the visit loop from the compiled SoA kernels. Same
// duplicate-clone setup as runMergedBatch (threshold 1 forces every tree
// through a kernel shard) and the same bit-identical attribution and
// doubled-counter folds; skips exactly like runNative when the backend is
// unavailable.
inline void runNativeMerged(const EngineContext &C) {
  if (!NativeBackend::available())
    return;
  NativeBuildResult B = NativeBackend::shared().build(C.AG, C.A.CP);
  if (B.Unavailable)
    return;
  ASSERT_TRUE(B.Module) << C.AG.Name << "/native-merged: " << B.Reason;
  std::vector<Tree> Batch;
  for (const Tree &T : C.Sources) {
    Batch.push_back(cloneTree(C.AG, T));
    Batch.push_back(cloneTree(C.AG, T));
  }
  NativeCohortKernel K(C.A.CP, B.Module);
  MergedBatchEvaluator NM(C.A.CP, C.Pool);
  NM.setKernel(&K);
  NM.setCohortThreshold(1);
  provideRootInherited(C.AG, NM);
  BatchResult R = NM.evaluate(Batch);
  ASSERT_TRUE(R.allSucceeded())
      << C.AG.Name << ": " << R.Outcomes[0].Diags.dump();
  for (unsigned I = 0; I != C.numTrees(); ++I) {
    expectSameAttribution(C.AG, C.Reference[I].root(), Batch[2 * I].root(),
                          C.AG.Name + "/native-merged");
    expectSameAttribution(C.AG, C.Reference[I].root(), Batch[2 * I + 1].root(),
                          C.AG.Name + "/native-merged-dup");
  }
  const MergedStats &MS = NM.mergedStats();
  EXPECT_EQ(MS.TreesFallback, 0u) << C.AG.Name << ": threshold 1 merges all";
  EXPECT_EQ(MS.TreesMerged, Batch.size()) << C.AG.Name;
  EXPECT_EQ(MS.RulesEvaluated, 2 * C.SeqTotal.RulesEvaluated) << C.AG.Name;
  EXPECT_EQ(MS.VisitsPerformed, 2 * C.SeqTotal.VisitsPerformed) << C.AG.Name;
  EXPECT_EQ(MS.InstructionsExecuted, 2 * C.SeqTotal.InstructionsExecuted)
      << C.AG.Name;
}

} // namespace familydetail

/// The engine registry. Order matters only for readability; every entry
/// must attribute identically to the sequential exhaustive reference.
inline std::span<const EngineSpec> engineFamily() {
  static constexpr EngineSpec Family[] = {
      {"demand", familydetail::runDemand},
      {"storage", familydetail::runStorage},
      {"batch", familydetail::runBatch},
      {"batch-storage", familydetail::runBatchStorage},
      {"merged-batch", familydetail::runMergedBatch},
      {"native", familydetail::runNative},
      {"native-merged", familydetail::runNativeMerged},
  };
  return Family;
}

/// Runs the whole registered family over \p NumTrees generated trees of
/// \p AG and cross-checks every engine against the sequential exhaustive
/// evaluator. Every engine, the reference included, borrows GE.Compiled:
/// none compiles a plan of its own.
inline void runFamily(const AttributeGrammar &AG, const GeneratedEvaluator &GE,
                      unsigned NumTrees, unsigned TreeSize, uint64_t Seed) {
  ASSERT_TRUE(GE.Success) << AG.Name;
  ASSERT_TRUE(GE.Compiled) << AG.Name << ": no compiled bundle";
  const CompiledArtifact &A = *GE.Compiled;
  TreeGenerator Gen(AG, Seed);

  std::vector<Tree> Sources;
  for (unsigned I = 0; I != NumTrees; ++I)
    Sources.push_back(Gen.generate(TreeSize + 31 * I));

  // Reference: the sequential exhaustive evaluator. SeqTotal accumulates
  // the whole family's per-tree counters for the merge checks.
  std::vector<Tree> Reference;
  std::vector<EvalStats> RefStats;
  EvalStats SeqTotal;
  for (const Tree &T : Sources) {
    Tree R = cloneTree(AG, T);
    Evaluator E(A.CP);
    provideRootInherited(AG, E);
    DiagnosticEngine D;
    ASSERT_TRUE(E.evaluate(R, D)) << AG.Name << ": " << D.dump();
    SeqTotal.merge(E.stats());
    RefStats.push_back(E.stats());
    Reference.push_back(std::move(R));
  }

  ThreadPool Pool(4);
  EngineContext Ctx{AG, A, Sources, Reference, RefStats, SeqTotal, Pool};
  for (const EngineSpec &Spec : engineFamily()) {
    SCOPED_TRACE(std::string(AG.Name) + "/" + Spec.Name);
    Spec.Run(Ctx);
  }
}

} // namespace fnc2::testutil

#endif // FNC2_TESTS_FAMILYCHECK_H
