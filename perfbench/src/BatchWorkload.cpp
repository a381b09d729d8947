//===- perfbench/src/BatchWorkload.cpp - Every batch engine on a corpus ---===//
//
// Warm grammars and a pinned, seeded corpus in two parts:
//
//   small  16384 desk trees of 3-7 nodes (the parser-output profile),
//          cloned from a fixed pool of 128 shapes, with seeded leaves;
//   mixed  a few thousand larger trees of mixed shapes, MiniPascal
//          programs and SpecGen trees, almost all shape-unique, so the
//          merged engine takes its per-tree fallback.
//
// Each round first changes a seeded tenth of the small trees' leaves (the
// corpus alternates between two leaf variants), then evaluates:
//
//   cold  BatchEvaluator on the small part, a one-shot
//         MergedBatchEvaluator on the small part and on the mixed part;
//   warm  a resident MergedBatchSession over the small part, interpreted
//         and with the native SoA kernels, after each of four leaf
//         changes (the first is the round's).
//
// All engines share one ThreadPool of two threads (the caller and one
// worker; one on a single-core host), which leaves half of a shared 4-vCPU
// host to everything else; run-to-run spreads with nproc threads were no
// better. The native module is compiled once in set-up with the host
// compiler; a missing compiler is an error, not a skip.
//
// Oracle: every engine's root values equal the demand-driven evaluator's,
// computed once in set-up for both leaf variants.
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"
#include "Workloads.h"

#include "codegen/CppEmitter.h"
#include "codegen/NativeBackend.h"
#include "codegen/NativeMergedEvaluator.h"
#include "codegen/SoAEmitter.h"
#include "eval/BatchEvaluator.h"
#include "eval/MergedBatchSession.h"
#include "fnc2/ArtifactCache.h"
#include "olga/Driver.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/MiniPascal.h"
#include "workloads/SpecGen.h"

#include <optional>
#include <thread>

using namespace fnc2;

namespace perfbench {
namespace {

/// A generated grammar with its engines' shared inputs.
struct Grammar {
  std::optional<olga::CompileResult> Compiled;
  std::optional<AttributeGrammar> Built;
  const AttributeGrammar *AG = nullptr;
  GeneratedEvaluator GE;
  std::unique_ptr<CompiledPlan> CP;
};

void generate(Grammar &G, const char *Name) {
  DiagnosticEngine D;
  G.GE = generateEvaluator(*G.AG, D);
  if (!G.GE.Success)
    fatal(std::string(Name) + ": generation failed:\n" + D.dump());
  G.CP = std::make_unique<CompiledPlan>(G.GE.Plan);
}

/// One leaf whose lexeme differs between the two variants.
struct LeafChange {
  TreeNode *Node;
  Value V[2];
};

struct BatchInputs {
  Grammar Desk, Pascal, Spec;
  std::vector<Tree> Small;
  std::vector<Tree> PascalTrees, SpecTrees;
  std::vector<LeafChange> Changes;
};

/// Leaf changes the resident session follows per round. One session pass
/// takes about 2 ms, too short to time steadily on its own.
constexpr unsigned SessionEdits = 4;

/// Builds the corpus (and grammars) for a seed; engine-independent.
void makeInputs(const Options &O, BatchInputs &In) {
  DiagnosticEngine D;
  In.Desk.Built.emplace(workloads::deskCalculator(D));
  In.Desk.AG = &*In.Desk.Built;
  In.Pascal.Built.emplace(workloads::miniPascal(D));
  In.Pascal.AG = &*In.Pascal.Built;
  workloads::SpecGenOptions SO;
  SO.Name = "Mix";
  SO.Phyla = 16;
  SO.OperatorsPerPhylum = 4;
  SO.AttrPairs = 3;
  SO.Seed = 7;
  In.Spec.Compiled.emplace(olga::compileMolga(workloads::generateMolgaSpec(SO), D));
  if (!In.Spec.Compiled->Success || D.hasErrors())
    fatal("batch grammars failed:\n" + D.dump());
  In.Spec.AG = &In.Spec.Compiled->Grammars.front().AG;

  // The shape pool is fixed, like the SpecGen grammars, and every shape
  // gets the same number of trees, a tenth of which change: so that every
  // seed costs about the same (seeded pools differed in cohort count and
  // changed leaves, and the session's time with them). The seed draws the
  // order of the trees, their leaves and which of them change.
  const AttributeGrammar &Desk = *In.Desk.AG;
  Rng R(subSeed(O.Seed, 4));
  TreeGenerator Gen(Desk, 7);
  std::vector<Tree> Shapes;
  for (unsigned K = 0; K != 128; ++K)
    Shapes.push_back(Gen.generate(3 + (K % 5)));
  const unsigned N = O.Smoke ? 4000 : 16384;
  std::vector<unsigned> ShapeOf(N);
  for (unsigned I = 0; I != N; ++I)
    ShapeOf[I] = I % Shapes.size();
  for (unsigned I = N; I > 1; --I)
    std::swap(ShapeOf[I - 1], ShapeOf[R.below(I)]);
  std::vector<unsigned> SeenOfShape(Shapes.size());
  In.Small.reserve(N);
  std::vector<TreeNode *> Stack;
  for (unsigned I = 0; I != N; ++I) {
    const Tree &S = Shapes[ShapeOf[I]];
    Tree C(Desk);
    C.setRoot(S.clone(S.root()));
    // Seeded integer leaves; every tenth tree of a shape gets a second
    // variant.
    const bool Changes = SeenOfShape[ShapeOf[I]]++ % 10 == 0;
    Stack.assign(1, C.root());
    while (!Stack.empty()) {
      TreeNode *Node = Stack.back();
      Stack.pop_back();
      if (Node->Lexeme.isInt()) {
        Node->Lexeme = Value::ofInt(int64_t(R.below(1000)));
        if (Changes)
          In.Changes.push_back(
              {Node, {Node->Lexeme, Value::ofInt(int64_t(R.below(1000)))}});
      }
      for (unsigned K = 0; K != Node->arity(); ++K)
        Stack.push_back(Node->child(K));
    }
    In.Small.push_back(std::move(C));
  }

  const unsigned NumPascal = O.Smoke ? 40 : 1000;
  for (unsigned I = 0; I != NumPascal; ++I) {
    std::string Src = workloads::generateMiniPascalSource(
        12, subSeed(O.Seed, 10000 + I));
    DiagnosticEngine PD;
    In.PascalTrees.push_back(workloads::parseMiniPascal(*In.Pascal.AG, Src, PD));
    if (PD.hasErrors())
      fatal("minipascal program does not parse:\n" + PD.dump());
  }
  TreeGenerator SpecGen(*In.Spec.AG, subSeed(O.Seed, 6));
  const unsigned NumSpec = O.Smoke ? 80 : 2000;
  for (unsigned I = 0; I != NumSpec; ++I)
    In.SpecTrees.push_back(SpecGen.generate(60));
}

uint64_t corpusDigest(const AttributeGrammar &AG, const std::vector<Tree> &Ts) {
  uint64_t H = hashString("");
  for (const Tree &T : Ts)
    H = hashString(writeTerm(AG, T.root()), H);
  return H;
}

class BatchWorkload : public Workload {
public:
  BatchWorkload(const Options &O, Report &R);
  Samples run(double Seconds, bool Traced, Report &R) override;
  void addLayerMetrics(const Samples &Untraced, const Samples &Traced,
                       Report &R) override;

private:
  void setVariant(unsigned V);
  /// Checks the trees' root values (one-shot engines) against the oracle.
  void checkTrees(const AttributeGrammar &AG, const std::vector<Tree> &Ts,
                  const std::vector<std::vector<Value>> &Oracle, Report &R,
                  const char *Engine);
  void checkSession(Report &R, const char *Engine);

  BatchInputs In;
  unsigned Variant = 0;
  /// Root synthesized values per small tree, per leaf variant.
  std::vector<std::vector<Value>> SmallOracle[2];
  std::vector<std::vector<Value>> PascalOracle, SpecOracle;
  std::vector<unsigned> DeskRootSlots;
  ThreadPool Pool;
  std::optional<BatchEvaluator> PerTree;
  std::optional<MergedBatchEvaluator> Merged, MergedPascal, MergedSpec;
  std::optional<MergedBatchSession> Session;
  std::shared_ptr<const NativeModule> Module;
  std::optional<NativeCohortKernel> Kernel;
  bool FaultPending = false;

  /// Engine time and trees per engine, over the last untraced run().
  struct Rate {
    double Ms = 0;
    uint64_t Trees = 0;
  };
  Rate PerTreeRate, MergedRate, MixedRate, SessionRate, NativeRate;
  uint64_t MergedTrees = 0, FallbackTrees = 0, Rounds = 0;
};

BatchWorkload::BatchWorkload(const Options &O, Report &R)
    : Pool(std::min(2u, std::max(1u, std::thread::hardware_concurrency()))) {
  makeInputs(O, In);
  FaultPending = O.Inject == Fault::Root;
  generate(In.Desk, "desk");
  generate(In.Pascal, "minipascal");
  generate(In.Spec, "specgen");
  for (AttrId A : In.Desk.AG->phylum(In.Desk.AG->Start).Attrs)
    if (In.Desk.AG->attr(A).isSynthesized())
      DeskRootSlots.push_back(In.Desk.AG->attr(A).IndexInOwner);

  // Oracles, once: the demand-driven evaluator on private clones.
  auto Oracle = [&](const AttributeGrammar &AG, const std::vector<Tree> &Ts,
                    std::vector<std::vector<Value>> &Out) {
    Out.resize(Ts.size());
    for (size_t I = 0; I != Ts.size(); ++I)
      R.check(demandRootValues(AG, Ts[I], Out[I]), "demand oracle failed");
  };
  for (unsigned V = 0; V != 2; ++V) {
    setVariant(V);
    Oracle(*In.Desk.AG, In.Small, SmallOracle[V]);
  }
  setVariant(0);
  Oracle(*In.Pascal.AG, In.PascalTrees, PascalOracle);
  Oracle(*In.Spec.AG, In.SpecTrees, SpecOracle);

  PerTree.emplace(In.Desk.GE.Plan, Pool);
  Merged.emplace(In.Desk.GE.Plan, Pool);
  MergedPascal.emplace(In.Pascal.GE.Plan, Pool);
  MergedSpec.emplace(In.Spec.GE.Plan, Pool);
  for (auto &[A, V] : rootInherited(*In.Desk.AG)) {
    PerTree->setRootInherited(A, V);
    Merged->setRootInherited(A, V);
  }
  for (auto &[A, V] : rootInherited(*In.Pascal.AG))
    MergedPascal->setRootInherited(A, V);
  for (auto &[A, V] : rootInherited(*In.Spec.AG))
    MergedSpec->setRootInherited(A, V);

  // Native SoA kernels: emitted (timed on their own) and compiled cold.
  if (!NativeBackend::available())
    fatal("no host C++ compiler: the native kernels cannot be built");
  {
    Span S("codegen.emit");
    PlanWalker Walker(*In.Desk.CP);
    CppEmitResult Scalar = emitNativeCpp(*In.Desk.AG, Walker);
    CppEmitResult Soa = emitSoaCpp(*In.Desk.AG, Walker);
    R.check(!Scalar.Source.empty() && !Soa.Source.empty(),
            "native emitters produced no source");
  }
  {
    Span S("codegen.NativeBackend.build");
    NativeBackend Cold(NativeOptions{"", /*UseMemo=*/false});
    NativeBuildResult B = Cold.build(*In.Desk.AG, *In.Desk.CP);
    if (!B.Module)
      fatal("native build failed: " + B.Reason);
    Module = B.Module;
  }
  Kernel.emplace(*In.Desk.CP, Module);

  Session.emplace(In.Desk.GE.Plan, *In.Desk.CP, Pool);
  for (auto &[A, V] : rootInherited(*In.Desk.AG))
    Session->setRootInherited(A, V);
  {
    Span S("eval.MergedBatchSession.bind");
    Session->bind(In.Small);
  }
}

void BatchWorkload::setVariant(unsigned V) {
  Variant = V;
  for (LeafChange &C : In.Changes)
    C.Node->Lexeme = C.V[V];
}

void BatchWorkload::checkTrees(const AttributeGrammar &AG,
                               const std::vector<Tree> &Ts,
                               const std::vector<std::vector<Value>> &Oracle,
                               Report &R, const char *Engine) {
  size_t Bad = Ts.size();
  for (size_t I = 0; I != Ts.size(); ++I)
    if (rootValues(AG, Ts[I].root()) != Oracle[I]) {
      Bad = I;
      break;
    }
  R.check(Bad == Ts.size(), std::string(Engine) + ": tree " +
                                std::to_string(Bad) +
                                "'s root values differ from the oracle");
}

void BatchWorkload::checkSession(Report &R, const char *Engine) {
  const std::vector<std::vector<Value>> &Oracle = SmallOracle[Variant];
  size_t Bad = Oracle.size();
  for (size_t I = 0; I != Oracle.size() && Bad == Oracle.size(); ++I) {
    if (!Session->succeeded(I) || Oracle[I].size() != DeskRootSlots.size()) {
      Bad = I;
      break;
    }
    for (size_t K = 0; K != DeskRootSlots.size(); ++K)
      if (!(Session->rootSlot(I, DeskRootSlots[K]) == Oracle[I][K])) {
        Bad = I;
        break;
      }
  }
  R.check(Bad == Oracle.size(), std::string(Engine) + ": tree " +
                                    std::to_string(Bad) +
                                    "'s root values differ from the oracle");
}

/// Runs \p Run inside a span and returns its wall time in ms.
template <typename Fn> double timed(const char *SpanName, Fn Run) {
  Clock::time_point T0 = Clock::now();
  {
    Span S(SpanName);
    Run();
  }
  return msSince(T0);
}

Samples BatchWorkload::run(double Seconds, bool Traced, Report &R) {
  Samples Out;
  if (!Traced) {
    PerTreeRate = MergedRate = MixedRate = SessionRate = NativeRate = Rate();
    MergedTrees = FallbackTrees = Rounds = 0;
  }
  const Clock::time_point Start = Clock::now();
  do {
    Tracer::beginOperation();
    setVariant(Variant ^ 1);
    const std::vector<std::vector<Value>> &Oracle = SmallOracle[Variant];

    BatchResult B;
    double PerTreeMs = timed("eval.BatchEvaluator.evaluate",
                             [&] { B = PerTree->evaluate(In.Small); });
    if (FaultPending && !In.Small.empty()) {
      // The injected fault: one wrong root value out of an engine.
      FaultPending = false;
      In.Small[0].root()->slot(DeskRootSlots.front()) = Value::ofInt(-1);
    }
    R.check(B.allSucceeded(), "BatchEvaluator: a tree failed");
    checkTrees(*In.Desk.AG, In.Small, Oracle, R, "BatchEvaluator");

    double MergedMs = timed("eval.MergedBatchEvaluator.evaluate",
                            [&] { B = Merged->evaluate(In.Small); });
    R.check(B.allSucceeded(), "MergedBatchEvaluator: a tree failed");
    checkTrees(*In.Desk.AG, In.Small, Oracle, R, "MergedBatchEvaluator");
    uint64_t M = Merged->mergedStats().TreesMerged;
    uint64_t F = Merged->mergedStats().TreesFallback;

    double MixedMs =
        timed("eval.MergedBatchEvaluator.evaluate.mixed", [&] {
          B = MergedPascal->evaluate(In.PascalTrees);
        });
    R.check(B.allSucceeded(), "MergedBatchEvaluator (minipascal): a tree failed");
    M += MergedPascal->mergedStats().TreesMerged;
    F += MergedPascal->mergedStats().TreesFallback;
    MixedMs += timed("eval.MergedBatchEvaluator.evaluate.mixed",
                     [&] { B = MergedSpec->evaluate(In.SpecTrees); });
    R.check(B.allSucceeded(), "MergedBatchEvaluator (specgen): a tree failed");
    M += MergedSpec->mergedStats().TreesMerged;
    F += MergedSpec->mergedStats().TreesFallback;
    checkTrees(*In.Pascal.AG, In.PascalTrees, PascalOracle, R,
               "MergedBatchEvaluator (minipascal)");
    checkTrees(*In.Spec.AG, In.SpecTrees, SpecOracle, R,
               "MergedBatchEvaluator (specgen)");

    // The resident session follows SessionEdits leaf changes per round,
    // each evaluated interpreted and then with the native kernels.
    double SessionMs = 0, NativeMs = 0;
    for (unsigned E = 0; E != SessionEdits; ++E) {
      if (E != 0)
        setVariant(Variant ^ 1);
      SessionResult SR;
      Session->setKernel(nullptr);
      SessionMs += timed("eval.MergedBatchSession.evaluate",
                         [&] { SR = Session->evaluate(); });
      R.check(SR.allSucceeded(), "MergedBatchSession: a tree failed");
      checkSession(R, "MergedBatchSession");

      Session->setKernel(&*Kernel);
      NativeMs += timed("codegen.NativeCohortKernel.session.evaluate",
                        [&] { SR = Session->evaluate(); });
      R.check(SR.allSucceeded(), "MergedBatchSession (native): a tree failed");
      checkSession(R, "MergedBatchSession (native)");
    }

    const uint64_t Small = In.Small.size();
    const uint64_t Mixed = In.PascalTrees.size() + In.SpecTrees.size();
    const double ColdMs = PerTreeMs + MergedMs + MixedMs;
    const double WarmMs = SessionMs + NativeMs;
    Out.Ops.push_back({Out.Rounds, ColdMs, true, double(2 * Small + Mixed),
                       ColdMs * 1e-3});
    Out.Ops.push_back({Out.Rounds, WarmMs, false,
                       double(2 * SessionEdits * Small), WarmMs * 1e-3});
    ++Out.Rounds;
    if (!Traced) {
      PerTreeRate.Ms += PerTreeMs, PerTreeRate.Trees += Small;
      MergedRate.Ms += MergedMs, MergedRate.Trees += Small;
      MixedRate.Ms += MixedMs, MixedRate.Trees += Mixed;
      SessionRate.Ms += SessionMs, SessionRate.Trees += SessionEdits * Small;
      NativeRate.Ms += NativeMs, NativeRate.Trees += SessionEdits * Small;
      MergedTrees += M, FallbackTrees += F, ++Rounds;
    }
  } while (msSince(Start) < Seconds * 1e3);
  // Busy time is engine time: the oracle checks between the passes are the
  // benchmark's, not the engines'.
  return Out;
}

void BatchWorkload::addLayerMetrics(const Samples &, const Samples &,
                                    Report &R) {
  auto AddRate = [&](const char *Name, const Rate &Rt) {
    R.add(Name, Rt.Ms > 0 ? Rt.Trees / (Rt.Ms * 1e-3) : 0, "1/s", Rounds);
  };
  AddRate("batch.pertree_trees_per_s", PerTreeRate);
  AddRate("batch.merged_trees_per_s", MergedRate);
  AddRate("batch.mixed_trees_per_s", MixedRate);
  AddRate("batch.session_trees_per_s", SessionRate);
  AddRate("batch.native_session_trees_per_s", NativeRate);

  // Formation and scatter on their own, outside the measured rounds.
  for (int K = 0; K != 3; ++K) {
    Span S("eval.MergedBatchEvaluator.formCohorts");
    CohortSet Set = Merged->formCohorts(In.Small);
    R.check(!Set.Cohorts.empty(), "formCohorts formed no cohort");
  }
  Session->setKernel(nullptr);
  for (int K = 0; K != 3; ++K) {
    Session->evaluate();
    Span S("eval.MergedBatchSession.flush");
    Session->flush();
  }

  addSpanMetric(R, "eval.merged.form_ms",
                "eval.MergedBatchEvaluator.formCohorts", "ms");
  addSpanMetric(R, "eval.merged.evaluate_ms",
                "eval.MergedBatchEvaluator.evaluate", "ms");
  R.add("eval.merged.merge_ratio",
        MergedTrees + FallbackTrees
            ? double(MergedTrees) / double(MergedTrees + FallbackTrees)
            : 0,
        "ratio", Rounds);
  R.add("eval.merged.fallback_trees", Rounds ? double(FallbackTrees) / Rounds : 0,
        "count", Rounds);
  addSpanMetric(R, "eval.session.bind_ms", "eval.MergedBatchSession.bind", "ms");
  addSpanMetric(R, "eval.session.evaluate_ms",
                "eval.MergedBatchSession.evaluate", "ms");
  addSpanMetric(R, "eval.session.flush_ms", "eval.MergedBatchSession.flush",
                "ms");
  addSpanMetric(R, "codegen.native_session_evaluate_ms",
                "codegen.NativeCohortKernel.session.evaluate", "ms");
  addSpanMetric(R, "codegen.emit_ms", "codegen.emit", "ms");
  addSpanMetric(R, "codegen.native_build_s", "codegen.NativeBackend.build",
                "s");
}

} // namespace

std::unique_ptr<Workload> makeBatchWorkload(const Options &O, Report &R) {
  return std::make_unique<BatchWorkload>(O, R);
}

void digestBatchInputs(const Options &O, InputDigests &Out) {
  BatchInputs In;
  makeInputs(O, In);
  Out.emplace_back("batch.grammar.specgen",
                   ArtifactCache::grammarKey(*In.Spec.AG));
  Out.emplace_back("batch.small.variant0", corpusDigest(*In.Desk.AG, In.Small));
  for (LeafChange &C : In.Changes)
    C.Node->Lexeme = C.V[1];
  Out.emplace_back("batch.small.variant1", corpusDigest(*In.Desk.AG, In.Small));
  Out.emplace_back("batch.mixed.minipascal",
                   corpusDigest(*In.Pascal.AG, In.PascalTrees));
  Out.emplace_back("batch.mixed.specgen", corpusDigest(*In.Spec.AG, In.SpecTrees));
}

} // namespace perfbench
