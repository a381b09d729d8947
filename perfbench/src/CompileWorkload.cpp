//===- perfbench/src/CompileWorkload.cpp - The grammar author's path ------===//
//
// One thread, closed loop. Each round takes every roster grammar from its
// source to an evaluated tree twice:
//
//   cold  compileMolga -> generateEvaluator with an empty artifact cache
//         (the whole cascade, then the store) -> read the input term ->
//         evaluate;
//   warm  compileMolga -> generateEvaluator from the stored artifact ->
//         read the input term -> evaluate.
//
// The traced loop runs the same program one public call at a time
// (classifyGrammar, the transformation, buildVisitSequences,
// analyzeStorage, compileArtifact, ArtifactCache::store / load) so that each
// generator layer gets its own span; its artifact must encode to the same
// bytes as generateEvaluator's.
//
// Oracles: each evaluated tree's attribution digest equals the digest of
// the demand-driven evaluator on the same input (computed in set-up), and
// MiniPascal's P-code equals the hand-written compiler's.
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"
#include "Workloads.h"

#include "eval/Evaluator.h"
#include "fnc2/ArtifactCache.h"
#include "olga/Driver.h"
#include "tree/TreeGen.h"
#include "workloads/MiniPascal.h"
#include "workloads/SpecGen.h"

#include <filesystem>
#include <optional>

#include <unistd.h>

using namespace fnc2;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

/// One roster grammar and its seeded input.
struct RosterEntry {
  std::string Name;
  /// molga text; empty for MiniPascal, which is built by its
  /// GrammarBuilder in C++ (there is no molga source for it).
  std::string Source;
  unsigned OagK = 0;
  std::string Term;      ///< Input tree (term syntax), molga grammars.
  std::string PascalSrc; ///< Input program, MiniPascal.
};

/// The roster (see perfbench/README.md for why each member is there):
/// the seven system AGs, MiniPascal, and the SpecGen grammars of
/// bench/generator_scaling at the S2/S3/S4 sizes, S3 with the DNC shape so
/// that the SNC-to-l-ordered transformation runs on a SpecGen grammar too.
/// The grammars are fixed; the seed draws their input trees and the
/// MiniPascal program, so that every seed costs about the same.
std::vector<RosterEntry> makeRoster(const Options &O) {
  std::vector<RosterEntry> Roster;
  for (workloads::SystemAg &Ag : workloads::systemAgSuite())
    Roster.push_back({Ag.Name, std::move(Ag.Source), Ag.OagK, "", ""});
  Roster.push_back({"minipascal", "", 0, "",
                    workloads::generateMiniPascalSource(
                        O.Smoke ? 12 : 60, subSeed(O.Seed, 1))});
  struct Size {
    const char *Name;
    unsigned Phyla, Ops, AttrPairs;
    workloads::SpecGenOptions::Shape Shape;
  };
  const Size Sizes[] = {
      {"specgen-S2", 16, 4, 3, workloads::SpecGenOptions::Shape::Oag0},
      {"specgen-S3-dnc", 28, 6, 4, workloads::SpecGenOptions::Shape::Dnc},
      {"specgen-S4", 48, 8, 7, workloads::SpecGenOptions::Shape::Oag0},
  };
  for (const Size &S : Sizes) {
    if (O.Smoke && S.Phyla > 30)
      continue;
    workloads::SpecGenOptions SO;
    SO.Name = "Scale" + std::to_string(S.Phyla);
    SO.Phyla = S.Phyla;
    SO.OperatorsPerPhylum = S.Ops;
    SO.AttrPairs = S.AttrPairs;
    SO.ClassShape = S.Shape;
    SO.Seed = 7; // bench/generator_scaling's grammars
    Roster.push_back({S.Name, workloads::generateMolgaSpec(SO), 0, "", ""});
  }
  // Input trees: generated once against a throwaway compile of each
  // grammar and kept as term text, which every round reads back in.
  for (size_t I = 0; I != Roster.size(); ++I) {
    RosterEntry &E = Roster[I];
    if (E.Source.empty())
      continue;
    DiagnosticEngine D;
    olga::CompileResult C = olga::compileMolga(E.Source, D);
    if (!C.Success)
      fatal("roster grammar " + E.Name + " does not compile:\n" + D.dump());
    const AttributeGrammar &AG = C.Grammars.front().AG;
    TreeGenerator Gen(AG, subSeed(O.Seed, 100 + I));
    Tree T = Gen.generate(O.Smoke ? 60 : 400);
    E.Term = writeTerm(AG, T.root());
  }
  return Roster;
}

/// A grammar as one round holds it: the compile result owning a molga AG,
/// or a built MiniPascal AG.
struct LiveGrammar {
  std::optional<olga::CompileResult> Compiled;
  std::optional<AttributeGrammar> Built;
  const AttributeGrammar *AG = nullptr;
};

class CompileWorkload : public Workload {
public:
  CompileWorkload(const Options &O, Report &R);
  ~CompileWorkload() override;
  Samples run(double Seconds, bool Traced, Report &R) override;
  void addLayerMetrics(const Samples &Untraced, const Samples &Traced,
                       Report &R) override;

private:
  LiveGrammar loadGrammar(const RosterEntry &E);
  Tree readInput(const RosterEntry &E, const AttributeGrammar &AG);
  /// Evaluates \p T with \p Art and checks it against the oracles.
  void evaluateAndCheck(size_t I, const AttributeGrammar &AG,
                        const CompiledArtifact &Art, Tree &T, Report &R,
                        const char *Path);
  GeneratorOptions optionsFor(const RosterEntry &E,
                              const std::string &CacheDir) const;
  /// The traced cold path: the cascade one public call at a time.
  GeneratedEvaluator decomposedCold(const RosterEntry &E,
                                    const AttributeGrammar &AG,
                                    const GeneratorOptions &GO, Report &R);

  std::vector<RosterEntry> Roster;
  std::vector<uint64_t> OracleDigest;
  workloads::PCodeResult PascalOracle;
  std::string CacheRoot;
  uint64_t NextCacheDir = 0;
  double ArtifactBytes = 0;
  uint64_t ArtifactCount = 0;
};

CompileWorkload::CompileWorkload(const Options &O, Report &R)
    : Roster(makeRoster(O)) {
  CacheRoot = "compile-cache-" + std::to_string(::getpid());
  for (const RosterEntry &E : Roster) {
    LiveGrammar G = loadGrammar(E);
    Tree T = readInput(E, *G.AG);
    uint64_t D = 0;
    R.check(demandDigest(*G.AG, T, D), E.Name + ": demand oracle failed");
    OracleDigest.push_back(D);
    if (E.Source.empty())
      PascalOracle = workloads::compileMiniPascalByHand(*G.AG, T.root());
  }
}

CompileWorkload::~CompileWorkload() {
  std::error_code Ec;
  fs::remove_all(CacheRoot, Ec);
}

LiveGrammar CompileWorkload::loadGrammar(const RosterEntry &E) {
  LiveGrammar G;
  DiagnosticEngine D;
  if (E.Source.empty()) {
    G.Built.emplace(workloads::miniPascal(D));
    G.AG = &*G.Built;
  } else {
    Span S("olga.compileMolga");
    G.Compiled.emplace(olga::compileMolga(E.Source, D));
    if (G.Compiled->Success)
      G.AG = &G.Compiled->Grammars.front().AG;
  }
  if (!G.AG || D.hasErrors())
    fatal(E.Name + ": grammar construction failed:\n" + D.dump());
  return G;
}

Tree CompileWorkload::readInput(const RosterEntry &E,
                                const AttributeGrammar &AG) {
  Span S("tree.readInput");
  DiagnosticEngine D;
  Tree T = E.Source.empty() ? workloads::parseMiniPascal(AG, E.PascalSrc, D)
                            : readTerm(AG, E.Term, D);
  if (D.hasErrors())
    fatal(E.Name + ": input does not parse:\n" + D.dump());
  return T;
}

void CompileWorkload::evaluateAndCheck(size_t I, const AttributeGrammar &AG,
                                       const CompiledArtifact &Art, Tree &T,
                                       Report &R, const char *Path) {
  bool Ok;
  {
    Span S("eval.evaluate");
    Evaluator E(Art.Plan, Art.CP);
    for (auto &[A, V] : rootInherited(AG))
      E.setRootInherited(A, V);
    DiagnosticEngine D;
    Ok = E.evaluate(T, D);
  }
  const std::string What = Roster[I].Name + " (" + Path + ")";
  R.check(Ok && attributionDigest(AG, T) == OracleDigest[I],
          What + ": attribution differs from the demand-driven oracle");
  if (Roster[I].Source.empty()) {
    workloads::PCodeResult P = workloads::pcodeFromTree(AG, T);
    R.check(P.Code == PascalOracle.Code && P.Errors == PascalOracle.Errors,
            What + ": P-code differs from the hand-written compiler");
  }
}

GeneratorOptions CompileWorkload::optionsFor(const RosterEntry &E,
                                             const std::string &Dir) const {
  GeneratorOptions GO;
  GO.OagK = E.OagK;
  GO.CacheDir = Dir;
  return GO;
}

GeneratedEvaluator CompileWorkload::decomposedCold(const RosterEntry &E,
                                                   const AttributeGrammar &AG,
                                                   const GeneratorOptions &GO,
                                                   Report &R) {
  GeneratedEvaluator G;
  DiagnosticEngine D;
  {
    Span S("analysis.classifyGrammar");
    G.Classes = classifyGrammar(AG, GO.OagK, GO.Gfa);
  }
  if (G.Classes.Class == AgClass::NotSNC)
    fatal(E.Name + ": grammar is not strongly non-circular");
  if (G.Classes.Class == AgClass::OAG) {
    Span S("ordered.uniformInstances");
    G.Transform = uniformInstances(AG, G.Classes.Oag.Partitions);
  } else {
    Span S("ordered.sncToLOrdered");
    G.Transform = sncToLOrdered(AG, G.Classes.Snc, GO.Reuse);
  }
  bool Ok = G.Transform.Success;
  if (Ok) {
    Span S("visitseq.buildVisitSequences");
    Ok = buildVisitSequences(AG, G.Transform, G.Plan, D);
  }
  if (Ok) {
    Span S("storage.analyzeStorage");
    G.Storage = analyzeStorage(AG, G.Plan);
  }
  if (!Ok)
    fatal(E.Name + ": generator cascade failed:\n" + D.dump());
  G.Success = true;
  {
    Span S("eval.compileArtifact");
    G.Compiled = compileArtifact(G);
  }
  ArtifactCache Cache(GO.CacheDir);
  bool Stored;
  {
    Span S("fnc2.ArtifactCache.store");
    Stored = Cache.store(AG, GO, G);
  }
  R.check(Stored, E.Name + ": artifact store failed");
  return G;
}

Samples CompileWorkload::run(double Seconds, bool Traced, Report &R) {
  Samples Out;
  const Clock::time_point Start = Clock::now();
  do {
    for (size_t I = 0; I != Roster.size(); ++I) {
      const RosterEntry &E = Roster[I];
      const std::string Dir =
          CacheRoot + "/" + std::to_string(NextCacheDir++);
      const GeneratorOptions GO = optionsFor(E, Dir);

      // Cold: source -> generated (and stored) -> evaluated tree.
      Tracer::beginOperation();
      Clock::time_point T0 = Clock::now();
      {
        Span Op("compile.cold");
        LiveGrammar G = loadGrammar(E);
        GeneratedEvaluator GE;
        if (Traced) {
          GE = decomposedCold(E, *G.AG, GO, R);
        } else {
          DiagnosticEngine D;
          GE = generateEvaluator(*G.AG, D, GO);
          R.check(GE.Success && !GE.FromCache && GE.Compiled,
                  E.Name + ": cold generation failed");
        }
        Tree T = readInput(E, *G.AG);
        if (GE.Compiled)
          evaluateAndCheck(I, *G.AG, *GE.Compiled, T, R, "cold");
        const double Ms = msSince(T0);
        Out.Ops.push_back({Out.Rounds, Ms, true, 0.5, Ms * 1e-3});
      }

      // Warm: the same source, generated from the stored artifact.
      Tracer::beginOperation();
      T0 = Clock::now();
      {
        Span Op("compile.warm");
        LiveGrammar G = loadGrammar(E);
        GeneratedEvaluator GE;
        if (Traced) {
          ArtifactCache Cache(Dir);
          std::string Why;
          CacheLookup L;
          {
            Span S("fnc2.ArtifactCache.load");
            L = Cache.load(*G.AG, GO, GE, Why);
          }
          R.check(L == CacheLookup::Hit, E.Name + ": warm load missed: " + Why);
        } else {
          DiagnosticEngine D;
          GE = generateEvaluator(*G.AG, D, GO);
          R.check(GE.Success && GE.FromCache,
                  E.Name + ": warm generation did not load the artifact");
        }
        Tree T = readInput(E, *G.AG);
        if (GE.Compiled)
          evaluateAndCheck(I, *G.AG, *GE.Compiled, T, R, "warm");
        else
          R.check(false, E.Name + ": warm artifact has no compiled bundle");
        const double Ms = msSince(T0);
        Out.Ops.push_back({Out.Rounds, Ms, false, 0.5, Ms * 1e-3});
        if (Traced) {
          std::error_code Ec;
          ArtifactBytes += double(fs::file_size(
              ArtifactCache(Dir).pathFor(ArtifactCache::artifactKey(*G.AG, GO)),
              Ec));
          ++ArtifactCount;
        }
      }

      std::error_code Ec;
      fs::remove_all(Dir, Ec);
    }
    ++Out.Rounds;
  } while (msSince(Start) < Seconds * 1e3);
  return Out;
}

void CompileWorkload::addLayerMetrics(const Samples &, const Samples &,
                                      Report &R) {
  // The decomposition must measure the same program: its artifact encodes
  // to the same bytes as generateEvaluator's, for every roster grammar.
  // Checked untraced, so that it adds no spans.
  Tracer::setEnabled(false);
  for (const RosterEntry &E : Roster) {
    LiveGrammar G = loadGrammar(E);
    GeneratorOptions GO =
        optionsFor(E, CacheRoot + "/identity-" + std::to_string(NextCacheDir++));
    GeneratedEvaluator Mine = decomposedCold(E, *G.AG, GO, R);
    GeneratorOptions NoCache = GO;
    NoCache.CacheDir.clear();
    DiagnosticEngine D;
    GeneratedEvaluator Ref = generateEvaluator(*G.AG, D, NoCache);
    R.check(Ref.Success && ArtifactCache::encode(*G.AG, NoCache, Ref) ==
                               ArtifactCache::encode(*G.AG, NoCache, Mine),
            E.Name + ": the decomposed cascade's artifact differs from "
                     "generateEvaluator's");
    std::error_code Ec;
    fs::remove_all(GO.CacheDir, Ec);
  }
  Tracer::setEnabled(true);

  addSpanMetric(R, "olga.compile_ms", "olga.compileMolga", "ms");
  addSpanMetric(R, "analysis.classify_ms", "analysis.classifyGrammar", "ms");
  addSpanMetric(R, "ordered.transform_ms", "ordered.sncToLOrdered", "ms");
  addSpanMetric(R, "visitseq.build_ms", "visitseq.buildVisitSequences", "ms");
  addSpanMetric(R, "storage.analyze_ms", "storage.analyzeStorage", "ms");
  addSpanMetric(R, "eval.compile_plan_ms", "eval.compileArtifact", "ms");
  addSpanMetric(R, "fnc2.cache_store_ms", "fnc2.ArtifactCache.store", "ms");
  addSpanMetric(R, "fnc2.cache_load_ms", "fnc2.ArtifactCache.load", "ms");

  // The storage phase's share of the generator: its self time over the sum
  // of the cascade phases' self times (the base, reported alongside).
  std::map<std::string, SpanTotals> T = Tracer::totals();
  double PhaseSum = 0;
  uint64_t Grammars = T["analysis.classifyGrammar"].Count;
  for (const char *Phase :
       {"analysis.classifyGrammar", "ordered.uniformInstances",
        "ordered.sncToLOrdered", "visitseq.buildVisitSequences",
        "storage.analyzeStorage"})
    PhaseSum += T[Phase].SelfMs;
  R.add("generator.phase_sum_ms", Grammars ? PhaseSum / Grammars : 0, "ms",
        Grammars);
  R.add("storage.share_of_cold",
        PhaseSum > 0 ? 100.0 * T["storage.analyzeStorage"].SelfMs / PhaseSum
                     : 0,
        "%", Grammars);
  R.add("fnc2.artifact_kb",
        ArtifactCount ? ArtifactBytes / ArtifactCount / 1024.0 : 0, "KiB",
        ArtifactCount);
}

} // namespace

std::unique_ptr<Workload> makeCompileWorkload(const Options &O, Report &R) {
  return std::make_unique<CompileWorkload>(O, R);
}

void digestCompileInputs(const Options &O, InputDigests &Out) {
  for (const RosterEntry &E : makeRoster(O)) {
    Out.emplace_back("compile.grammar." + E.Name,
                     hashString(E.Source.empty() ? "builtin:minipascal"
                                                 : E.Source));
    Out.emplace_back("compile.input." + E.Name,
                     hashString(E.Source.empty() ? E.PascalSrc : E.Term));
  }
}

} // namespace perfbench
