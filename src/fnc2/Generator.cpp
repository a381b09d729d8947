//===- fnc2/Generator.cpp -------------------------------------------------===//

#include "fnc2/Generator.h"

#include "fnc2/ArtifactCache.h"
#include "support/Timer.h"
#include "support/Trace.h"

using namespace fnc2;

CompiledArtifact::CompiledArtifact(const EvaluationPlan &Plan,
                                   const StorageAssignment *Storage)
    : Plan(Plan), CP(this->Plan), HasStorage(Storage != nullptr) {
  if (Storage)
    CS = CompiledStorage(CP, *Storage);
}

std::shared_ptr<const CompiledArtifact>
fnc2::compileArtifact(const GeneratedEvaluator &G, bool WithStorage) {
  return std::make_shared<const CompiledArtifact>(
      G.Plan, WithStorage ? &G.Storage : nullptr);
}

/// The cascade proper (figure 3), cache-oblivious.
static GeneratedEvaluator runCascade(const AttributeGrammar &AG,
                                     DiagnosticEngine &Diags,
                                     const GeneratorOptions &Opts) {
  GeneratedEvaluator G;
  Timer Phase;

  // Phase 1: SNC test; abort with the circularity trace on failure.
  {
    FNC2_SPAN("generate.snc");
    G.Classes.Snc = runSncTest(AG, Opts.Gfa);
  }
  G.Times.Snc = Phase.seconds();
  if (!G.Classes.Snc.IsSNC) {
    G.Classes.Class = AgClass::NotSNC;
    G.Trace = formatCircularityTrace(AG, G.Classes.Snc.Witness,
                                     &G.Classes.Snc.IO, nullptr);
    Diags.error("grammar '" + AG.Name +
                "' is not strongly non-circular:\n" + G.Trace);
    return G;
  }
  G.Classes.Class = AgClass::SNC;

  // Phase 2: DNC test.
  Phase.reset();
  {
    FNC2_SPAN("generate.dnc");
    G.Classes.Dnc = runDncTest(AG, G.Classes.Snc, Opts.Gfa);
  }
  G.Classes.DncRan = true;
  G.Times.Dnc = Phase.seconds();
  if (G.Classes.Dnc.IsDNC)
    G.Classes.Class = AgClass::DNC;

  // Phase 3: OAG(k) test, only when DNC succeeded (figure 3's cascade).
  if (G.Classes.Dnc.IsDNC) {
    Phase.reset();
    {
      FNC2_SPAN("generate.oag");
      G.Classes.Oag = runOagTest(AG, Opts.OagK, Opts.Gfa);
    }
    G.Classes.OagRan = true;
    G.Times.Oag = Phase.seconds();
    if (G.Classes.Oag.IsOAG)
      G.Classes.Class = AgClass::OAG;
  }

  // Phase 4: total orders — either directly from the OAG partitions or via
  // the SNC-to-l-ordered transformation.
  Phase.reset();
  {
    FNC2_SPAN("generate.transform");
    if (G.Classes.Class == AgClass::OAG) {
      G.Transform = uniformInstances(AG, G.Classes.Oag.Partitions);
    } else {
      G.Transform = sncToLOrdered(AG, G.Classes.Snc, Opts.Reuse);
    }
  }
  G.Times.Transform = Phase.seconds();
  if (!G.Transform.Success) {
    Diags.error("transformation failed for grammar '" + AG.Name +
                "': " + G.Transform.FailureReason);
    return G;
  }

  // Phase 5: visit sequences.
  Phase.reset();
  {
    FNC2_SPAN("generate.visitseq");
    if (!buildVisitSequences(AG, G.Transform, G.Plan, Diags))
      return G;
  }
  G.Times.VisitSeq = Phase.seconds();

  // Phase 6: space optimization (memory map).
  if (Opts.SpaceOptimize) {
    Phase.reset();
    FNC2_SPAN("generate.storage");
    G.Storage = analyzeStorage(AG, G.Plan);
    G.Times.Storage = Phase.seconds();
  }

  // The compiled bundle every engine borrows.
  G.Compiled = compileArtifact(G, Opts.SpaceOptimize);
  G.Success = true;
  return G;
}

GeneratedEvaluator fnc2::generateEvaluator(const AttributeGrammar &AG,
                                           DiagnosticEngine &Diags,
                                           GeneratorOptions Opts) {
  const uint64_t Key =
      Opts.CacheDir.empty() ? 0 : ArtifactCache::artifactKey(AG, Opts);
  return generateEvaluator(AG, Diags, std::move(Opts), Key);
}

GeneratedEvaluator fnc2::generateEvaluator(const AttributeGrammar &AG,
                                           DiagnosticEngine &Diags,
                                           GeneratorOptions Opts,
                                           uint64_t Key) {
  FNC2_SPAN("generate");
  if (Opts.CacheDir.empty())
    return runCascade(AG, Diags, Opts);

  ArtifactCache Cache(Opts.CacheDir);
  {
    FNC2_SPAN("cache.load");
    GeneratedEvaluator Cached;
    std::string Reason;
    switch (Cache.load(AG, Opts, Key, Cached, Reason)) {
    case CacheLookup::Hit:
      FNC2_COUNT("generator.cache.hit", 1);
      return Cached;
    case CacheLookup::Reject:
      // A bad file falls through to regeneration, which overwrites it.
      FNC2_COUNT("generator.cache.reject", 1);
      Diags.note("rejecting cached artifact for '" + AG.Name +
                 "': " + Reason);
      break;
    case CacheLookup::Miss:
      FNC2_COUNT("generator.cache.miss", 1);
      break;
    }
  }

  GeneratedEvaluator G = runCascade(AG, Diags, Opts);
  if (G.Success) {
    FNC2_SPAN("cache.store");
    if (Cache.store(AG, Opts, Key, G))
      FNC2_COUNT("generator.cache.store", 1);
    else
      FNC2_COUNT("generator.cache.store_failure", 1);
  }
  return G;
}

Table1Row GeneratedEvaluator::statsRow(const AttributeGrammar &AG) const {
  Table1Row Row;
  Row.Name = AG.Name;
  Row.Phyla = AG.numPhyla();
  Row.Operators = AG.numProds();
  Row.OccAttrs = AG.numAttrOccurrences();
  Row.SemRules = AG.numRules();
  Row.ClassName = Classes.className();
  Row.PctVars = Storage.pctVariables();
  Row.PctStacks = Storage.pctStacks();
  Row.PctNonTemp = Storage.pctTree();
  Row.NumVariables = Storage.NumVarGroups;
  Row.NumStacks = Storage.NumStackGroups;
  Row.PctElimOfCopy =
      Storage.TotalCopyRules == 0
          ? 0.0
          : 100.0 * Storage.EliminatedCopyRules / Storage.TotalCopyRules;
  Row.PctElimOfPoss =
      Storage.EliminableCopyRules == 0
          ? 0.0
          : 100.0 * Storage.EliminatedCopyRules / Storage.EliminableCopyRules;
  Row.AvgPartitions = Transform.AvgPartitionsPerPhylum;
  Row.MaxPartitions = Transform.MaxPartitionsPerPhylum;
  Row.TimeSec = Times.total();
  return Row;
}
