//===- service/GrammarRegistry.cpp - Sharded grammar registry -------------===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//

#include "service/GrammarRegistry.h"

#include "serialize/Serialize.h"
#include "support/Trace.h"
#include "workloads/ClassicGrammars.h"

namespace fnc2::service {

bool GrammarEntry::waitReady(std::string &Reason) {
  std::unique_lock<std::mutex> Lock(Mu);
  Cv.wait(Lock, [&] { return Ready || !Error.empty(); });
  if (!Error.empty()) {
    Reason = Error;
    return false;
  }
  return true;
}

GrammarRegistry::GrammarRegistry(std::string CacheDir, unsigned Shards,
                                 size_t Capacity)
    : CacheDir(std::move(CacheDir)), NumShards(Shards == 0 ? 1 : Shards),
      Capacity(Capacity) {
  for (unsigned I = 0; I != NumShards; ++I)
    this->Shards.push_back(std::make_unique<Shard>());
}

/// Builds the grammar for a "builtin:<name>" source into \p OwnedAG.
static bool buildBuiltin(const std::string &Name,
                         std::unique_ptr<AttributeGrammar> &OwnedAG,
                         std::string &Reason) {
  DiagnosticEngine Diags;
  if (Name == "desk")
    OwnedAG = std::make_unique<AttributeGrammar>(
        workloads::deskCalculator(Diags));
  else if (Name == "repmin")
    OwnedAG = std::make_unique<AttributeGrammar>(workloads::repmin(Diags));
  else if (Name == "binary")
    OwnedAG =
        std::make_unique<AttributeGrammar>(workloads::binaryNumbers(Diags));
  else {
    Reason = "register: unknown builtin grammar '" + Name + "'";
    return false;
  }
  if (Diags.hasErrors()) {
    Reason = "register: builtin grammar failed to build: " + Diags.dump();
    OwnedAG.reset();
    return false;
  }
  return true;
}

std::shared_ptr<GrammarEntry>
GrammarRegistry::registerSource(const std::string &Source, unsigned OagK,
                                std::string &Reason) {
  FNC2_SPAN("service.registry.register");

  // Fast path: identical text registered before — the memo maps straight to
  // the artifact key, skipping the front-end compile.
  uint64_t MemoKey =
      serialize::fnv1a64(
          {reinterpret_cast<const uint8_t *>(Source.data()), Source.size()}) ^
      OagK;
  {
    Shard &MS = shardFor(MemoKey);
    uint64_t Key = 0;
    {
      std::lock_guard<std::mutex> Lock(MS.Mu);
      auto It = MS.SourceMemo.find(MemoKey);
      if (It != MS.SourceMemo.end())
        Key = It->second;
    }
    if (Key != 0) {
      if (std::shared_ptr<GrammarEntry> E = lookup(Key)) {
        if (!E->waitReady(Reason))
          return nullptr;
        return E;
      }
      // The entry was evicted since the memo was written; drop the stale
      // memo and take the full path (regeneration hits the on-disk cache).
      std::lock_guard<std::mutex> Lock(MS.Mu);
      MS.SourceMemo.erase(MemoKey);
    }
  }

  // Compile outside every lock — front-end work must not serialize the
  // registry.
  auto Pending = std::make_shared<GrammarEntry>();
  if (Source.rfind("builtin:", 0) == 0) {
    if (!buildBuiltin(Source.substr(8), Pending->OwnedAG, Reason))
      return nullptr;
    Pending->AG = Pending->OwnedAG.get();
    Pending->Name = Source;
  } else {
    DiagnosticEngine Diags;
    Pending->Compile = olga::compileMolga(Source, Diags);
    if (!Pending->Compile.Success || Pending->Compile.Grammars.empty()) {
      Reason = "register: molga compile failed: " + Diags.dump();
      {
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++Stats.Rejected;
      }
      return nullptr;
    }
    Pending->AG = &Pending->Compile.Grammars.front().AG;
    Pending->Name = Pending->AG->Name;
  }

  GeneratorOptions Opts;
  Opts.OagK = OagK;
  Opts.CacheDir = CacheDir;
  uint64_t Key = ArtifactCache::artifactKey(*Pending->AG, Opts);
  Pending->Key = Key;
  Pending->LastUse.store(++UseClock, std::memory_order_relaxed);

  // Insert-or-join: the first thread to insert generates; everyone else
  // waits (outside the shard lock) on the entry it inserted.
  Shard &S = shardFor(Key);
  std::shared_ptr<GrammarEntry> Existing;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Entries.find(Key);
    if (It != S.Entries.end()) {
      Existing = It->second;
      Existing->LastUse.store(++UseClock, std::memory_order_relaxed);
    } else {
      S.Entries[Key] = Pending;
    }
  }
  if (Existing) {
    if (!Existing->waitReady(Reason))
      return nullptr;
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.Hits;
    return Existing;
  }

  // We inserted the pending entry: run the generation (cascade or on-disk
  // artifact load) with no registry lock held.
  {
    FNC2_SPAN("service.registry.generate");
    DiagnosticEngine Diags;
    Pending->Gen = generateEvaluator(*Pending->AG, Diags, Opts, Key);
    if (!Pending->Gen.Success) {
      std::string Why = "register: generation failed: " + Diags.dump();
      {
        Shard &S2 = shardFor(Key);
        std::lock_guard<std::mutex> Lock(S2.Mu);
        S2.Entries.erase(Key);
      }
      {
        std::lock_guard<std::mutex> Lock(Pending->Mu);
        Pending->Error = Why;
      }
      Pending->Cv.notify_all();
      {
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++Stats.Rejected;
      }
      Reason = Why;
      return nullptr;
    }
  }

  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.Generated;
    if (Pending->Gen.FromCache)
      ++Stats.CacheHits;
  }

  // Publish the memo and readiness, then consider eviction.
  {
    Shard &MS = shardFor(MemoKey);
    std::lock_guard<std::mutex> Lock(MS.Mu);
    MS.SourceMemo[MemoKey] = Key;
  }
  {
    std::lock_guard<std::mutex> Lock(Pending->Mu);
    Pending->Ready = true;
  }
  Pending->Cv.notify_all();
  maybeEvict(S);
  return Pending;
}

std::shared_ptr<GrammarEntry> GrammarRegistry::lookup(uint64_t Key) {
  Shard &S = shardFor(Key);
  std::shared_ptr<GrammarEntry> E;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Entries.find(Key);
    if (It != S.Entries.end())
      E = It->second;
  }
  std::lock_guard<std::mutex> Lock(StatsMu);
  if (E) {
    E->LastUse.store(++UseClock, std::memory_order_relaxed);
    ++Stats.Hits;
  } else {
    ++Stats.Misses;
  }
  return E;
}

void GrammarRegistry::maybeEvict(Shard &S) {
  if (Capacity == 0)
    return;
  std::lock_guard<std::mutex> Lock(S.Mu);
  while (S.Entries.size() > Capacity) {
    // Retire the least recently used *Ready* entry; pending entries are
    // mid-generation and must stay resident.
    uint64_t BestKey = 0, BestUse = ~uint64_t(0);
    bool Found = false;
    for (auto &[Key, E] : S.Entries) {
      bool Ready;
      {
        std::lock_guard<std::mutex> ELock(E->Mu);
        Ready = E->Ready;
      }
      uint64_t Use = E->LastUse.load(std::memory_order_relaxed);
      if (Ready && Use < BestUse) {
        BestUse = Use;
        BestKey = Key;
        Found = true;
      }
    }
    if (!Found)
      return;
    S.Entries.erase(BestKey);
    std::lock_guard<std::mutex> SLock(StatsMu);
    ++Stats.Evictions;
  }
}

RegistryStats GrammarRegistry::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMu);
  return Stats;
}

size_t GrammarRegistry::size() const {
  size_t N = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mu);
    N += S->Entries.size();
  }
  return N;
}

} // namespace fnc2::service
