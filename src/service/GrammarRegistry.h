//===- service/GrammarRegistry.h - Sharded grammar registry -----*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's resident grammar store: every registered grammar lives
/// behind the same content hash that keys the persistent ArtifactCache, so
/// a grammar is compiled and its cascade run at most once per content —
/// first across process lifetimes (the on-disk artifact), then across
/// clients (the resident entry here). The registry is sharded by key so
/// concurrent registrations of *different* grammars never contend, while
/// concurrent registrations of the *same* grammar collapse onto one
/// generation: the first arrival inserts a pending entry and runs the
/// cascade, later arrivals block on the entry's condition variable until
/// it is Ready (or failed).
///
/// Entries hold whatever owns the grammar (the molga CompileResult for
/// source registrations, a workloads-built AttributeGrammar for builtins)
/// plus the immutable shared CompiledArtifact every session and evaluator
/// borrows. Eviction is LRU per shard and only retires Ready entries; live
/// sessions keep their own shared_ptr to the entry, so retirement never
/// invalidates in-flight work — a later lookup of the evicted key is a
/// clean miss, and a re-registration regenerates (hitting the on-disk
/// artifact cache, so the cascade itself is not re-run).
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_SERVICE_GRAMMARREGISTRY_H
#define FNC2_SERVICE_GRAMMARREGISTRY_H

#include "fnc2/ArtifactCache.h"
#include "olga/Driver.h"

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

namespace fnc2::service {

/// One resident grammar. Immutable once Ready (the readiness latch is the
/// only mutation after insertion); shared_ptr-held by the registry and by
/// every session over it.
struct GrammarEntry {
  /// The ArtifactCache content key of (grammar, generator options) — the
  /// wire-visible handle clients evaluate against.
  uint64_t Key = 0;
  std::string Name;

  /// Exactly one of these owns the AttributeGrammar: Compile for molga
  /// source registrations (the Program keeps lowered semantic functions
  /// alive), OwnedAG for builtin workload grammars.
  olga::CompileResult Compile;
  std::unique_ptr<AttributeGrammar> OwnedAG;
  const AttributeGrammar *AG = nullptr;

  /// Its Compiled bundle is the one all of this grammar's sessions and
  /// evaluators borrow concurrently.
  GeneratedEvaluator Gen;

  /// Readiness latch: inserted entries start pending; the registering
  /// thread generates, then publishes Ready (or Error) and notifies.
  std::mutex Mu;
  std::condition_variable Cv;
  bool Ready = false;
  std::string Error;

  /// Monotonic use stamp for LRU eviction.
  std::atomic<uint64_t> LastUse{0};

  bool waitReady(std::string &Reason);
};

struct RegistryStats {
  uint64_t Hits = 0;      ///< lookup() found a Ready entry.
  uint64_t Misses = 0;    ///< lookup() of an unknown / evicted key.
  uint64_t Generated = 0; ///< Cascade-or-artifact generations run.
  uint64_t CacheHits = 0; ///< Generations satisfied by the on-disk cache.
  uint64_t Evictions = 0;
  uint64_t Rejected = 0;  ///< Registrations that failed (compile/cascade).
};

/// Registration sources: molga text, or "builtin:<name>" for the classic
/// workload grammars (desk, repmin, binary) — the latter exist so golden
/// request logs and benches can address well-known grammars without
/// embedding molga text.
class GrammarRegistry {
public:
  /// \p CacheDir when non-empty is the persistent ArtifactCache directory
  /// generations go through. \p Capacity when nonzero bounds Ready entries
  /// *per shard*; exceeding it evicts the least recently used.
  GrammarRegistry(std::string CacheDir, unsigned Shards = 8,
                  size_t Capacity = 0);

  /// Load-or-generate: compiles \p Source (molga or builtin:), computes the
  /// artifact key, and returns the resident entry — generating at most once
  /// per key no matter how many threads race here. Null with \p Reason on
  /// compile or cascade failure.
  std::shared_ptr<GrammarEntry> registerSource(const std::string &Source,
                                               unsigned OagK,
                                               std::string &Reason);

  /// Resident lookup by key; null when unknown or evicted (a miss, not an
  /// error — the caller reports "unknown grammar key").
  std::shared_ptr<GrammarEntry> lookup(uint64_t Key);

  RegistryStats stats() const;

  /// Number of resident entries (pending + ready), across shards.
  size_t size() const;

private:
  struct Shard {
    std::mutex Mu;
    std::map<uint64_t, std::shared_ptr<GrammarEntry>> Entries;
    /// Source-hash memo: fnv(source)^oagK -> artifact key, so re-registering
    /// identical text skips the front-end compile entirely.
    std::map<uint64_t, uint64_t> SourceMemo;
  };

  Shard &shardFor(uint64_t Key) { return *Shards[Key % NumShards]; }
  void maybeEvict(Shard &S);

  std::string CacheDir;
  unsigned NumShards;
  size_t Capacity;
  std::vector<std::unique_ptr<Shard>> Shards;

  std::atomic<uint64_t> UseClock{0};

  mutable std::mutex StatsMu;
  RegistryStats Stats;
};

} // namespace fnc2::service

#endif // FNC2_SERVICE_GRAMMARREGISTRY_H
