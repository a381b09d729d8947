//===- fnc2/ArtifactCache.h - Persistent generator artifacts ----*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent generator-artifact cache: the warm-start analogue of
/// FNC-2's mkfnc2 driver (paper section 3.1), which only re-runs generator
/// phases whose inputs changed. The whole front half of the system — the
/// SNC/DNC/OAG cascade, the transformation, visit-sequence generation, the
/// space optimization, and the compiled instruction streams derived from
/// them — is a pure function of the abstract grammar and the generator
/// options, so its output is serialized once (content-addressed by a hash
/// of both) and reloaded on every later process start.
///
/// Trust model: a cached artifact is advisory, never authoritative. Loads
/// validate the container (magic, format version, content key, section
/// CRCs; see serialize/ArtifactFile.h) and then every semantic invariant a
/// decoder relies on (ids in range, parallel arrays of equal length, slot
/// tables sized to the live grammar). Anything that fails is a clean
/// rejection with a reason — the generator falls back to the cascade and
/// overwrites the bad file. Stores are atomic (temp file + rename), so a
/// reader never observes a half-written artifact even under concurrent
/// writers racing on one cache directory.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_FNC2_ARTIFACTCACHE_H
#define FNC2_FNC2_ARTIFACTCACHE_H

#include "eval/CompiledPlan.h"
#include "fnc2/Generator.h"
#include "storage/StorageEvaluator.h"

namespace fnc2 {

/// The compiled image of a generated evaluator, anchored to its own copy of
/// the evaluation plan so the bundle stays self-contained when the owning
/// GeneratedEvaluator is moved or copied. Heap-allocated and immutable
/// behind a shared_ptr; CP.plan() is this bundle's Plan member.
struct CompiledArtifact {
  EvaluationPlan Plan;
  CompiledPlan CP;
  CompiledStorage CS;
  /// False when the artifact was generated with SpaceOptimize off: CS is
  /// then empty and storage-aware engines cannot borrow it.
  bool HasStorage = false;

private:
  friend struct ArtifactCodec;
  CompiledArtifact() = default;
};

/// Counters one cache instance accumulated (also emitted as
/// generator.cache.* trace counters by the generator integration).
struct ArtifactCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;   ///< No artifact file existed for the key.
  uint64_t Rejects = 0;  ///< A file existed but failed validation.
  uint64_t Stores = 0;
  uint64_t StoreFailures = 0;
};

/// Outcome of one cache lookup.
enum class CacheLookup : uint8_t { Hit, Miss, Reject };

/// A content-addressed artifact store in one directory (created on first
/// store). Instances are cheap to construct and keep no open handles; all
/// coordination is through the filesystem's atomic rename.
class ArtifactCache {
public:
  explicit ArtifactCache(std::string Dir) : Dir(std::move(Dir)) {}

  /// The stable content hash keying artifacts: a canonical encoding of the
  /// grammar's full structure (phyla, attributes, productions, rules with
  /// function names and flags) and of every output-affecting generator
  /// option. GfaOptions are excluded — both fixpoint formulations produce
  /// identical results (pinned by CascadeDifferentialTest).
  static uint64_t artifactKey(const AttributeGrammar &AG,
                              const GeneratorOptions &Opts);

  /// Hash of the grammar's canonical encoding alone, with no generator
  /// options mixed in. Edit logs and persisted incremental sessions key
  /// their containers off this (salted per file kind), so they bind to the
  /// language rather than to one generator configuration.
  static uint64_t grammarKey(const AttributeGrammar &AG);

  /// Path the artifact for \p Key lives at inside this cache.
  std::string pathFor(uint64_t Key) const;

  /// Tries to load the artifact for (AG, Opts) into \p G. On Hit, G is a
  /// complete successful GeneratedEvaluator (verdicts, transform, plan,
  /// storage, compiled bundle) bound to \p AG, with FromCache set and
  /// zeroed phase times. On Miss/Reject, G is untouched and \p Reason says
  /// why (empty on a plain miss).
  CacheLookup load(const AttributeGrammar &AG, const GeneratorOptions &Opts,
                   GeneratedEvaluator &G, std::string &Reason);

  /// Serializes \p G (which must be a successful generation for \p AG) and
  /// atomically installs it for (AG, Opts). Returns false on I/O failure;
  /// never throws. Fills G.Compiled with the bundle it serialized when the
  /// caller has not already built one.
  bool store(const AttributeGrammar &AG, const GeneratorOptions &Opts,
             GeneratedEvaluator &G);

  /// Serializes \p G exactly as store() would, without touching the disk
  /// (the golden-artifact test and the fuzzers build images in memory).
  static std::vector<uint8_t> encode(const AttributeGrammar &AG,
                                     const GeneratorOptions &Opts,
                                     const GeneratedEvaluator &G);

  /// Decodes \p Bytes against the live grammar, with full validation.
  /// Returns false with a reason on any rejection.
  static bool decode(std::span<const uint8_t> Bytes,
                     const AttributeGrammar &AG, const GeneratorOptions &Opts,
                     GeneratedEvaluator &G, std::string &Reason);

  const ArtifactCacheStats &stats() const { return Stats; }

private:
  /// encode()/decode() against a precomputed artifactKey(AG, Opts), so a
  /// load or store hashes the grammar's canonical encoding only once.
  static std::vector<uint8_t> encode(const AttributeGrammar &AG,
                                     const GeneratorOptions &Opts,
                                     const GeneratedEvaluator &G,
                                     uint64_t Key);
  static bool decode(std::span<const uint8_t> Bytes,
                     const AttributeGrammar &AG, const GeneratorOptions &Opts,
                     GeneratedEvaluator &G, std::string &Reason,
                     uint64_t Key);

  std::string Dir;
  ArtifactCacheStats Stats;
};

/// Builds (or reuses) the shared compiled bundle for a successful
/// generation without touching the disk: returns G.Compiled when the
/// generator or a cache store already produced one, otherwise compiles a
/// fresh self-contained bundle from G's plan (and storage layout when
/// \p WithStorage). This is how concurrent incremental sessions obtain the
/// one immutable CompiledPlan they all borrow.
std::shared_ptr<const CompiledArtifact>
compileArtifact(const GeneratedEvaluator &G, bool WithStorage = true);

} // namespace fnc2

#endif // FNC2_FNC2_ARTIFACTCACHE_H
