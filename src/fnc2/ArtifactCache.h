//===- fnc2/ArtifactCache.h - Persistent generator artifacts ----*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent generator-artifact cache: the warm-start analogue of
/// FNC-2's mkfnc2 driver (paper section 3.1), which only re-runs generator
/// phases whose inputs changed. The generator's output is a pure function
/// of the abstract grammar and the generator options, so an artifact is
/// content-addressed by a hash of both and reloaded on every later start.
///
/// What is stored is only what is expensive to recompute: the SNC/DNC/OAG
/// verdicts with their relations (the circularity cascade, exponential in
/// the worst case) and the transformation's partitions and linear orders.
/// A hit re-derives the rest from the transform through the same calls the
/// cascade makes: visit sequences, the space optimization (when enabled)
/// and the compiled bundle. On the `compile` roster of perfbench/ (one
/// traced run, shared 4-core host, RelWithDebInfo) those take 0.76 ms per
/// grammar on average (3.9 ms at S4), against 3.0 ms (15.7 ms) for the
/// classification and transformation they follow, and storing them too
/// would make the artifact 8x larger (139 against 17 KiB on average).
///
/// Trust model: a cached artifact is advisory, never authoritative. Loads
/// validate the container (magic, format version, content key, section
/// CRCs; see serialize/ArtifactFile.h), then every id and size against the
/// live grammar, then the invariants of the transformation itself
/// (partitions cover their phyla, linear orders respect DP(p) and the
/// committed partitions, every committed partition has its instances), so
/// a CRC-valid but inconsistent transform cannot yield a wrong plan.
/// Anything that fails is a clean rejection whose reason starts with the
/// failing section ("container", "meta", "classify", "transform" or
/// "plan") — the generator falls back to the cascade and overwrites the bad
/// file. Stores are atomic (temp file + rename), so a reader never
/// observes a half-written artifact even under concurrent writers racing on
/// one cache directory.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_FNC2_ARTIFACTCACHE_H
#define FNC2_FNC2_ARTIFACTCACHE_H

#include "fnc2/Generator.h"

namespace fnc2 {

/// Container version of generator artifacts, bumped whenever one of their
/// section encodings changes shape. It is kept apart from
/// serialize::kFormatVersion so that such a bump leaves the edit-log,
/// session, native-module and request-log formats alone.
inline constexpr uint32_t kGeneratorArtifactVersion = 2;

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
  /// option. GfaOptions are excluded — the worklist engine and the naive
  /// reference fixpoint it selects between produce identical results
  /// (pinned by CascadeDifferentialTest).
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
  /// complete successful GeneratedEvaluator bound to \p AG: the stored
  /// verdicts and transform plus the re-derived plan, storage and compiled
  /// bundle, with FromCache set and zeroed phase times. On Miss/Reject, G
  /// is untouched and \p Reason says why (empty on a plain miss).
  CacheLookup load(const AttributeGrammar &AG, const GeneratorOptions &Opts,
                   GeneratedEvaluator &G, std::string &Reason);

  /// Serializes \p G (which must be a successful generation for \p AG) and
  /// atomically installs it for (AG, Opts). Returns false on I/O failure;
  /// never throws.
  bool store(const AttributeGrammar &AG, const GeneratorOptions &Opts,
             const GeneratedEvaluator &G);

  /// load()/store() against a precomputed \p Key == artifactKey(AG, Opts),
  /// so a miss followed by a store hashes the grammar only once.
  CacheLookup load(const AttributeGrammar &AG, const GeneratorOptions &Opts,
                   uint64_t Key, GeneratedEvaluator &G, std::string &Reason);
  bool store(const AttributeGrammar &AG, const GeneratorOptions &Opts,
             uint64_t Key, const GeneratedEvaluator &G);

  /// Serializes \p G exactly as store() would, without touching the disk
  /// (the golden-artifact test and the fuzzers build images in memory).
  static std::vector<uint8_t> encode(const AttributeGrammar &AG,
                                     const GeneratorOptions &Opts,
                                     const GeneratedEvaluator &G);

  /// Decodes \p Bytes against the live grammar, with full validation, and
  /// re-derives the plan, storage and compiled bundle. Returns false with a
  /// section-prefixed reason on any rejection, leaving \p G untouched.
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

} // namespace fnc2

#endif // FNC2_FNC2_ARTIFACTCACHE_H
