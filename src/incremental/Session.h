//===- incremental/Session.h - Persistent incremental sessions --*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Long-lived incremental editing sessions over one grammar: a tree, its
/// full attribution, and the edit log that produced them, bundled behind a
/// small apply/replay API and serializable as one artifact-container file.
///
/// Sharing contract: every session borrows one immutable CompiledArtifact
/// (plan + compiled instruction streams): the generator's
/// GeneratedEvaluator::Compiled. The bundle is read-only after construction;
/// all mutable state (tree, frames, dirty marks, revisit memo, log) is
/// per-session, so any number of sessions may run concurrently on one bundle
/// from different threads with no locking — the multi-session stress test
/// pins this under TSan.
///
/// Persistence contract: a *quiescent* session (no edits pending an
/// update()) serializes to bytes such that encode(live) == encode(resumed)
/// byte-for-byte — resuming from disk is indistinguishable from never
/// having stopped. The incremental evaluator's revisit memo is not saved:
/// every update() rebuilds it from scratch before reading it, so a resumed
/// session does the same work as the live one. Saving with edits pending is
/// refused (the dirty sets hold raw node pointers with no meaning on disk);
/// run update() first.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_INCREMENTAL_SESSION_H
#define FNC2_INCREMENTAL_SESSION_H

#include "eval/BatchDriver.h"
#include "fnc2/ArtifactCache.h"
#include "incremental/EditLog.h"

namespace fnc2 {

/// Container version of session files, bumped whenever a section changes
/// shape: an older session image is then a clean container reject, never a
/// partial load. It is kept apart from serialize::kFormatVersion so that a
/// bump leaves the edit-log, native-module and request-log formats alone.
inline constexpr uint32_t kSessionVersion = 2;

/// One editing session: tree + attribution + log.
class IncrementalSession {
public:
  /// \p Bundle must stem from a generation over \p AG (asserted); it is
  /// retained, so the caller may drop its reference.
  IncrementalSession(const AttributeGrammar &AG,
                     std::shared_ptr<const CompiledArtifact> Bundle,
                     UpdateStrategy Strategy = UpdateStrategy::StartAnywhere);

  /// Root-inherited attributes must be provided before start() (and are
  /// recorded so a persisted session carries them). Setting an attribute
  /// again replaces its value.
  void setRootInherited(AttrId A, Value V);

  /// Takes ownership of \p T and computes the initial attribution.
  bool start(Tree T, DiagnosticEngine &Diags);

  /// Applies \p Op through the evaluator, appends it to the log, and runs
  /// one update(). False through \p Diags when the op does not fit the
  /// current tree or evaluation fails.
  bool apply(EditOp Op, DiagnosticEngine &Diags);

  /// Replays the ops of \p L this session has not seen yet (from index
  /// log().size() on), one update() per op.
  bool replay(const EditLog &L, DiagnosticEngine &Diags);

  bool started() const { return Started; }
  Tree &tree() { return T; }
  const Tree &tree() const { return T; }
  const EditLog &log() const { return Log; }
  IncrementalEvaluator &evaluator() { return IE; }
  const IncrementalStats &stats() const { return IE.stats(); }
  const AttributeGrammar &grammar() const { return *AG; }
  UpdateStrategy strategy() const { return Strategy; }

  /// FNV-1a over the canonical tree + frame encoding: two sessions agree
  /// exactly when their trees and complete attributions agree. The golden
  /// corpus commits these digests.
  uint64_t attributionDigest() const;

  /// Serializes the session into the artifact container (per-section
  /// CRCs). Refuses — with \p WhyNot — when the session never started or
  /// has edits pending an update().
  bool encode(std::vector<uint8_t> &Out, std::string &WhyNot) const;

  /// Restores a session image into this session (which must be built over
  /// the same grammar and an identically-fingerprinted plan). Fully
  /// validating: the container version, the tree, every frame shape and
  /// the log are checked before any state is committed; on failure the
  /// session is untouched and \p Reason says why, section-prefixed.
  bool restore(std::span<const uint8_t> Bytes, std::string &Reason);

  /// The container key a session file for \p AG carries (grammar hash,
  /// session-salted).
  static uint64_t fileKey(const AttributeGrammar &AG);

private:
  void encodeTreeAndFrames(serialize::ByteWriter &TreeW,
                           serialize::ByteWriter &FrameW) const;

  const AttributeGrammar *AG;
  std::shared_ptr<const CompiledArtifact> Bundle;
  UpdateStrategy Strategy;
  Tree T;
  EditLog Log;
  IncrementalEvaluator IE;
  /// Root-inherited values, one per attribute in first-set order
  /// (re-installed on restore).
  RootInheritedList RootInh;
  bool Started = false;
};

/// Stores session snapshots as files in one directory (shareable with an
/// ArtifactCache directory: a distinct extension and a salted content key
/// keep the file populations disjoint).
class SessionStore {
public:
  explicit SessionStore(std::string Dir) : Dir(std::move(Dir)) {}

  /// "<dir>/<grammar-key-hex>-<name>.fnc2sess".
  std::string pathFor(const AttributeGrammar &AG,
                      const std::string &Name) const;

  /// Atomic store (temp file + rename), matching the artifact cache's
  /// crash-safety discipline.
  bool store(const IncrementalSession &S, const std::string &Name,
             std::string &Reason) const;

  /// Loads and restores into \p S; false with a reason on missing file,
  /// I/O error or any validation failure.
  bool load(IncrementalSession &S, const std::string &Name,
            std::string &Reason) const;

private:
  std::string Dir;
};

} // namespace fnc2

#endif // FNC2_INCREMENTAL_SESSION_H
