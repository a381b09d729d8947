//===- incremental/Session.cpp --------------------------------------------===//

#include "incremental/Session.h"

#include "serialize/ArtifactFile.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace fnc2;
using serialize::ByteReader;
using serialize::ByteWriter;

namespace {

constexpr uint32_t SecSessMeta = 1;
constexpr uint32_t SecSessTree = 2;
constexpr uint32_t SecSessFrames = 3;
// Id 4 was version 1's section of revisit-memo stamps; it stays retired.
constexpr uint32_t SecSessLog = 5;

unsigned bitmapWords(unsigned NumSlots) { return (NumSlots + 63) / 64; }

} // namespace

//===----------------------------------------------------------------------===//
// IncrementalSession: live API
//===----------------------------------------------------------------------===//

IncrementalSession::IncrementalSession(
    const AttributeGrammar &AG, std::shared_ptr<const CompiledArtifact> Bundle,
    UpdateStrategy Strategy)
    : AG(&AG), Bundle(std::move(Bundle)), Strategy(Strategy), T(AG),
      IE(this->Bundle->CP) {
  assert(this->Bundle->Plan.AG == &AG &&
         "bundle was generated for a different grammar");
}

void IncrementalSession::setRootInherited(AttrId A, Value V) {
  RootInh.set(A, V);
  IE.setRootInherited(A, std::move(V));
}

bool IncrementalSession::start(Tree NewT, DiagnosticEngine &Diags) {
  T = std::move(NewT);
  Started = IE.initial(T, Diags);
  return Started;
}

bool IncrementalSession::apply(EditOp Op, DiagnosticEngine &Diags) {
  assert(Started && "apply() before start()");
  size_t I = Log.append(std::move(Op));
  if (!Log.apply(I, T, &IE, Diags)) {
    // A rejected op never touched the tree; keep the log = applied edits.
    Log.truncate(I);
    return false;
  }
  return IE.update(T, Diags, Strategy);
}

bool IncrementalSession::replay(const EditLog &L, DiagnosticEngine &Diags) {
  for (size_t I = Log.size(); I < L.size(); ++I)
    if (!apply(L.op(I), Diags))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Encoding
//===----------------------------------------------------------------------===//

void IncrementalSession::encodeTreeAndFrames(ByteWriter &TreeW,
                                             ByteWriter &FrameW) const {
  encodeSubtree(TreeW, *AG, T.root());
  forEachPreorder(T.root(), [&FrameW](const TreeNode *N) {
    FrameW.u32(N->PartitionId);
    FrameW.boolean(N->hasFrame());
    if (!N->hasFrame())
      return;
    FrameW.u16(N->FrameAttrs);
    FrameW.u16(N->FrameLocals);
    const unsigned Slots = N->numSlots();
    for (unsigned W = 0; W != bitmapWords(Slots); ++W)
      FrameW.u64(N->ComputedBits[W]);
    for (unsigned S = 0; S != Slots; ++S)
      encodeValue(FrameW, N->Slots[S]);
  });
}

uint64_t IncrementalSession::attributionDigest() const {
  assert(Started && "digest of a session that never started");
  ByteWriter TreeW, FrameW;
  encodeTreeAndFrames(TreeW, FrameW);
  uint64_t H = serialize::fnv1a64(TreeW.bytes());
  return serialize::fnv1a64(FrameW.bytes(), H);
}

uint64_t IncrementalSession::fileKey(const AttributeGrammar &AG) {
  return ArtifactCache::grammarKey(AG) ^ 0x5E5510AA5E5510AAull;
}

bool IncrementalSession::encode(std::vector<uint8_t> &Out,
                                std::string &WhyNot) const {
  if (!Started) {
    WhyNot = "session never started";
    return false;
  }
  if (!IE.quiescent()) {
    WhyNot = "edits pending an update(); a session persists only quiescent";
    return false;
  }

  serialize::ArtifactWriter W(fileKey(*AG), kSessionVersion);
  ByteWriter &M = W.section(SecSessMeta);
  M.str(AG->Name);
  M.u8(static_cast<uint8_t>(Strategy));
  M.u32(T.size());
  M.u64(planFingerprint(Bundle->CP));
  M.u32(static_cast<uint32_t>(RootInh.size()));
  for (const auto &[A, V] : RootInh) {
    M.u32(A);
    encodeValue(M, V);
  }

  // Tree and frames are produced by one walk but land in two sections;
  // encode into locals first — section() references do not survive the
  // next section() call.
  ByteWriter TreeW, FrameW;
  encodeTreeAndFrames(TreeW, FrameW);
  W.section(SecSessTree).raw(TreeW.bytes().data(), TreeW.bytes().size());
  W.section(SecSessFrames).raw(FrameW.bytes().data(), FrameW.bytes().size());
  Log.encode(W.section(SecSessLog));
  Out = W.finish();
  return true;
}

//===----------------------------------------------------------------------===//
// Restore
//===----------------------------------------------------------------------===//

bool IncrementalSession::restore(std::span<const uint8_t> Bytes,
                                 std::string &Reason) {
  serialize::ArtifactReader File;
  if (!File.open(Bytes, fileKey(*AG), Reason, kSessionVersion)) {
    Reason = "session container: " + Reason;
    return false;
  }
  for (uint32_t Sec : {SecSessMeta, SecSessTree, SecSessFrames, SecSessLog})
    if (!File.hasSection(Sec)) {
      Reason = "session: missing section " + std::to_string(Sec);
      return false;
    }
  auto Rej = [&Reason](ByteReader &R, const char *Sec, const char *Fallback) {
    Reason = std::string("session ") + Sec + ": " +
             (R.ok() ? Fallback : R.error());
    return false;
  };

  // --- meta ---------------------------------------------------------------
  ByteReader M = File.section(SecSessMeta);
  std::string Name = M.str();
  uint8_t StrategyByte = M.u8();
  uint32_t NodeCount = M.u32();
  uint64_t Fingerprint = M.u64();
  uint32_t NumRootInh = M.count(5);
  RootInheritedList NewRootInh;
  for (uint32_t I = 0; I != NumRootInh && M.ok(); ++I) {
    uint32_t A = M.u32();
    if (M.ok() && A >= AG->Attrs.size()) {
      M.fail("root-inherited attribute id out of range");
      break;
    }
    NewRootInh.set(A, decodeValue(M));
  }
  if (!M.ok() || M.remaining() != 0)
    return Rej(M, "meta", "trailing bytes");
  if (Name != AG->Name) {
    Reason = "session meta: grammar name mismatch ('" + Name + "' vs '" +
             AG->Name + "')";
    return false;
  }
  if (StrategyByte > static_cast<uint8_t>(UpdateStrategy::StartAnywhere)) {
    Reason = "session meta: strategy byte out of range";
    return false;
  }
  if (Fingerprint != planFingerprint(Bundle->CP)) {
    Reason = "session meta: plan fingerprint mismatch (saved under a "
             "different compiled plan)";
    return false;
  }

  // --- tree ---------------------------------------------------------------
  ByteReader TreeR = File.section(SecSessTree);
  Tree Scratch(*AG);
  {
    std::unique_ptr<TreeNode> Root = decodeSubtree(TreeR, Scratch);
    if (!Root || TreeR.remaining() != 0)
      return Rej(TreeR, "tree", "trailing bytes");
    if (AG->prod(Root->Prod).Lhs != AG->Start) {
      Reason = "session tree: root is not of the start phylum";
      return false;
    }
    Scratch.setRoot(std::move(Root));
  }
  if (Scratch.size() != NodeCount) {
    Reason = "session tree: node count disagrees with meta";
    return false;
  }

  // --- frames -------------------------------------------------------------
  ByteReader FrameR = File.section(SecSessFrames);
  const CompiledPlan &CP = Bundle->CP;
  // The walk cannot stop early: once the reader fails, every further
  // node is passed over.
  forEachPreorder(Scratch.root(), [&](TreeNode *N) {
    if (!FrameR.ok())
      return;
    N->PartitionId = FrameR.u32();
    bool HasFrame = FrameR.boolean();
    if (!FrameR.ok() || !HasFrame)
      return;
    const FrameShape &Shape = CP.frameOf(N->Prod);
    uint16_t NumAttrs = FrameR.u16();
    uint16_t NumLocals = FrameR.u16();
    if (!FrameR.ok())
      return;
    if (NumAttrs != Shape.NumAttrs || NumLocals != Shape.NumLocals ||
        (NumAttrs | NumLocals) == 0) {
      FrameR.fail("frame shape disagrees with the plan at '" +
                  AG->prod(N->Prod).Name + "'");
      return;
    }
    CP.ensureFrame(N);
    const unsigned Slots = N->numSlots();
    for (unsigned W = 0; W != bitmapWords(Slots); ++W)
      N->ComputedBits[W] = FrameR.u64();
    for (unsigned S = 0; S != Slots && FrameR.ok(); ++S)
      N->Slots[S] = decodeValue(FrameR);
  });
  if (!FrameR.ok() || FrameR.remaining() != 0)
    return Rej(FrameR, "frames", "trailing bytes");

  // --- log ----------------------------------------------------------------
  ByteReader LogR = File.section(SecSessLog);
  EditLog NewLog;
  if (!EditLog::decode(LogR, *AG, NewLog) || LogR.remaining() != 0)
    return Rej(LogR, "log", "trailing bytes");

  // --- commit (nothing above mutated the session) -------------------------
  T = std::move(Scratch);
  Strategy = static_cast<UpdateStrategy>(StrategyByte);
  Log = std::move(NewLog);
  RootInh = std::move(NewRootInh);
  for (const auto &[A, V] : RootInh)
    IE.setRootInherited(A, V);
  IE.resume();
  Started = true;
  return true;
}

//===----------------------------------------------------------------------===//
// SessionStore
//===----------------------------------------------------------------------===//

std::string SessionStore::pathFor(const AttributeGrammar &AG,
                                  const std::string &Name) const {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(
                    IncrementalSession::fileKey(AG)));
  return Dir + "/" + Hex + "-" + Name + ".fnc2sess";
}

bool SessionStore::store(const IncrementalSession &S, const std::string &Name,
                         std::string &Reason) const {
  std::vector<uint8_t> Bytes;
  if (!S.encode(Bytes, Reason))
    return false;

  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  const std::string Path = pathFor(S.grammar(), Name);
  static std::atomic<uint64_t> Counter{0};
  const std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<unsigned long>(::getpid())) +
      "." + std::to_string(Counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out) {
      Reason = "cannot open temp file for writing";
      return false;
    }
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    if (!Out.good()) {
      Reason = "short write";
      Out.close();
      std::filesystem::remove(Tmp, Ec);
      return false;
    }
  }
  std::filesystem::rename(Tmp, Path, Ec);
  if (Ec) {
    Reason = "rename failed: " + Ec.message();
    std::filesystem::remove(Tmp, Ec);
    return false;
  }
  return true;
}

bool SessionStore::load(IncrementalSession &S, const std::string &Name,
                        std::string &Reason) const {
  const std::string Path = pathFor(S.grammar(), Name);
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Reason = "no session file at " + Path;
    return false;
  }
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  if (!In.good() && !In.eof()) {
    Reason = "read error";
    return false;
  }
  return S.restore(Bytes, Reason);
}
