//===- incremental/Session.cpp --------------------------------------------===//

#include "incremental/Session.h"

#include "serialize/ArtifactFile.h"

#include <algorithm>
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
constexpr uint32_t SecSessStamps = 4;
constexpr uint32_t SecSessLog = 5;

/// Preorder node enumeration — the canonical node numbering every section
/// below indexes by. Iterative (sessions reach 100k nodes).
std::vector<TreeNode *> preorderNodes(TreeNode *Root) {
  std::vector<TreeNode *> Out;
  if (!Root)
    return Out;
  std::vector<TreeNode *> Stack = {Root};
  while (!Stack.empty()) {
    TreeNode *N = Stack.back();
    Stack.pop_back();
    Out.push_back(N);
    for (unsigned I = N->arity(); I != 0; --I)
      Stack.push_back(N->child(I - 1));
  }
  return Out;
}

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
  for (const TreeNode *N : preorderNodes(T.root())) {
    FrameW.u32(N->PartitionId);
    FrameW.boolean(N->hasFrame());
    if (!N->hasFrame())
      continue;
    FrameW.u16(N->FrameAttrs);
    FrameW.u16(N->FrameLocals);
    const unsigned Slots = N->numSlots();
    for (unsigned W = 0; W != bitmapWords(Slots); ++W)
      FrameW.u64(N->ComputedBits[W]);
    for (unsigned S = 0; S != Slots; ++S)
      encodeValue(FrameW, N->Slots[S]);
  }
}

void IncrementalSession::encodeStamps(ByteWriter &W) const {
  // Canonical form: every map keyed ascending by preorder index, so one
  // session state has exactly one encoding (unordered_map iteration order
  // never leaks into the bytes — the bit-identity guarantee depends on it).
  std::unordered_map<const TreeNode *, uint32_t> Index;
  {
    uint32_t I = 0;
    for (const TreeNode *N : preorderNodes(T.root()))
      Index[N] = I++;
  }
  W.u64(IE.WriteClock);

  std::vector<std::pair<uint32_t, uint64_t>> LW;
  for (const auto &[Node, Clock] : IE.LastWrite)
    if (auto It = Index.find(Node); It != Index.end())
      LW.emplace_back(It->second, Clock);
  std::sort(LW.begin(), LW.end());
  W.u32(static_cast<uint32_t>(LW.size()));
  for (const auto &[I, Clock] : LW) {
    W.u32(I);
    W.u64(Clock);
  }

  std::vector<std::pair<uint32_t, const std::vector<uint64_t> *>> RS;
  for (const auto &[Node, Stamps] : IE.RevisitStamp)
    if (auto It = Index.find(Node); It != Index.end())
      RS.emplace_back(It->second, &Stamps);
  std::sort(RS.begin(), RS.end());
  W.u32(static_cast<uint32_t>(RS.size()));
  for (const auto &[I, Stamps] : RS) {
    W.u32(I);
    W.u32(static_cast<uint32_t>(Stamps->size()));
    for (uint64_t S : *Stamps)
      W.u64(S);
  }

  std::vector<std::pair<uint32_t, const std::vector<uint8_t> *>> CH;
  for (const auto &[Node, Marks] : IE.Changed)
    if (auto It = Index.find(Node); It != Index.end())
      CH.emplace_back(It->second, &Marks);
  std::sort(CH.begin(), CH.end());
  W.u32(static_cast<uint32_t>(CH.size()));
  for (const auto &[I, Marks] : CH) {
    W.u32(I);
    W.u32(static_cast<uint32_t>(Marks->size()));
    for (uint8_t M : *Marks)
      W.u8(M);
  }
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
  if (!IE.EditSites.empty() || !IE.Dirty.empty() || !IE.LexemeChanged.empty()) {
    WhyNot = "edits pending an update(); a session persists only quiescent";
    return false;
  }

  serialize::ArtifactWriter W(fileKey(*AG));
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
  encodeStamps(W.section(SecSessStamps));
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
  if (!File.open(Bytes, fileKey(*AG), Reason))
    return false;
  for (uint32_t Sec :
       {SecSessMeta, SecSessTree, SecSessFrames, SecSessStamps, SecSessLog})
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
  std::vector<TreeNode *> Nodes = preorderNodes(Scratch.root());
  if (Nodes.size() != NodeCount) {
    Reason = "session tree: node count disagrees with meta";
    return false;
  }

  // --- frames -------------------------------------------------------------
  ByteReader FrameR = File.section(SecSessFrames);
  const CompiledPlan &CP = Bundle->CP;
  for (TreeNode *N : Nodes) {
    N->PartitionId = FrameR.u32();
    bool HasFrame = FrameR.boolean();
    if (!FrameR.ok())
      break;
    if (!HasFrame)
      continue;
    const FrameShape &Shape = CP.frameOf(N->Prod);
    uint16_t NumAttrs = FrameR.u16();
    uint16_t NumLocals = FrameR.u16();
    if (!FrameR.ok())
      break;
    if (NumAttrs != Shape.NumAttrs || NumLocals != Shape.NumLocals ||
        (NumAttrs | NumLocals) == 0) {
      FrameR.fail("frame shape disagrees with the plan at '" +
                  AG->prod(N->Prod).Name + "'");
      break;
    }
    CP.ensureFrame(N);
    const unsigned Slots = N->numSlots();
    for (unsigned W = 0; W != bitmapWords(Slots); ++W)
      N->ComputedBits[W] = FrameR.u64();
    for (unsigned S = 0; S != Slots && FrameR.ok(); ++S)
      N->Slots[S] = decodeValue(FrameR);
    if (!FrameR.ok())
      break;
  }
  if (!FrameR.ok() || FrameR.remaining() != 0)
    return Rej(FrameR, "frames", "trailing bytes");

  // --- stamps -------------------------------------------------------------
  ByteReader StampR = File.section(SecSessStamps);
  uint64_t NewClock = StampR.u64();
  std::unordered_map<const TreeNode *, uint64_t> NewLastWrite;
  std::unordered_map<const TreeNode *, std::vector<uint64_t>> NewRevisit;
  std::unordered_map<const TreeNode *, std::vector<uint8_t>> NewChanged;
  {
    uint32_t N = StampR.count(12);
    int64_t Prev = -1;
    for (uint32_t I = 0; I != N && StampR.ok(); ++I) {
      uint32_t Idx = StampR.u32();
      uint64_t Clock = StampR.u64();
      if (!StampR.ok())
        break;
      if (Idx >= Nodes.size() || int64_t(Idx) <= Prev) {
        StampR.fail("last-write entry out of order or out of range");
        break;
      }
      Prev = Idx;
      NewLastWrite[Nodes[Idx]] = Clock;
    }
  }
  {
    uint32_t N = StampR.count(8);
    int64_t Prev = -1;
    for (uint32_t I = 0; I != N && StampR.ok(); ++I) {
      uint32_t Idx = StampR.u32();
      uint32_t Len = StampR.count(8);
      if (!StampR.ok())
        break;
      if (Idx >= Nodes.size() || int64_t(Idx) <= Prev || Len > 64) {
        StampR.fail("revisit-stamp entry out of order or out of range");
        break;
      }
      Prev = Idx;
      std::vector<uint64_t> Stamps(Len);
      for (uint32_t S = 0; S != Len; ++S)
        Stamps[S] = StampR.u64();
      NewRevisit[Nodes[Idx]] = std::move(Stamps);
    }
  }
  {
    uint32_t N = StampR.count(8);
    int64_t Prev = -1;
    for (uint32_t I = 0; I != N && StampR.ok(); ++I) {
      uint32_t Idx = StampR.u32();
      uint32_t Len = StampR.count(1);
      if (!StampR.ok())
        break;
      if (Idx >= Nodes.size() || int64_t(Idx) <= Prev) {
        StampR.fail("changed-marks entry out of order or out of range");
        break;
      }
      const FrameShape &Shape = CP.frameOf(Nodes[Idx]->Prod);
      if (Len != unsigned(Shape.NumAttrs) + Shape.NumLocals) {
        StampR.fail("changed-marks length disagrees with the frame shape");
        break;
      }
      Prev = Idx;
      std::vector<uint8_t> Marks(Len);
      for (uint32_t S = 0; S != Len && StampR.ok(); ++S) {
        Marks[S] = StampR.u8();
        if (Marks[S] > 1)
          StampR.fail("changed mark byte out of range");
      }
      NewChanged[Nodes[Idx]] = std::move(Marks);
    }
  }
  if (!StampR.ok() || StampR.remaining() != 0)
    return Rej(StampR, "stamps", "trailing bytes");

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
  IE.Failed = false;
  IE.Dirty.clear();
  IE.EditSites.clear();
  IE.LexemeChanged.clear();
  IE.WriteClock = NewClock;
  IE.LastWrite = std::move(NewLastWrite);
  IE.RevisitStamp = std::move(NewRevisit);
  IE.Changed = std::move(NewChanged);
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
