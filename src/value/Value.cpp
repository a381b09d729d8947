//===- value/Value.cpp ----------------------------------------------------===//

#include "value/Value.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <mutex>
#include <set>
#include <string_view>
#include <unordered_set>

using namespace fnc2;

//===----------------------------------------------------------------------===//
// String interning
//===----------------------------------------------------------------------===//

namespace {

/// Heterogeneous lookup, so a probe key is hashed and compared as a view
/// without building a std::string.
struct InternHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>()(S);
  }
};

/// One lock + table per shard; sharding keeps the batch engines' worker
/// threads from serializing on a single pool mutex. The set owns every
/// interned string in a node of its own, which neither rehashing nor later
/// insertions move, and nothing is ever erased, so a returned pointer stays
/// valid for the life of the pool.
struct InternShard {
  std::mutex M;
  std::unordered_set<std::string, InternHash, std::equal_to<>> Table;
};

constexpr size_t NumInternShards = 16;

std::array<InternShard, NumInternShards> &internShards() {
  static std::array<InternShard, NumInternShards> Shards;
  return Shards;
}

/// Cheap non-cryptographic fingerprint (length + boundary bytes) indexing
/// the thread-local recent-intern memo. Collisions only cost a failed
/// compare and a trip through the shared pool.
size_t internFingerprint(std::string_view S) {
  size_t F = S.size() * 0x9e3779b97f4a7c15ull;
  if (!S.empty()) {
    F ^= static_cast<unsigned char>(S.front());
    F = F * 31 + static_cast<unsigned char>(S.back());
    F = F * 31 + static_cast<unsigned char>(S[S.size() / 2]);
  }
  return F;
}

constexpr size_t RecentInternSlots = 512;

} // namespace

const std::string *fnc2::internString(std::string_view S) {
  // Fast path: evaluators re-intern the same attribute strings round after
  // round; a direct-mapped thread-local memo of canonical pool pointers
  // answers repeats with one memcmp — no hash, no lock. Entries are
  // pointers previously returned by the pool, so pointer-uniqueness of
  // interned strings is preserved.
  static thread_local std::array<const std::string *, RecentInternSlots>
      Recent{};
  const std::string *&Slot = Recent[internFingerprint(S) % RecentInternSlots];
  if (Slot && *Slot == S)
    return Slot;

  const size_t H = InternHash()(S);
  InternShard &Shard = internShards()[H % NumInternShards];
  std::lock_guard<std::mutex> Lock(Shard.M);
  auto It = Shard.Table.find(S);
  if (It == Shard.Table.end())
    It = Shard.Table.emplace(S).first;
  return Slot = &*It;
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

/// What asList() returns for the unallocated empty list.
static constinit const std::vector<Value> EmptyList;

Value Value::ofInt(int64_t V) {
  Value R;
  R.TheKind = Kind::Int;
  R.IntVal = V;
  return R;
}

Value Value::ofBool(bool V) {
  Value R;
  R.TheKind = Kind::Bool;
  R.IntVal = V ? 1 : 0;
  return R;
}

Value Value::ofString(std::string V) {
  Value R;
  R.TheKind = Kind::Str;
  R.IntVal = reinterpret_cast<intptr_t>(internString(V));
  return R;
}

Value Value::ofList(std::vector<Value> Elems) {
  Value R;
  R.TheKind = Kind::List;
  // The empty list stays unallocated, like the empty map. A non-empty one is
  // allocated non-const: the sole-owner listAppend path extends it in place.
  if (!Elems.empty())
    R.Ref = std::make_shared<std::vector<Value>>(std::move(Elems));
  return R;
}

Value Value::emptyMap() {
  Value R;
  R.TheKind = Kind::Map;
  return R;
}

const std::string &Value::asString() const {
  assert(isString() && "value is not a string");
  return *strPtr();
}

const std::vector<Value> &Value::asList() const {
  assert(isList() && "value is not a list");
  return Ref ? *static_cast<const std::vector<Value> *>(Ref.get())
             : EmptyList;
}

//===----------------------------------------------------------------------===//
// Maps
//===----------------------------------------------------------------------===//

Value Value::mapInsert(const std::string &Key, Value V) const {
  assert(isMap() && "value is not a map");
  auto Node = std::make_shared<EnvNode>();
  Node->Key = internString(Key);
  Node->Bound = std::move(V);
  Node->Parent = std::static_pointer_cast<const EnvNode>(Ref);
  Value R;
  R.TheKind = Kind::Map;
  R.Ref = std::move(Node);
  return R;
}

const Value *Value::mapLookup(const std::string &Key) const {
  assert(isMap() && "value is not a map");
  if (!Ref)
    return nullptr;
  // Every key in the chain is interned, so one intern of the probe key turns
  // the walk into pure pointer comparisons.
  const std::string *K = internString(Key);
  for (const EnvNode *N = mapPtr(); N; N = N->Parent.get())
    if (N->Key == K)
      return &N->Bound;
  return nullptr;
}

unsigned Value::mapSize() const {
  return static_cast<unsigned>(mapEntries().size());
}

std::vector<std::pair<std::string, Value>> Value::mapEntries() const {
  assert(isMap() && "value is not a map");
  std::vector<std::pair<std::string, Value>> Out;
  // Interning makes content-dedup a pointer-dedup.
  std::unordered_set<const std::string *> Seen;
  for (const EnvNode *N = mapPtr(); N; N = N->Parent.get())
    if (Seen.insert(N->Key).second)
      Out.emplace_back(*N->Key, N->Bound);
  return Out;
}

//===----------------------------------------------------------------------===//
// Lists
//===----------------------------------------------------------------------===//

Value Value::listAppend(Value V) const & {
  assert(isList() && "value is not a list");
  std::vector<Value> Elems = asList();
  Elems.push_back(std::move(V));
  return ofList(std::move(Elems));
}

Value Value::listAppend(Value V) && {
  assert(isList() && "value is not a list");
  if (Ref && Ref.use_count() == 1) {
    // Sole owner: extend the vector in place (it was allocated non-const in
    // ofList) and hand the ownership to the result.
    auto *Vec = static_cast<std::vector<Value> *>(const_cast<void *>(Ref.get()));
    Vec->push_back(std::move(V));
    Value R;
    R.TheKind = Kind::List;
    R.Ref = std::move(Ref);
    TheKind = Kind::Unit;
    return R;
  }
  return static_cast<const Value &>(*this).listAppend(std::move(V));
}

Value Value::listConcat(const Value &A, const Value &B) {
  const auto &BE = B.asList();
  // Lists are immutable values, so an empty side shares the other operand.
  if (A.asList().empty())
    return B;
  if (BE.empty())
    return A;
  std::vector<Value> Elems = A.asList();
  Elems.insert(Elems.end(), BE.begin(), BE.end());
  return ofList(std::move(Elems));
}

//===----------------------------------------------------------------------===//
// Equality / rendering / hashing
//===----------------------------------------------------------------------===//

bool Value::equals(const Value &Other) const {
  if (TheKind != Other.TheKind)
    return false;
  switch (TheKind) {
  case Kind::Unit:
    return true;
  case Kind::Int:
  case Kind::Bool:
    return IntVal == Other.IntVal;
  case Kind::Str:
    // Interned: equal contents share one object. The content fallback keeps
    // equality total even for strings from a hypothetical second pool.
    return IntVal == Other.IntVal || *strPtr() == *Other.strPtr();
  case Kind::List: {
    if (Ref == Other.Ref)
      return true;
    const auto &A = asList(), &B = Other.asList();
    if (A.size() != B.size())
      return false;
    for (size_t I = 0, E = A.size(); I != E; ++I)
      if (!A[I].equals(B[I]))
        return false;
    return true;
  }
  case Kind::Map: {
    if (Ref == Other.Ref)
      return true;
    auto A = mapEntries(), B = Other.mapEntries();
    if (A.size() != B.size())
      return false;
    auto ByKey = [](const auto &X, const auto &Y) { return X.first < Y.first; };
    std::sort(A.begin(), A.end(), ByKey);
    std::sort(B.begin(), B.end(), ByKey);
    for (size_t I = 0, E = A.size(); I != E; ++I)
      if (A[I].first != B[I].first || !A[I].second.equals(B[I].second))
        return false;
    return true;
  }
  }
  return false;
}

std::string Value::str() const {
  switch (TheKind) {
  case Kind::Unit:
    return "()";
  case Kind::Int:
    return std::to_string(IntVal);
  case Kind::Bool:
    return IntVal ? "true" : "false";
  case Kind::Str:
    return "\"" + *strPtr() + "\"";
  case Kind::List: {
    std::string Out = "[";
    const auto &Elems = asList();
    for (size_t I = 0, E = Elems.size(); I != E; ++I) {
      if (I)
        Out += ", ";
      Out += Elems[I].str();
    }
    Out += "]";
    return Out;
  }
  case Kind::Map: {
    auto Entries = mapEntries();
    std::sort(Entries.begin(), Entries.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    std::string Out = "{";
    for (size_t I = 0, E = Entries.size(); I != E; ++I) {
      if (I)
        Out += ", ";
      Out += Entries[I].first;
      Out += "=";
      Out += Entries[I].second.str();
    }
    Out += "}";
    return Out;
  }
  }
  return "<?>";
}

static size_t hashCombine(size_t Seed, size_t V) {
  return Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

size_t Value::hash() const {
  size_t H = static_cast<size_t>(TheKind);
  switch (TheKind) {
  case Kind::Unit:
    break;
  case Kind::Int:
    H = hashCombine(H, std::hash<int64_t>()(IntVal));
    break;
  case Kind::Bool:
    H = hashCombine(H, IntVal ? 1 : 2);
    break;
  case Kind::Str:
    // Content hash, so it stays consistent with the content fallback in
    // equals() regardless of interning.
    H = hashCombine(H, std::hash<std::string>()(*strPtr()));
    break;
  case Kind::List:
    for (const Value &E : asList())
      H = hashCombine(H, E.hash());
    break;
  case Kind::Map: {
    auto Entries = mapEntries();
    std::sort(Entries.begin(), Entries.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    for (const auto &[K, V] : Entries) {
      H = hashCombine(H, std::hash<std::string>()(K));
      H = hashCombine(H, V.hash());
    }
    break;
  }
  }
  return H;
}
