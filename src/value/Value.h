//===- value/Value.h - Attribute value domain -------------------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic value domain attributes range over: unit, integers, booleans,
/// strings, immutable lists and persistent maps (assoc environments used as
/// symbol tables). Maps share structure on extension, which is what makes the
/// incremental evaluator's old/new comparison affordable (paper section
/// 2.1.2: the notion of equality used in the comparison is adaptable; we
/// default to structural equality).
///
/// Strings are interned in a global sharded pool, so string values and map
/// keys compare by pointer first: two equal strings built through ofString()
/// share one pooled object, which turns the incremental cutoff's equality
/// test and mapLookup chains into pointer comparisons. The pool owns its
/// strings for the life of the process, so a string Value and a map key hold
/// a bare pointer and copying either touches no shared reference count. A
/// Value is kind + an integer payload + one shared_ptr: Int/Bool and the
/// interned string pointer live in the payload, and the shared_ptr carries
/// the list / map representation (null for the empty list and map).
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_VALUE_VALUE_H
#define FNC2_VALUE_VALUE_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fnc2 {

struct EnvNode;

/// Interns \p S in the process-wide pool: equal contents yield the same
/// pointer, valid for the lifetime of the process. Thread-safe (sharded
/// locks); the pool only grows, which is the usual compiler-style interning
/// trade.
const std::string *internString(std::string_view S);

/// A dynamically-typed attribute value.
class Value {
public:
  enum class Kind : uint8_t { Unit, Int, Bool, Str, List, Map };

  Value() : TheKind(Kind::Unit) {}

  static Value unit() { return Value(); }
  static Value ofInt(int64_t V);
  static Value ofBool(bool V);
  static Value ofString(std::string V);
  static Value ofList(std::vector<Value> Elems);
  static Value emptyMap();

  Kind kind() const { return TheKind; }
  bool isUnit() const { return TheKind == Kind::Unit; }
  bool isInt() const { return TheKind == Kind::Int; }
  bool isBool() const { return TheKind == Kind::Bool; }
  bool isString() const { return TheKind == Kind::Str; }
  bool isList() const { return TheKind == Kind::List; }
  bool isMap() const { return TheKind == Kind::Map; }

  /// Accessors assert on kind mismatch (programmatic error).
  int64_t asInt() const {
    assert(isInt() && "value is not an integer");
    return IntVal;
  }
  bool asBool() const {
    assert(isBool() && "value is not a boolean");
    return IntVal != 0;
  }
  const std::string &asString() const;
  const std::vector<Value> &asList() const;

  /// Returns a map extended with Key -> V (shares structure with this map).
  Value mapInsert(const std::string &Key, Value V) const;
  /// Looks up Key; returns nullptr when absent.
  const Value *mapLookup(const std::string &Key) const;
  /// Number of visible (non-shadowed) bindings.
  unsigned mapSize() const;
  /// Visible bindings, most recently inserted first, shadowed ones skipped.
  std::vector<std::pair<std::string, Value>> mapEntries() const;

  /// Returns a list with \p V appended (copies; lists are immutable values).
  Value listAppend(Value V) const &;
  /// Rvalue builder path: when this value is the sole owner of its element
  /// vector the append mutates in place, so `L = std::move(L).listAppend(V)`
  /// builds an N-element list in amortized O(N) instead of O(N^2).
  Value listAppend(Value V) &&;
  /// Concatenation of two lists.
  static Value listConcat(const Value &A, const Value &B);

  /// Structural equality; maps compare by visible bindings. Strings and
  /// shared representations short-circuit on pointer identity.
  bool equals(const Value &Other) const;
  bool operator==(const Value &Other) const { return equals(Other); }

  /// Human-readable rendering (lists as [..], maps as {k=v, ..}).
  std::string str() const;

  /// A stable structural hash, consistent with equals().
  size_t hash() const;

  /// The representation's identity, for tests of interning / sharing: the
  /// interned string, or the list / map heap object. Null for Unit/Int/Bool,
  /// the empty list and the empty map.
  const void *identity() const {
    return isString() ? static_cast<const void *>(strPtr()) : Ref.get();
  }

  /// True when \p O holds bit-for-bit the same representation: same kind,
  /// same immediate payload, same heap object (pointer identity — strictly
  /// finer than equals()). Overwriting a value with one that is
  /// same-representation is a no-op for both observable state and
  /// reference counts, so stores into attribute frames may be elided on it.
  bool sameRepresentation(const Value &O) const {
    return TheKind == O.TheKind && IntVal == O.IntVal && Ref == O.Ref;
  }

private:
  const std::string *strPtr() const {
    return reinterpret_cast<const std::string *>(
        static_cast<intptr_t>(IntVal));
  }
  const EnvNode *mapPtr() const {
    return static_cast<const EnvNode *>(Ref.get());
  }

  Kind TheKind;
  /// Int payload; Bool packs here as 0/1, Str as its pooled std::string.
  int64_t IntVal = 0;
  /// List: std::vector<Value> (allocated non-const so the unique-owner
  /// append path may extend it), null for the empty list; Map: EnvNode
  /// chain head, null for the empty map; null for every other kind.
  std::shared_ptr<const void> Ref;
};

/// Persistent association environment: extension chains a new binding in
/// front of the parent, so symbol tables built during evaluation share tails.
/// Keys are interned, so lookup compares pointers, not characters.
struct EnvNode {
  const std::string *Key = nullptr;
  Value Bound;
  std::shared_ptr<const EnvNode> Parent;
};

/// Signature of a semantic function: strict, pure, takes argument values in
/// rule order and returns the defined occurrence's value. The span points
/// into the evaluator's reusable argument buffer and is only valid for the
/// duration of the call.
using SemanticFn = std::function<Value(std::span<const Value>)>;

} // namespace fnc2

#endif // FNC2_VALUE_VALUE_H
