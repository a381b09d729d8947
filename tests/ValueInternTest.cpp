//===- tests/ValueInternTest.cpp - string interning invariants ------------===//
//
// The interning pool underpins the compiled evaluators' value layout: string
// values and map keys compare by pointer first, so two equal strings built
// anywhere in the process must share one heap object, and the pool must keep
// that guarantee under concurrent interning (this file runs in the TSan gate
// alongside the concurrency suite).
//
//===----------------------------------------------------------------------===//

#include "value/Value.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace fnc2;

namespace {

TEST(ValueInternTest, EqualContentsShareOneObject) {
  Value A = Value::ofString("stack_pointer");
  Value B = Value::ofString(std::string("stack_") + "pointer");
  ASSERT_NE(A.identity(), nullptr);
  EXPECT_EQ(A.identity(), B.identity())
      << "equal strings must intern to the same representation";
  EXPECT_TRUE(A.equals(B));
  EXPECT_EQ(A.hash(), B.hash());
}

TEST(ValueInternTest, DistinctContentsStayDistinct) {
  Value A = Value::ofString("alpha");
  Value B = Value::ofString("beta");
  EXPECT_NE(A.identity(), B.identity());
  EXPECT_FALSE(A.equals(B));
}

TEST(ValueInternTest, InternStringMatchesOfString) {
  const std::string *P = internString("gamma");
  Value V = Value::ofString("gamma");
  EXPECT_EQ(static_cast<const void *>(P), V.identity());
  EXPECT_EQ(*P, "gamma");
}

TEST(ValueInternTest, InternedPointerOutlivesEveryValue) {
  // The pool, not the values, owns an interned string: once every Value
  // holding it is gone, the pointer still reads the same contents and a
  // fresh ofString() finds the same object.
  const std::string Probe = "interned-outlives-its-values";
  const void *Id = nullptr;
  {
    Value A = Value::ofString(Probe);
    Value M = Value::emptyMap().mapInsert(Probe, A);
    Value L = Value::ofList({A, A});
    Id = A.identity();
  }
  const std::string *P = internString(Probe);
  EXPECT_EQ(static_cast<const void *>(P), Id);
  EXPECT_EQ(*P, Probe);
  EXPECT_EQ(Value::ofString(Probe).identity(), Id);
}

TEST(ValueInternTest, EmptyListIsUnallocated) {
  Value A = Value::ofList({});
  Value B = Value::listConcat(Value::ofList({}), Value::ofList({}));
  EXPECT_EQ(A.identity(), nullptr);
  EXPECT_EQ(B.identity(), nullptr);
  EXPECT_TRUE(A.equals(B));
  EXPECT_EQ(A.hash(), B.hash());
  EXPECT_TRUE(A.asList().empty());
  EXPECT_EQ(A.str(), "[]");
  // An empty list is not equal to a non-empty one, however it was built.
  EXPECT_FALSE(A.equals(Value::ofList({Value::ofInt(0)})));

  for (Value *E : {&A, &B}) {
    Value One = std::move(*E).listAppend(Value::ofString("x"));
    ASSERT_TRUE(One.isList());
    ASSERT_EQ(One.asList().size(), 1u);
    EXPECT_TRUE(One.asList()[0].equals(Value::ofString("x")));
    EXPECT_NE(One.identity(), nullptr);
  }
}

TEST(ValueInternTest, ConcatWithAnEmptySideShares) {
  const Value Empty = Value::ofList({});
  const Value L = Value::ofList({Value::ofInt(1), Value::ofString("two")});
  Value Left = Value::listConcat(Empty, L);
  Value Right = Value::listConcat(L, Empty);
  EXPECT_EQ(Left.identity(), L.identity());
  EXPECT_EQ(Right.identity(), L.identity());

  // The result shares L's vector, so the rvalue append must copy it rather
  // than extend it in place.
  Value Grown = std::move(Left).listAppend(Value::ofInt(3));
  EXPECT_NE(Grown.identity(), L.identity());
  ASSERT_EQ(Grown.asList().size(), 3u);
  EXPECT_EQ(Grown.asList()[2].asInt(), 3);
  ASSERT_EQ(L.asList().size(), 2u);
  EXPECT_EQ(L.asList()[0].asInt(), 1);
  EXPECT_EQ(L.asList()[1].asString(), "two");
  EXPECT_EQ(Right.asList().size(), 2u);
}

TEST(ValueInternTest, EmptyAndLongStringsIntern) {
  EXPECT_EQ(Value::ofString("").identity(), Value::ofString("").identity());
  std::string Long(4096, 'x');
  EXPECT_EQ(Value::ofString(Long).identity(),
            Value::ofString(Long).identity());
}

TEST(ValueInternTest, MapKeysShareInternedStrings) {
  // Keys intern too: lookup is a pointer chase, and maps built from equal
  // key strings hash/compare consistently.
  Value M1 = Value::emptyMap().mapInsert("key", Value::ofInt(1));
  Value M2 = Value::emptyMap().mapInsert(std::string("ke") + "y",
                                         Value::ofInt(1));
  EXPECT_TRUE(M1.equals(M2));
  EXPECT_EQ(M1.hash(), M2.hash());
  ASSERT_NE(M1.mapLookup("key"), nullptr);
  EXPECT_EQ(M1.mapLookup("key")->asInt(), 1);
}

TEST(ValueInternTest, ConcurrentInterningConverges) {
  // Many threads intern overlapping sets of strings; every thread must see
  // the same identity per content. Runs under -DFNC2_SANITIZE=thread in the
  // CI race gate, so the sharded pool's locking is TSan-checked here.
  constexpr unsigned NumThreads = 8;
  constexpr unsigned NumStrings = 256;
  std::vector<std::vector<const void *>> Seen(
      NumThreads, std::vector<const void *>(NumStrings));

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([T, &Seen] {
      // Each thread walks the set in a different order so insertions race.
      for (unsigned I = 0; I != NumStrings; ++I) {
        unsigned K = (I * 17 + T * 31) % NumStrings;
        Value V = Value::ofString("sym" + std::to_string(K));
        Seen[T][K] = V.identity();
      }
    });
  for (std::thread &T : Threads)
    T.join();

  for (unsigned K = 0; K != NumStrings; ++K)
    for (unsigned T = 1; T != NumThreads; ++T)
      EXPECT_EQ(Seen[0][K], Seen[T][K]) << "string " << K << " thread " << T;
}

} // namespace
