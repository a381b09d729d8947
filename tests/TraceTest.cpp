//===- tests/TraceTest.cpp - golden traces + trace layer unit tests -------===//
//
// The tracing layer's promise is determinism: on a single thread, the same
// grammar and tree produce the same span/counter sequence, byte for byte.
// The golden tests pin that sequence for two classic AGs against committed
// files (regenerate with FNC2_UPDATE_GOLDENS=1 after an intentional
// pipeline change). The remaining tests cover the collector machinery: the
// Chrome trace_event exporter emits well-formed JSON, counters fold into
// the metrics registry consistently with the evaluator stats, and the
// per-thread buffers under the batch engine stay race-free (the TSan gate
// in ci.sh runs this suite).
//
//===----------------------------------------------------------------------===//

#include "eval/BatchEvaluator.h"
#include "fnc2/Generator.h"
#include "incremental/Incremental.h"
#include "storage/StorageEvaluator.h"
#include "support/Trace.h"
#include "tree/TreeGen.h"
#include "workloads/ClassicGrammars.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace fnc2;

namespace {

std::string goldenPath(const std::string &Name) {
  return std::string(FNC2_GOLDEN_DIR) + "/" + Name;
}

/// Compares \p Actual with the committed golden \p Name; with
/// FNC2_UPDATE_GOLDENS=1 in the environment, rewrites the golden instead.
void checkGolden(const std::string &Name, const std::string &Actual) {
  const std::string Path = goldenPath(Name);
  if (std::getenv("FNC2_UPDATE_GOLDENS")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden " << Path
                         << " (regenerate with FNC2_UPDATE_GOLDENS=1)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Actual)
      << "trace drifted from " << Path
      << " (if the pipeline change is intentional, regenerate with "
         "FNC2_UPDATE_GOLDENS=1)";
}

//===----------------------------------------------------------------------===//
// A minimal JSON well-formedness checker (objects, arrays, strings,
// numbers, true/false/null) — enough to validate the exporters without a
// JSON dependency.
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing quote
    return true;
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < S.size() && (std::isdigit(S[Pos]) || S[Pos] == '.' ||
                              S[Pos] == 'e' || S[Pos] == 'E' ||
                              S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }

  bool literal(const char *L) {
    size_t N = std::string(L).size();
    if (S.compare(Pos, N, L) != 0)
      return false;
    Pos += N;
    return true;
  }

  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }

  const std::string &S;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Golden traces
//===----------------------------------------------------------------------===//

// The full generator cascade plus one exhaustive evaluation over the desk
// calculator: spans for SNC/DNC/OAG/transform/visitseq/storage, GFA
// counters per fixpoint sweep, per-visit spans and per-EVAL rule counts.
TEST(TraceGolden, DeskCalculatorPipeline) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();

  trace::TraceCollector C;
  C.install();
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Mul(Num<2>,Num<3>)))", D);
  Evaluator E(GE.Compiled->CP);
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  C.uninstall();

  EXPECT_EQ(C.threadCount(), 1u);
  checkGolden("trace_desk.golden", C.summary());
}

// The storage-optimized evaluator on the same desk tree: the nesting of
// storage.visit spans and the per-rule and eliminated-copy counters inside
// them. The generator and the evaluator's plan compilation run outside the
// collector, so only the evaluation is pinned.
TEST(TraceGolden, DeskStorageEvaluation) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();
  StorageEvaluator SE(GE.Compiled->CP, GE.Compiled->CS);
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Mul(Num<2>,Num<3>)))", D);

  trace::TraceCollector C;
  C.install();
  ASSERT_TRUE(SE.evaluate(T, D)) << D.dump();
  C.uninstall();

  EXPECT_EQ(C.threadCount(), 1u);
  checkGolden("trace_desk_storage.golden", C.summary());
}

// An incremental session on repmin: initial evaluation, a minimum-lowering
// edit, an update showing the cutoff counters in action.
TEST(TraceGolden, RepminIncrementalUpdate) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::repmin(Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();

  IncrementalEvaluator IE(GE.Compiled->CP);
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Top(Fork(Leaf<5>,Fork(Leaf<7>,Leaf<9>)))", D);

  trace::TraceCollector C;
  C.install();
  ASSERT_TRUE(IE.initial(T, D)) << D.dump();
  TreeNode *Old = T.root()->child(0)->child(1)->child(0); // Leaf<7>
  IE.replaceSubtree(T, Old, T.makeLeaf(AG.findProd("Leaf"), Value::ofInt(1)));
  ASSERT_TRUE(IE.update(T, D)) << D.dump();
  C.uninstall();

  EXPECT_EQ(C.threadCount(), 1u);
  checkGolden("trace_repmin.golden", C.summary());
}

//===----------------------------------------------------------------------===//
// Collector machinery
//===----------------------------------------------------------------------===//

TEST(TraceTest, DisabledByDefault) {
  EXPECT_FALSE(trace::enabled());
  // Emissions without a collector are dropped, not crashes.
  FNC2_COUNT("trace_test.orphan", 1);
  FNC2_SPAN("trace_test.orphan_span");
}

TEST(TraceTest, InstallUninstallToggleCollection) {
  trace::TraceCollector C;
  C.install();
  EXPECT_TRUE(trace::enabled());
  EXPECT_TRUE(C.installed());
  FNC2_COUNT("trace_test.counted", 2);
  C.uninstall();
  EXPECT_FALSE(trace::enabled());
  FNC2_COUNT("trace_test.dropped", 1);

  ASSERT_EQ(C.eventCount(), 1u);
  std::vector<trace::TraceEvent> Events = C.events();
  EXPECT_STREQ(Events[0].Name, "trace_test.counted");
  EXPECT_EQ(Events[0].Value, 2u);
}

TEST(TraceTest, SecondCollectorAfterFirst) {
  trace::TraceCollector A;
  A.install();
  FNC2_COUNT("trace_test.first", 1);
  A.uninstall();

  trace::TraceCollector B;
  B.install();
  FNC2_COUNT("trace_test.second", 1);
  B.uninstall();

  ASSERT_EQ(A.eventCount(), 1u);
  ASSERT_EQ(B.eventCount(), 1u);
  EXPECT_STREQ(A.events()[0].Name, "trace_test.first");
  EXPECT_STREQ(B.events()[0].Name, "trace_test.second");
}

TEST(TraceTest, SummaryRendersSpansCountersInstants) {
  trace::TraceCollector C;
  C.install();
  {
    FNC2_SPAN("outer");
    FNC2_COUNT("ticks", 3);
    {
      FNC2_SPAN("inner");
      FNC2_INSTANT("mark", 7);
    }
  }
  C.uninstall();

  EXPECT_EQ(C.summary(), "> outer\n"
                         "  # ticks +3\n"
                         "  > inner\n"
                         "    ! mark 7\n"
                         "  < inner\n"
                         "< outer\n");
}

TEST(TraceTest, ChromeJsonIsWellFormed) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::binaryNumbers(Diags);
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();

  trace::TraceCollector C;
  C.install();
  DiagnosticEngine D;
  Tree T = readTerm(
      AG, "Integer(Pair(Pair(Pair(Single(One),One),Zero),One))", D);
  Evaluator E(GE.Compiled->CP);
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  C.uninstall();

  ASSERT_GT(C.eventCount(), 0u);
  std::string Json = C.chromeJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"E\""), std::string::npos);
}

TEST(TraceTest, MetricsJsonIsWellFormed) {
  MetricsRegistry R;
  R.add("a.b", 1);
  R.add("quote\"key", 2);
  R.add("tab\tkey", 3);
  EXPECT_TRUE(JsonChecker(R.json()).valid()) << R.json();
}

TEST(TraceTest, CountersFoldMatchesEvaluatorStats) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();

  trace::TraceCollector C;
  C.install();
  DiagnosticEngine D;
  Tree T = readTerm(AG, "Calc(Add(Num<1>,Num<2>))", D);
  Evaluator E(GE.Compiled->CP);
  ASSERT_TRUE(E.evaluate(T, D)) << D.dump();
  C.uninstall();

  // The trace counter and the stats counter observe the same increments.
  MetricsRegistry R;
  C.countersTo(R);
  EXPECT_EQ(R.value("eval.rules"), E.stats().RulesEvaluated);

  // And the stats export lands next to them under the schema names.
  E.stats().exportTo(R);
  EXPECT_EQ(R.value("eval.rules_evaluated"), E.stats().RulesEvaluated);
  EXPECT_EQ(R.value("eval.visits_performed"), E.stats().VisitsPerformed);
}

// The TSan target: many worker threads emit into one collector through the
// batch engine while the main thread owns install/uninstall at quiescent
// points. Any locking mistake in buffer registration shows up here.
TEST(TraceTest, BatchTracingIsRaceFree) {
  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  ASSERT_TRUE(GE.Success) << GD.dump();

  TreeGenerator Gen(AG, 3);
  std::vector<Tree> Trees;
  for (unsigned I = 0; I != 32; ++I)
    Trees.push_back(Gen.generate(60 + I));

  ThreadPool Pool(4);
  trace::TraceCollector C;
  C.install();
  BatchEvaluator BE(GE.Compiled->CP, Pool);
  BatchResult R = BE.evaluate(Trees);
  C.uninstall();
  ASSERT_TRUE(R.allSucceeded());

  // Every tree span was recorded, and the folded rule counter agrees with
  // the merged per-worker stats.
  MetricsRegistry M;
  C.countersTo(M);
  EXPECT_EQ(M.value("eval.rules"), R.Stats.RulesEvaluated);
  uint64_t TreeSpans = 0;
  for (const trace::TraceEvent &E : C.events())
    if (E.Ph == trace::TraceEvent::Phase::Begin &&
        std::string(E.Name) == "batch.tree")
      ++TreeSpans;
  EXPECT_EQ(TreeSpans, Trees.size());

  // A second batch with a fresh collector must not see stale buffers.
  trace::TraceCollector C2;
  C2.install();
  std::vector<Tree> More;
  for (unsigned I = 0; I != 8; ++I)
    More.push_back(Gen.generate(40 + I));
  BatchResult R2 = BE.evaluate(More);
  C2.uninstall();
  ASSERT_TRUE(R2.allSucceeded());
  MetricsRegistry M2;
  C2.countersTo(M2);
  EXPECT_EQ(M2.value("eval.rules"), R2.Stats.RulesEvaluated);
}

} // namespace
