//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include "eval/DemandEvaluator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

using namespace fnc2;

namespace perfbench {

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 5)
    std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
}

void Report::add(std::string Name, double Value, std::string Unit,
                 uint64_t Samples) {
  Metrics.push_back({std::move(Name), Value, std::move(Unit), Samples});
}

void Report::print() const {
  for (const Metric &M : Metrics)
    std::printf("  %-40s %14.6g %-6s (%llu samples)\n", M.Name.c_str(),
                M.Value, M.Unit.c_str(),
                static_cast<unsigned long long>(M.Samples));
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  // The JSON line: full precision, non-finite values printed as 0 so the
  // line stays valid JSON (a NaN here means a layer was never timed).
  std::string J = "{\"correct\": ";
  J += Failed == 0 ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    char Num[64];
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0;
    std::snprintf(Num, sizeof(Num), "%.9g", V);
    J += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Num +
         ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double median(std::vector<double> V) { return percentile(V, 0.5); }

double mean(const std::vector<double> &V) {
  return V.empty() ? 0 : std::accumulate(V.begin(), V.end(), 0.0) / V.size();
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // kB -> MiB
  return 0;
}

uint64_t subSeed(uint64_t Seed, uint64_t Stream) {
  Rng R(Seed ^ (Stream * 0xD1B54A32D192ED03ull));
  return R.next() >> 16; // positive in every signed consumer
}

uint64_t hashBytes(const void *Data, size_t Len, uint64_t H) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

static uint64_t mix(uint64_t H, uint64_t V) { return hashBytes(&V, 8, H); }

uint64_t attributionDigest(const AttributeGrammar &AG, const Tree &T) {
  uint64_t H = 0xcbf29ce484222325ull;
  std::vector<const TreeNode *> Stack;
  if (T.root())
    Stack.push_back(T.root());
  while (!Stack.empty()) {
    const TreeNode *N = Stack.back();
    Stack.pop_back();
    H = mix(H, N->Prod);
    H = mix(H, N->Lexeme.hash());
    unsigned NumAttrs = unsigned(AG.phylum(AG.prod(N->Prod).Lhs).Attrs.size());
    for (unsigned I = 0; I != NumAttrs; ++I)
      H = N->attrComputed(I) ? mix(H, N->attrVal(I).hash()) : mix(H, 0xDEAD);
    for (unsigned C = N->arity(); C-- != 0;)
      Stack.push_back(N->child(C));
  }
  return H;
}

std::vector<std::pair<AttrId, Value>> rootInherited(const AttributeGrammar &AG) {
  std::vector<std::pair<AttrId, Value>> B;
  for (AttrId A : AG.phylum(AG.Start).Attrs)
    if (AG.attr(A).isInherited())
      B.emplace_back(A, Value::ofInt(7));
  return B;
}

std::vector<Value> rootValues(const AttributeGrammar &AG, const TreeNode *Root) {
  std::vector<Value> Out;
  for (AttrId A : AG.phylum(AG.Start).Attrs) {
    const Attribute &At = AG.attr(A);
    if (!At.isSynthesized())
      continue;
    Out.push_back(Root && Root->attrComputed(At.IndexInOwner)
                      ? Root->attrVal(At.IndexInOwner)
                      : Value());
  }
  return Out;
}

/// Evaluates a private clone of \p T on demand and hands it to \p Use.
template <typename Fn>
static bool onDemandClone(const AttributeGrammar &AG, const Tree &T, Fn Use) {
  Tree C(AG);
  C.setRoot(T.clone(T.root()));
  DemandEvaluator D(AG);
  for (auto &[A, V] : rootInherited(AG))
    D.setRootInherited(A, V);
  DiagnosticEngine Diags;
  if (!D.evaluateAll(C, Diags))
    return false;
  Use(C);
  return true;
}

bool demandRootValues(const AttributeGrammar &AG, const Tree &T,
                      std::vector<Value> &Out) {
  return onDemandClone(AG, T,
                       [&](const Tree &C) { Out = rootValues(AG, C.root()); });
}

bool demandDigest(const AttributeGrammar &AG, const Tree &T, uint64_t &Out) {
  return onDemandClone(
      AG, T, [&](const Tree &C) { Out = attributionDigest(AG, C); });
}

double Samples::itemsPerSecond() const {
  double Items = 0, Busy = 0;
  for (const Op &O : Ops)
    Items += O.Items, Busy += O.BusyS;
  return Busy > 0 ? Items / Busy : 0;
}

void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(1);
}

} // namespace perfbench
