//===- examples/incremental_editor.cpp - incremental reevaluation ---------===//
//
// A language-based-editor scenario (the Synthesizer-Generator-style use the
// paper targets with its incremental evaluators, section 2.1.2): a document
// is evaluated once, then edited repeatedly; every update re-establishes
// consistency while touching only the affected attribute instances, with
// statistics after each edit.
//
// Beyond the default demo, the editor records, replays and persists whole
// sessions through the edit-log subsystem:
//
//   ./incremental_editor                          # fresh random session
//   ./incremental_editor --nodes 50000 --edits 20 --seed 9
//   ./incremental_editor --record session.log     # save the edit log
//   ./incremental_editor --replay session.log     # replay a recorded log
//   ./incremental_editor --save-session doc.sess  # persist tree+attribution
//   ./incremental_editor --resume-session doc.sess --edits 5
//   ./incremental_editor --resume-session doc.sess --replay session.log
//
// A resumed session is bit-identical to the live one it was saved from, and
// each update rebuilds the incremental evaluator's revisit memo from
// scratch, so replaying the remainder of a recorded log after a resume
// produces exactly the bytes the uninterrupted session would have. --replay skips the prefix the
// session has already applied, which is what makes that composition work.
//
//===----------------------------------------------------------------------===//

#include "incremental/Session.h"
#include "workloads/ClassicGrammars.h"
#include "workloads/EditScriptGen.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace fnc2;

namespace {

int64_t result(const AttributeGrammar &AG, const Tree &T) {
  PhylumId Prog = AG.findPhylum("Prog");
  AttrId R = AG.findAttr(Prog, "result");
  return T.root()->attrVal(AG.attr(R).IndexInOwner).asInt();
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return {std::istreambuf_iterator<char>(In), std::istreambuf_iterator<char>()};
}

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  return Out.good();
}

void printEditLine(const AttributeGrammar &AG, const IncrementalSession &S,
                   size_t Index, const char *Verb) {
  const IncrementalStats &St = S.stats();
  std::printf("edit %3zu: %-8s -> value %-12ld (%llu rules recomputed, "
              "%llu unchanged cutoffs, %llu visits skipped)\n",
              Index, Verb, (long)result(AG, S.tree()),
              (unsigned long long)St.RulesReevaluated,
              (unsigned long long)St.ValuesUnchanged,
              (unsigned long long)St.VisitsSkipped);
}

const char *kindName(EditOp::Kind K) {
  switch (K) {
  case EditOp::Kind::SubtreeReplace:
    return "replace";
  case EditOp::Kind::LeafValueChange:
    return "lexeme";
  case EditOp::Kind::ProductionSwap:
    return "swap";
  }
  return "?";
}

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--nodes N] [--edits N] [--seed S]\n"
      "          [--record FILE] [--replay FILE]\n"
      "          [--save-session FILE] [--resume-session FILE]\n"
      "\n"
      "  --nodes N            size of the fresh document (default 20000)\n"
      "  --edits N            random edits to apply (default 6; ignored "
      "under --replay)\n"
      "  --seed S             seed for document and edit script (default "
      "2024)\n"
      "  --record FILE        write the session's edit log to FILE\n"
      "  --replay FILE        replay a recorded edit log instead of random "
      "edits\n"
      "                       (skips any prefix the session already "
      "applied)\n"
      "  --save-session FILE  persist tree + attribution + log to FILE\n"
      "  --resume-session FILE  restore a persisted session instead of\n"
      "                         generating a fresh document\n",
      Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Nodes = 20000, Edits = 6;
  uint64_t Seed = 2024;
  std::string RecordPath, ReplayPath, SavePath, ResumePath;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&](std::string &Out) {
      if (I + 1 >= argc)
        return false;
      Out = argv[++I];
      return true;
    };
    std::string V;
    if (Arg == "--nodes" && Next(V))
      Nodes = unsigned(std::strtoul(V.c_str(), nullptr, 10));
    else if (Arg == "--edits" && Next(V))
      Edits = unsigned(std::strtoul(V.c_str(), nullptr, 10));
    else if (Arg == "--seed" && Next(V))
      Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Arg == "--record" && Next(V))
      RecordPath = V;
    else if (Arg == "--replay" && Next(V))
      ReplayPath = V;
    else if (Arg == "--save-session" && Next(V))
      SavePath = V;
    else if (Arg == "--resume-session" && Next(V))
      ResumePath = V;
    else
      return usage(argv[0]);
  }

  DiagnosticEngine Diags;
  AttributeGrammar AG = workloads::deskCalculator(Diags);
  DiagnosticEngine GD;
  GeneratedEvaluator GE = generateEvaluator(AG, GD);
  if (!GE.Success) {
    std::fprintf(stderr, "%s", GD.dump().c_str());
    return 1;
  }

  IncrementalSession S(AG, GE.Compiled);
  DiagnosticEngine D;
  if (!ResumePath.empty()) {
    std::vector<uint8_t> Bytes = readFile(ResumePath);
    std::string Reason;
    if (Bytes.empty() || !S.restore(Bytes, Reason)) {
      std::fprintf(stderr, "cannot resume %s: %s\n", ResumePath.c_str(),
                   Bytes.empty() ? "unreadable file" : Reason.c_str());
      return 1;
    }
    std::printf("resumed session: %u nodes, %zu edits already applied, "
                "value %ld\n\n",
                S.tree().size(), S.log().size(), (long)result(AG, S.tree()));
  } else {
    TreeGenerator Gen(AG, Seed);
    if (!S.start(Gen.generate(Nodes), D)) {
      std::fprintf(stderr, "%s", D.dump().c_str());
      return 1;
    }
    std::printf("document: %u nodes\ninitial value: %ld\n\n", S.tree().size(),
                (long)result(AG, S.tree()));
  }

  if (!ReplayPath.empty()) {
    // Replay a recorded log, skipping what this session already holds.
    EditLog Log;
    std::string Reason;
    std::vector<uint8_t> Bytes = readFile(ReplayPath);
    if (Bytes.empty() || !EditLog::decodeFile(Bytes, AG, Log, Reason)) {
      std::fprintf(stderr, "cannot replay %s: %s\n", ReplayPath.c_str(),
                   Bytes.empty() ? "unreadable file" : Reason.c_str());
      return 1;
    }
    if (Log.size() < S.log().size()) {
      std::fprintf(stderr,
                   "log %s holds %zu edits but the session already applied "
                   "%zu — wrong log for this session\n",
                   ReplayPath.c_str(), Log.size(), S.log().size());
      return 1;
    }
    for (size_t I = S.log().size(); I != Log.size(); ++I) {
      S.evaluator().resetStats();
      if (!S.apply(Log.op(I), D)) {
        std::fprintf(stderr, "replay edit %zu failed:\n%s", I,
                     D.dump().c_str());
        return 1;
      }
      printEditLine(AG, S, I, kindName(Log.op(I).K));
    }
  } else {
    // Fresh random edits (a structure editor's mix: subtree replacements,
    // leaf value changes, production swaps).
    EditScriptGen Gen(AG, {.Seed = Seed ^ 0xE017});
    for (unsigned E = 0; E != Edits; ++E) {
      EditOp Op = Gen.next(S.tree());
      EditOp::Kind K = Op.K;
      S.evaluator().resetStats();
      if (!S.apply(std::move(Op), D)) {
        std::fprintf(stderr, "edit %u failed:\n%s", E, D.dump().c_str());
        return 1;
      }
      printEditLine(AG, S, S.log().size() - 1, kindName(K));
    }
  }

  std::printf("\nFor comparison, a full reevaluation recomputes every rule "
              "instance of the %u-node tree on each edit.\n",
              S.tree().size());

  if (!RecordPath.empty()) {
    if (!writeFile(RecordPath, S.log().encodeFile(AG))) {
      std::fprintf(stderr, "cannot write %s\n", RecordPath.c_str());
      return 1;
    }
    std::printf("recorded %zu edits to %s\n", S.log().size(),
                RecordPath.c_str());
  }
  if (!SavePath.empty()) {
    std::vector<uint8_t> Bytes;
    std::string WhyNot;
    if (!S.encode(Bytes, WhyNot) || !writeFile(SavePath, Bytes)) {
      std::fprintf(stderr, "cannot save session to %s: %s\n", SavePath.c_str(),
                   WhyNot.c_str());
      return 1;
    }
    std::printf("saved session (%zu bytes) to %s — resume with "
                "--resume-session %s\n",
                Bytes.size(), SavePath.c_str(), SavePath.c_str());
  }
  return 0;
}
