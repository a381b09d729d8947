//===- tree/Tree.cpp ------------------------------------------------------===//

#include "tree/Tree.h"

#include <cctype>
#include <cstring>
#include <limits>
#include <optional>

using namespace fnc2;

//===----------------------------------------------------------------------===//
// FrameArena
//===----------------------------------------------------------------------===//

FrameArena::~FrameArena() {
  for (auto &[Vals, Count] : Frames)
    for (uint32_t I = 0; I != Count; ++I)
      Vals[I].~Value();
}

std::pair<Value *, uint64_t *> FrameArena::allocFrame(unsigned NumVals,
                                                      unsigned NumWords) {
  static_assert(sizeof(Value) % alignof(uint64_t) == 0,
                "bitmap words follow the Value run without padding");
  const size_t Bytes =
      size_t(NumVals) * sizeof(Value) + size_t(NumWords) * sizeof(uint64_t);
  Chunk *C = Chunks.empty() ? nullptr : &Chunks.back();
  if (!C || C->Cap - C->Used < Bytes) {
    // Chunks grow with the tree: a small first chunk, each later one double
    // the last up to the cap, and an oversized frame gets its own chunk.
    // No zero-fill: every Value and bitmap word is initialised below.
    constexpr size_t FirstChunk = 512, MaxChunk = 64 * 1024;
    Chunk Fresh;
    Fresh.Cap = std::max(C ? std::min(2 * C->Cap, MaxChunk) : FirstChunk,
                         Bytes);
    Fresh.Mem = std::make_unique_for_overwrite<std::byte[]>(Fresh.Cap);
    Chunks.push_back(std::move(Fresh));
    C = &Chunks.back();
  }
  std::byte *Base = C->Mem.get() + C->Used;
  C->Used += Bytes;
  auto *Vals = reinterpret_cast<Value *>(Base);
  for (unsigned I = 0; I != NumVals; ++I)
    new (Vals + I) Value();
  auto *Words = reinterpret_cast<uint64_t *>(Base + NumVals * sizeof(Value));
  std::memset(Words, 0, NumWords * sizeof(uint64_t));
  if (NumVals)
    Frames.emplace_back(Vals, NumVals);
  return {Vals, Words};
}

size_t FrameArena::reservedBytes() const {
  size_t Total = 0;
  for (const Chunk &C : Chunks)
    Total += C.Cap;
  return Total;
}

TreeNode::~TreeNode() {
  // Every descendant moves into one worklist and dies childless, so no
  // destructor recurses. A chain reuses the moved-from Children buffer.
  if (Children.empty())
    return;
  std::vector<std::unique_ptr<TreeNode>> Work = std::move(Children);
  while (!Work.empty()) {
    std::unique_ptr<TreeNode> N = std::move(Work.back());
    Work.pop_back();
    if (!N)
      continue;
    for (std::unique_ptr<TreeNode> &C : N->Children)
      Work.push_back(std::move(C));
    N->Children.clear();
  }
}

void TreeNode::allocFrameSlow(unsigned NumAttrs, unsigned NumLocals) {
  assert(Arena && "node is not attached to a tree arena");
  const unsigned Total = NumAttrs + NumLocals;
  auto [Vals, Words] = Arena->allocFrame(Total, (Total + 63) / 64);
  Slots = Vals;
  ComputedBits = Words;
  FrameAttrs = static_cast<uint16_t>(NumAttrs);
  FrameLocals = static_cast<uint16_t>(NumLocals);
}

//===----------------------------------------------------------------------===//
// Tree
//===----------------------------------------------------------------------===//

void Tree::adoptSubtree(TreeNode *N) {
  // Nodes that already carry a frame keep their original arena so the frame
  // memory stays alive; frameless ones allocate from this tree's arena.
  forEachPreorder(N, [this](TreeNode *M) {
    if (!M->hasFrame() || !M->Arena)
      M->Arena = Arena;
  });
}

void Tree::setRoot(std::unique_ptr<TreeNode> N) {
  Root = std::move(N);
  if (Root) {
    Root->Parent = nullptr;
    Root->IndexInParent = 0;
    adoptSubtree(Root.get());
  }
}

std::unique_ptr<TreeNode>
Tree::make(ProdId P, std::vector<std::unique_ptr<TreeNode>> Children,
           Value Lexeme) {
  [[maybe_unused]] const Production &Pr = AG->prod(P);
  assert(Children.size() == Pr.Rhs.size() &&
         "child count does not match production arity");
  auto N = std::make_unique<TreeNode>();
  N->Prod = P;
  N->Lexeme = std::move(Lexeme);
  N->Arena = Arena;
  for (unsigned I = 0; I != Children.size(); ++I) {
    assert(Children[I] && "null child");
    assert(AG->prod(Children[I]->Prod).Lhs == Pr.Rhs[I] &&
           "child phylum does not match production signature");
    Children[I]->Parent = N.get();
    Children[I]->IndexInParent = I;
    N->Children.push_back(std::move(Children[I]));
  }
  return N;
}

/// Preorder over an explicit stack, since the walk cannot trust the parent
/// links it checks. Diagnostics come out in the order a node-by-node
/// recursion gives them: a son's link and phylum, then its subtree, then the
/// next son.
static bool validateNode(const AttributeGrammar &AG, const TreeNode *Root,
                         DiagnosticEngine &Diags) {
  bool Ok = true;
  // (parent, son index) pairs still to check; the root's index is ~0.
  std::vector<std::pair<const TreeNode *, unsigned>> Work{{Root, ~0u}};
  while (!Work.empty()) {
    const auto [P, I] = Work.back();
    Work.pop_back();
    const TreeNode *N = P;
    if (I != ~0u) {
      const Production &PPr = AG.prod(P->Prod);
      N = P->child(I);
      if (N->Parent != P || N->IndexInParent != I) {
        Diags.error("broken parent link under operator '" + PPr.Name + "'");
        Ok = false;
      }
      if (AG.prod(N->Prod).Lhs != PPr.Rhs[I]) {
        Diags.error("child " + std::to_string(I) + " of operator '" +
                    PPr.Name + "' has wrong phylum");
        Ok = false;
      }
    }
    const Production &Pr = AG.prod(N->Prod);
    if (N->arity() != Pr.arity()) {
      Diags.error("node applying '" + Pr.Name + "' has " +
                  std::to_string(N->arity()) + " children, expected " +
                  std::to_string(Pr.arity()));
      Ok = false;
      continue;
    }
    for (unsigned S = N->arity(); S-- != 0;)
      Work.emplace_back(N, S);
  }
  return Ok;
}

bool Tree::validate(DiagnosticEngine &Diags) const {
  if (!Root) {
    Diags.error("tree has no root");
    return false;
  }
  if (AG->Start != InvalidId && AG->prod(Root->Prod).Lhs != AG->Start)
    Diags.warning("root node is not of the start phylum");
  return validateNode(*AG, Root.get(), Diags);
}

unsigned Tree::size() const {
  unsigned Count = 0;
  if (Root)
    forEachPreorder(Root.get(), [&Count](const TreeNode *) { ++Count; });
  return Count;
}

void Tree::resetAttributes() {
  if (!Root)
    return;
  forEachPreorder(Root.get(), [](TreeNode *N) {
    const unsigned NumSlots = N->numSlots();
    for (unsigned I = 0; I != NumSlots; ++I)
      N->Slots[I] = Value();
    for (unsigned W = 0, E = (NumSlots + 63) / 64; W != E; ++W)
      N->ComputedBits[W] = 0;
    N->PartitionId = 0;
    N->SeqCache = nullptr;
  });
}

std::unique_ptr<TreeNode> Tree::replaceSubtree(TreeNode *Old,
                                               std::unique_ptr<TreeNode> New) {
  assert(Old && New && "null subtree in replacement");
  assert(AG->prod(Old->Prod).Lhs == AG->prod(New->Prod).Lhs &&
         "replacement changes the phylum");
  TreeNode *Parent = Old->Parent;
  if (!Parent) {
    assert(Old == Root.get() && "detached node passed to replaceSubtree");
    std::unique_ptr<TreeNode> Detached = std::move(Root);
    New->Parent = nullptr;
    New->IndexInParent = 0;
    adoptSubtree(New.get());
    Root = std::move(New);
    return Detached;
  }
  unsigned Idx = Old->IndexInParent;
  std::unique_ptr<TreeNode> Detached = std::move(Parent->Children[Idx]);
  New->Parent = Parent;
  New->IndexInParent = Idx;
  adoptSubtree(New.get());
  Parent->Children[Idx] = std::move(New);
  Detached->Parent = nullptr;
  return Detached;
}

std::unique_ptr<TreeNode> Tree::clone(const TreeNode *N) const {
  auto Root = std::make_unique<TreeNode>();
  // (original, copy) pairs whose sons are still to be copied.
  std::vector<std::pair<const TreeNode *, TreeNode *>> Work{{N, Root.get()}};
  while (!Work.empty()) {
    const auto [From, To] = Work.back();
    Work.pop_back();
    To->Prod = From->Prod;
    To->Lexeme = From->Lexeme;
    To->Arena = Arena;
    for (unsigned I = 0; I != From->arity(); ++I) {
      To->Children.push_back(std::make_unique<TreeNode>());
      TreeNode *C = To->Children.back().get();
      C->Parent = To;
      C->IndexInParent = I;
      Work.emplace_back(From->child(I), C);
    }
  }
  return Root;
}

//===----------------------------------------------------------------------===//
// Term syntax
//===----------------------------------------------------------------------===//

static void writeTermRec(const AttributeGrammar &AG, const TreeNode *N,
                         std::string &Out) {
  const Production &Pr = AG.prod(N->Prod);
  Out += Pr.Name;
  if (Pr.HasLexeme) {
    Out += '<';
    if (N->Lexeme.isString()) {
      Out += '"';
      Out += N->Lexeme.asString();
      Out += '"';
    } else if (N->Lexeme.isInt()) {
      Out += std::to_string(N->Lexeme.asInt());
    }
    Out += '>';
  }
  if (N->arity() != 0) {
    Out += '(';
    for (unsigned I = 0; I != N->arity(); ++I) {
      if (I)
        Out += ',';
      writeTermRec(AG, N->child(I), Out);
    }
    Out += ')';
  }
}

std::string fnc2::writeTerm(const AttributeGrammar &AG, const TreeNode *N) {
  std::string Out;
  writeTermRec(AG, N, Out);
  return Out;
}

namespace {

/// Tiny recursive-descent reader for the term syntax.
class TermParser {
public:
  TermParser(const AttributeGrammar &AG, const std::string &Text,
             DiagnosticEngine &Diags, Tree &T)
      : AG(AG), Text(Text), Diags(Diags), T(T) {}

  std::unique_ptr<TreeNode> parseNode() {
    skipSpace();
    std::string Name = parseIdent();
    if (Name.empty()) {
      error("expected operator name");
      return nullptr;
    }
    ProdId P = AG.findProd(Name);
    if (P == InvalidId) {
      error("unknown operator '" + Name + "'");
      return nullptr;
    }
    const Production &Pr = AG.prod(P);

    Value Lexeme;
    skipSpace();
    if (peek() == '<') {
      ++Pos;
      std::optional<Value> L = parseLexeme();
      if (!L)
        return nullptr;
      Lexeme = std::move(*L);
      if (peek() != '>') {
        error("expected '>' after lexeme");
        return nullptr;
      }
      ++Pos;
    }
    if (Pr.HasLexeme && Lexeme.isUnit()) {
      error("operator '" + Name + "' requires a lexeme");
      return nullptr;
    }

    std::vector<std::unique_ptr<TreeNode>> Children;
    skipSpace();
    if (peek() == '(') {
      ++Pos;
      skipSpace();
      if (peek() != ')') {
        while (true) {
          auto C = parseNode();
          if (!C)
            return nullptr;
          Children.push_back(std::move(C));
          skipSpace();
          if (peek() == ',') {
            ++Pos;
            continue;
          }
          break;
        }
      }
      if (peek() != ')') {
        error("expected ')'");
        return nullptr;
      }
      ++Pos;
    }
    if (Children.size() != Pr.arity()) {
      error("operator '" + Name + "' expects " + std::to_string(Pr.arity()) +
            " children, got " + std::to_string(Children.size()));
      return nullptr;
    }
    for (unsigned I = 0; I != Children.size(); ++I)
      if (AG.prod(Children[I]->Prod).Lhs != Pr.Rhs[I]) {
        error("child " + std::to_string(I) + " of '" + Name +
              "' has the wrong phylum");
        return nullptr;
      }
    return T.make(P, std::move(Children), std::move(Lexeme));
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Text.size();
  }

private:
  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }
  std::string parseIdent() {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_'))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }
  /// A string or integer lexeme; std::nullopt after reporting an error.
  std::optional<Value> parseLexeme() {
    skipSpace();
    if (peek() == '"') {
      ++Pos;
      std::string S;
      while (Pos < Text.size() && Text[Pos] != '"')
        S += Text[Pos++];
      if (peek() == '"')
        ++Pos;
      return Value::ofString(std::move(S));
    }
    bool Neg = false;
    if (peek() == '-') {
      Neg = true;
      ++Pos;
    }
    // The magnitude may reach INT64_MAX, or one more when negative.
    const uint64_t Max =
        uint64_t(std::numeric_limits<int64_t>::max()) + (Neg ? 1 : 0);
    uint64_t V = 0;
    bool Any = false, InRange = true;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos]))) {
      unsigned Digit = Text[Pos++] - '0';
      InRange = InRange && V <= (Max - Digit) / 10;
      if (InRange)
        V = V * 10 + Digit;
      Any = true;
    }
    if (!Any) {
      error("expected lexeme value");
      return std::nullopt;
    }
    if (!InRange) {
      error("lexeme out of range");
      return std::nullopt;
    }
    return Value::ofInt(static_cast<int64_t>(Neg ? 0 - V : V));
  }
  void error(const std::string &Msg) {
    Diags.error("term syntax: " + Msg + " at offset " + std::to_string(Pos));
  }

  const AttributeGrammar &AG;
  const std::string &Text;
  DiagnosticEngine &Diags;
  Tree &T;
  size_t Pos = 0;
};

} // namespace

Tree fnc2::readTerm(const AttributeGrammar &AG, const std::string &Text,
                    DiagnosticEngine &Diags) {
  Tree T(AG);
  TermParser P(AG, Text, Diags, T);
  auto Root = P.parseNode();
  if (Root && !P.atEnd())
    Diags.error("term syntax: trailing input");
  if (Root && !Diags.hasErrors())
    T.setRoot(std::move(Root));
  return T;
}
