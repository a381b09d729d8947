//===- grammar/AttributeGrammar.cpp ---------------------------------------===//

#include "grammar/AttributeGrammar.h"

#include <algorithm>

using namespace fnc2;

unsigned AttributeGrammar::numAttrOccurrences() const {
  unsigned N = 0;
  for (const Phylum &P : Phyla)
    N += static_cast<unsigned>(P.Attrs.size());
  return N;
}

PhylumId AttributeGrammar::findPhylum(const std::string &PName) const {
  auto It = PhylumIndex.find(PName);
  return It == PhylumIndex.end() ? InvalidId : It->second;
}

AttrId AttributeGrammar::findAttr(PhylumId P, const std::string &AName) const {
  for (AttrId A : Phyla[P].Attrs)
    if (Attrs[A].Name == AName)
      return A;
  return InvalidId;
}

ProdId AttributeGrammar::findProd(const std::string &PName) const {
  auto It = ProdIndex.find(PName);
  return It == ProdIndex.end() ? InvalidId : It->second;
}

bool AttributeGrammar::isOutputOcc(ProdId P, const AttrOcc &O) const {
  if (O.isLocal())
    return true;
  if (O.isLexeme())
    return false;
  const Attribute &A = attr(O.Attr);
  if (O.Pos == 0)
    return A.isSynthesized();
  return A.isInherited();
}

void AttributeGrammar::buildProductionInfo() {
  ProdInfo.clear();
  ProdInfo.resize(Prods.size());
  for (ProdId P = 0, E = numProds(); P != E; ++P) {
    const Production &Pr = Prods[P];
    ProductionInfo &PI = ProdInfo[P];

    PI.PosBase.push_back(0);
    for (AttrId A : Phyla[Pr.Lhs].Attrs)
      PI.Occs.push_back(AttrOcc::onSymbol(0, A));
    for (unsigned C = 0; C != Pr.arity(); ++C) {
      PI.PosBase.push_back(PI.numOccs());
      for (AttrId A : Phyla[Pr.Rhs[C]].Attrs)
        PI.Occs.push_back(AttrOcc::onSymbol(C + 1, A));
    }
    PI.LocalBase = PI.numOccs();
    for (unsigned L = 0; L != Pr.Locals.size(); ++L)
      PI.Occs.push_back(AttrOcc::local(L));
    if (Pr.HasLexeme)
      PI.Occs.push_back(AttrOcc::lexeme());

    PI.DepGraph = Digraph(PI.numOccs());
    PI.DefiningRule.assign(PI.numOccs(), InvalidId);
    for (RuleId R : Pr.Rules) {
      const SemanticRule &Rule = Rules[R];
      OccId Target = PI.findOcc(Rule.Target);
      if (Target == InvalidId)
        continue; // Reported by checkWellFormed.
      if (PI.DefiningRule[Target] == InvalidId)
        PI.DefiningRule[Target] = R;
      for (const AttrOcc &Arg : Rule.Args) {
        OccId ArgId = PI.findOcc(Arg);
        if (ArgId != InvalidId)
          PI.DepGraph.addEdge(ArgId, Target);
      }
    }

    PI.DepMatrix = BitMatrix(PI.numOccs(), PI.numOccs());
    for (OccId O = 0; O != PI.numOccs(); ++O)
      for (unsigned T : PI.DepGraph.successors(O))
        PI.DepMatrix.set(O, T);
  }

  // Phylum -> production incidence for the worklist fixpoints.
  RhsProds.assign(numPhyla(), {});
  IncidentProds.assign(numPhyla(), {});
  for (ProdId P = 0, E = numProds(); P != E; ++P) {
    const Production &Pr = Prods[P];
    auto addOnce = [P](std::vector<ProdId> &List) {
      if (List.empty() || List.back() != P)
        List.push_back(P);
    };
    addOnce(IncidentProds[Pr.Lhs]);
    for (PhylumId C : Pr.Rhs) {
      addOnce(RhsProds[C]);
      addOnce(IncidentProds[C]);
    }
  }
}

bool AttributeGrammar::checkWellFormed(DiagnosticEngine &Diags) const {
  assert(ProdInfo.size() == Prods.size() &&
         "call buildProductionInfo() before checkWellFormed()");
  unsigned Before = Diags.errorCount();

  if (Start == InvalidId)
    Diags.error("grammar '" + Name + "' has no start phylum");

  // Every phylum must have at least one production (productivity at the
  // operator level) so trees can exist.
  std::vector<bool> HasProd(numPhyla(), false);
  for (const Production &Pr : Prods)
    HasProd[Pr.Lhs] = true;
  for (PhylumId P = 0; P != numPhyla(); ++P)
    if (!HasProd[P])
      Diags.error("phylum '" + Phyla[P].Name + "' has no operator");

  // Reachability from the start phylum.
  if (Start != InvalidId) {
    std::vector<bool> Reach(numPhyla(), false);
    std::vector<PhylumId> Work = {Start};
    Reach[Start] = true;
    while (!Work.empty()) {
      PhylumId P = Work.back();
      Work.pop_back();
      for (ProdId Pr : Phyla[P].Prods)
        for (PhylumId C : Prods[Pr].Rhs)
          if (!Reach[C]) {
            Reach[C] = true;
            Work.push_back(C);
          }
    }
    for (PhylumId P = 0; P != numPhyla(); ++P)
      if (!Reach[P])
        Diags.warning("phylum '" + Phyla[P].Name +
                      "' is unreachable from the start phylum");
  }

  for (ProdId P = 0; P != numProds(); ++P) {
    const Production &Pr = Prods[P];
    const ProductionInfo &PI = ProdInfo[P];

    // Rule sanity: targets must be output occurrences, defined exactly once;
    // arguments must name existing occurrences.
    std::vector<unsigned> DefCount(PI.numOccs(), 0);
    for (RuleId R : Pr.Rules) {
      const SemanticRule &Rule = Rules[R];
      OccId Target = PI.findOcc(Rule.Target);
      if (Target == InvalidId) {
        Diags.error("operator '" + Pr.Name +
                    "': rule defines unknown occurrence");
        continue;
      }
      if (!isOutputOcc(P, Rule.Target))
        Diags.error("operator '" + Pr.Name + "': rule defines input occurrence '" +
                    occName(P, Rule.Target) + "'");
      ++DefCount[Target];
      for (const AttrOcc &Arg : Rule.Args)
        if (PI.findOcc(Arg) == InvalidId)
          Diags.error("operator '" + Pr.Name +
                      "': rule argument names unknown occurrence");
    }
    for (OccId O = 0; O != PI.numOccs(); ++O) {
      const AttrOcc &Occ = PI.Occs[O];
      bool IsOutput = isOutputOcc(P, Occ);
      if (IsOutput && DefCount[O] == 0)
        Diags.error("operator '" + Pr.Name + "': occurrence '" +
                    occName(P, Occ) + "' has no defining rule");
      if (DefCount[O] > 1)
        Diags.error("operator '" + Pr.Name + "': occurrence '" +
                    occName(P, Occ) + "' is defined " +
                    std::to_string(DefCount[O]) + " times");
    }
  }
  return Diags.errorCount() == Before;
}

std::string AttributeGrammar::occName(ProdId P, const AttrOcc &O) const {
  const Production &Pr = prod(P);
  if (O.isLexeme())
    return "<lexeme>";
  if (O.isLocal())
    return "local " + Pr.Locals[O.LocalIndex].Name;
  const Attribute &A = attr(O.Attr);
  const std::string &Sym = Phyla[occPhylum(P, O)].Name;
  if (O.Pos == 0)
    return Sym + "$0." + A.Name;
  return Sym + "$" + std::to_string(O.Pos) + "." + A.Name;
}

std::string AttributeGrammar::dump() const {
  std::string Out = "grammar " + Name + "\n";
  for (PhylumId P = 0; P != numPhyla(); ++P) {
    Out += "phylum " + Phyla[P].Name;
    if (P == Start)
      Out += " (start)";
    Out += "\n";
    for (AttrId A : Phyla[P].Attrs) {
      const Attribute &At = Attrs[A];
      Out += std::string("  ") +
             (At.isInherited() ? "inh " : "syn ") + At.Name;
      if (!At.TypeName.empty())
        Out += " : " + At.TypeName;
      Out += "\n";
    }
  }
  for (ProdId P = 0; P != numProds(); ++P) {
    const Production &Pr = Prods[P];
    Out += "operator " + Pr.Name + " : " + Phyla[Pr.Lhs].Name + " ->";
    for (PhylumId C : Pr.Rhs)
      Out += " " + Phyla[C].Name;
    if (Pr.HasLexeme)
      Out += " <lexeme>";
    Out += "\n";
    for (RuleId R : Pr.Rules) {
      const SemanticRule &Rule = Rules[R];
      Out += "  " + occName(P, Rule.Target) + " := " +
             (Rule.FnName.empty() ? "<fn>" : Rule.FnName) + "(";
      for (size_t I = 0; I != Rule.Args.size(); ++I) {
        if (I)
          Out += ", ";
        Out += occName(P, Rule.Args[I]);
      }
      Out += ")";
      if (Rule.IsAutoGenerated)
        Out += "  -- auto";
      Out += "\n";
    }
  }
  return Out;
}
