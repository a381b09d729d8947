//===- workloads/ClassicGrammars.cpp --------------------------------------===//

#include "workloads/ClassicGrammars.h"

#include "grammar/GrammarBuilder.h"

#include <algorithm>

using namespace fnc2;

/// Shorthand for occurrence construction.
static AttrOcc occ(unsigned Pos, AttrId A) { return AttrOcc::onSymbol(Pos, A); }

AttributeGrammar workloads::deskCalculator(DiagnosticEngine &Diags) {
  GrammarBuilder B("desk-calc");
  PhylumId Prog = B.phylum("Prog");
  PhylumId Exp = B.phylum("Exp");
  AttrId Result = B.synthesized(Prog, "result", "int");
  AttrId Env = B.inherited(Exp, "env", "map");
  AttrId Val = B.synthesized(Exp, "val", "int");

  // Integer arithmetic wraps (two's complement, through uint64_t) rather
  // than overflowing; the native source strings spell the same operation.
  auto binOp = [](auto Op) {
    return [Op](std::span<const Value> A) {
      return Value::ofInt(
          int64_t(Op(uint64_t(A[0].asInt()), uint64_t(A[1].asInt()))));
    };
  };

  // Calc(Exp) -> Prog
  ProdId Calc = B.production("Calc", Prog, {Exp});
  B.rule(Calc, occ(1, Env), {}, "emptyEnv",
         [](std::span<const Value> ) { return Value::emptyMap(); });
  B.copy(Calc, occ(0, Result), occ(1, Val));

  // Num<int> -> Exp
  ProdId Num = B.production("Num", Exp, {}, /*HasLexeme=*/true);
  B.native(B.rule(Num, occ(0, Val), {AttrOcc::lexeme()}, "lexVal",
                  [](std::span<const Value> A) { return A[0]; }),
           "a0");

  // Var<"name"> -> Exp
  ProdId Var = B.production("Var", Exp, {}, /*HasLexeme=*/true,
                            /*StringLexeme=*/true);
  B.native(B.rule(Var, occ(0, Val), {occ(0, Env), AttrOcc::lexeme()},
                  "lookup",
                  [](std::span<const Value> A) {
                    const Value *V = A[0].mapLookup(A[1].asString());
                    return V ? *V : Value::ofInt(0);
                  }),
           "[&]{ const Value *V = a0.mapLookup(a1.asString()); "
           "return V ? *V : Value::ofInt(0); }()");

  // Add/Sub/Mul(Exp, Exp) -> Exp; environments auto-copied.
  ProdId Add = B.production("Add", Exp, {Exp, Exp});
  B.native(B.rule(Add, occ(0, Val), {occ(1, Val), occ(2, Val)}, "add",
                  binOp([](uint64_t X, uint64_t Y) { return X + Y; })),
           "Value::ofInt(int64_t(uint64_t(a0.asInt()) + uint64_t(a1.asInt())))");
  ProdId Sub = B.production("Sub", Exp, {Exp, Exp});
  B.native(B.rule(Sub, occ(0, Val), {occ(1, Val), occ(2, Val)}, "sub",
                  binOp([](uint64_t X, uint64_t Y) { return X - Y; })),
           "Value::ofInt(int64_t(uint64_t(a0.asInt()) - uint64_t(a1.asInt())))");
  ProdId Mul = B.production("Mul", Exp, {Exp, Exp});
  B.native(B.rule(Mul, occ(0, Val), {occ(1, Val), occ(2, Val)}, "mul",
                  binOp([](uint64_t X, uint64_t Y) { return X * Y; })),
           "Value::ofInt(int64_t(uint64_t(a0.asInt()) * uint64_t(a1.asInt())))");

  // Let<"name">(bound, body) -> Exp
  ProdId Let = B.production("Let", Exp, {Exp, Exp}, /*HasLexeme=*/true,
                            /*StringLexeme=*/true);
  B.copy(Let, occ(1, Env), occ(0, Env));
  B.native(B.rule(Let, occ(2, Env),
                  {occ(0, Env), AttrOcc::lexeme(), occ(1, Val)}, "bind",
                  [](std::span<const Value> A) {
                    return A[0].mapInsert(A[1].asString(), A[2]);
                  }),
           "a0.mapInsert(a1.asString(), a2)");
  B.copy(Let, occ(0, Val), occ(2, Val));

  B.setStart(Prog);
  return B.finalize(Diags);
}

AttributeGrammar workloads::binaryNumbers(DiagnosticEngine &Diags) {
  // Values are fixed-point in 1/1024 units so the fractional part stays
  // integral: a bit at scale s contributes 2^(10+s) mod 2^64, and 0 when
  // 10+s is outside [0, 63]. Sums wrap (two's complement).
  GrammarBuilder B("binary-numbers");
  auto wrappingAdd = [](std::span<const Value> A) {
    return Value::ofInt(
        int64_t(uint64_t(A[0].asInt()) + uint64_t(A[1].asInt())));
  };
  PhylumId Num = B.phylum("Num");
  PhylumId List = B.phylum("List");
  PhylumId Bit = B.phylum("Bit");
  AttrId NVal = B.synthesized(Num, "val", "int");
  AttrId LScale = B.inherited(List, "scale", "int");
  AttrId LVal = B.synthesized(List, "val", "int");
  AttrId LLen = B.synthesized(List, "len", "int");
  AttrId BScale = B.inherited(Bit, "scale", "int");
  AttrId BVal = B.synthesized(Bit, "val", "int");

  // Integer(List) -> Num
  ProdId Integer = B.production("Integer", Num, {List});
  B.constant(Integer, occ(1, LScale), Value::ofInt(0), "zeroScale");
  B.copy(Integer, occ(0, NVal), occ(1, LVal));

  // Fraction(List, List) -> Num; the fraction's scale is minus its own
  // length — the dependency that makes this grammar need two visits.
  ProdId Fraction = B.production("Fraction", Num, {List, List});
  B.constant(Fraction, occ(1, LScale), Value::ofInt(0), "zeroScale");
  B.rule(Fraction, occ(2, LScale), {occ(2, LLen)}, "negate",
         [](std::span<const Value> A) {
           return Value::ofInt(-A[0].asInt());
         });
  B.rule(Fraction, occ(0, NVal), {occ(1, LVal), occ(2, LVal)}, "add",
         wrappingAdd);

  // Single(Bit) -> List
  ProdId Single = B.production("Single", List, {Bit});
  B.copy(Single, occ(1, BScale), occ(0, LScale));
  B.copy(Single, occ(0, LVal), occ(1, BVal));
  B.constant(Single, occ(0, LLen), Value::ofInt(1), "one");

  // Pair(List, Bit) -> List
  ProdId Pair = B.production("Pair", List, {List, Bit});
  B.rule(Pair, occ(1, LScale), {occ(0, LScale)}, "inc",
         [](std::span<const Value> A) {
           return Value::ofInt(A[0].asInt() + 1);
         });
  B.copy(Pair, occ(2, BScale), occ(0, LScale));
  B.rule(Pair, occ(0, LVal), {occ(1, LVal), occ(2, BVal)}, "add",
         wrappingAdd);
  B.rule(Pair, occ(0, LLen), {occ(1, LLen)}, "inc",
         [](std::span<const Value> A) {
           return Value::ofInt(A[0].asInt() + 1);
         });

  // Zero / One -> Bit
  ProdId Zero = B.production("Zero", Bit, {});
  B.constant(Zero, occ(0, BVal), Value::ofInt(0), "zero");
  ProdId One = B.production("One", Bit, {});
  B.rule(One, occ(0, BVal), {occ(0, BScale)}, "pow2",
         [](std::span<const Value> A) {
           const int64_t S = A[0].asInt() + 10;
           return Value::ofInt(S < 0 || S > 63 ? 0
                                               : int64_t(uint64_t(1) << S));
         });

  B.setStart(Num);
  return B.finalize(Diags);
}

AttributeGrammar workloads::repmin(DiagnosticEngine &Diags) {
  GrammarBuilder B("repmin");
  PhylumId Root = B.phylum("Root");
  PhylumId T = B.phylum("T");
  AttrId Rep = B.synthesized(Root, "rep", "string");
  AttrId GMin = B.inherited(T, "gmin", "int");
  AttrId Min = B.synthesized(T, "min", "int");
  AttrId TRep = B.synthesized(T, "rep", "string");

  ProdId Top = B.production("Top", Root, {T});
  B.copy(Top, occ(1, GMin), occ(1, Min)); // broadcast the subtree minimum
  B.copy(Top, occ(0, Rep), occ(1, TRep));

  ProdId Leaf = B.production("Leaf", T, {}, /*HasLexeme=*/true);
  B.native(B.rule(Leaf, occ(0, Min), {AttrOcc::lexeme()}, "lexVal",
                  [](std::span<const Value> A) { return A[0]; }),
           "a0");
  B.native(B.rule(Leaf, occ(0, TRep), {occ(0, GMin)}, "show",
                  [](std::span<const Value> A) {
                    return Value::ofString(std::to_string(A[0].asInt()));
                  }),
           "Value::ofString(std::to_string(a0.asInt()))");

  ProdId Fork = B.production("Fork", T, {T, T});
  B.native(B.rule(Fork, occ(0, Min), {occ(1, Min), occ(2, Min)}, "min",
                  [](std::span<const Value> A) {
                    return Value::ofInt(std::min(A[0].asInt(), A[1].asInt()));
                  }),
           "Value::ofInt(std::min(a0.asInt(), a1.asInt()))");
  B.native(B.rule(Fork, occ(0, TRep), {occ(1, TRep), occ(2, TRep)}, "fork",
                  [](std::span<const Value> A) {
                    return Value::ofString("(" + A[0].asString() + "," +
                                           A[1].asString() + ")");
                  }),
           "[&]{ std::string S; S.reserve(a0.asString().size() + "
           "a1.asString().size() + 3); S += '('; S += a0.asString(); "
           "S += ','; S += a1.asString(); S += ')'; "
           "return Value::ofString(std::move(S)); }()");

  B.setStart(Root);
  return B.finalize(Diags);
}

AttributeGrammar workloads::circularGrammar(DiagnosticEngine &Diags) {
  // h = u(s) in the context while s = f(h) below: a genuine cycle.
  GrammarBuilder B("circular");
  PhylumId Root = B.phylum("Root");
  PhylumId X = B.phylum("X");
  AttrId Out = B.synthesized(Root, "out", "int");
  AttrId H = B.inherited(X, "h", "int");
  AttrId S = B.synthesized(X, "s", "int");

  ProdId Top = B.production("Top", Root, {X});
  B.copy(Top, occ(1, H), occ(1, S));
  B.copy(Top, occ(0, Out), occ(1, S));

  ProdId Leaf = B.production("Leaf", X, {});
  B.rule(Leaf, occ(0, S), {occ(0, H)}, "f",
         [](std::span<const Value> A) { return A[0]; });

  B.setStart(Root);
  return B.finalize(Diags);
}

AttributeGrammar workloads::twoContextGrammar(DiagnosticEngine &Diags) {
  // X: inh h1 h2, syn s1 s2; the leaf pairs (h1,s1) and (h2,s2). Context A
  // computes h2 from s1 (order h1 s1 h2 s2); context B computes h1 from s2
  // (order h2 s2 h1 s1). Each context is fine (SNC) but their OI union is
  // cyclic with the leaf dependencies, so the grammar is not DNC and the
  // transformation must keep two partitions for X.
  GrammarBuilder B("two-context");
  PhylumId Root = B.phylum("Root");
  PhylumId W = B.phylum("W");
  PhylumId X = B.phylum("X");
  AttrId Out = B.synthesized(Root, "out", "int");
  AttrId WOut = B.synthesized(W, "out", "int");
  AttrId H1 = B.inherited(X, "h1", "int");
  AttrId H2 = B.inherited(X, "h2", "int");
  AttrId S1 = B.synthesized(X, "s1", "int");
  AttrId S2 = B.synthesized(X, "s2", "int");

  ProdId Top = B.production("Top", Root, {W});
  B.copy(Top, occ(0, Out), occ(1, WOut));

  auto inc = [](std::span<const Value> A) {
    return Value::ofInt(A[0].asInt() + 1);
  };

  ProdId CtxA = B.production("CtxA", W, {X});
  B.constant(CtxA, occ(1, H1), Value::ofInt(100), "c100");
  B.rule(CtxA, occ(1, H2), {occ(1, S1)}, "inc", inc);
  B.copy(CtxA, occ(0, WOut), occ(1, S2));

  ProdId CtxB = B.production("CtxB", W, {X});
  B.constant(CtxB, occ(1, H2), Value::ofInt(200), "c200");
  B.rule(CtxB, occ(1, H1), {occ(1, S2)}, "inc", inc);
  B.copy(CtxB, occ(0, WOut), occ(1, S1));

  ProdId Leaf = B.production("LeafX", X, {});
  B.rule(Leaf, occ(0, S1), {occ(0, H1)}, "inc", inc);
  B.rule(Leaf, occ(0, S2), {occ(0, H2)}, "inc", inc);

  B.setStart(Root);
  return B.finalize(Diags);
}

/// Builds one "sibling conflict" production Name : Root -> X X between the
/// attribute pairs (HA, SA) and (HB, SB): the left son's SA output feeds the
/// right son's HA input, while the right son's SB output feeds back into the
/// left son's HB input. Both pairs grouped into one visit deadlocks; any
/// partition that splits pair A from pair B (in either order) works.
static void siblingConflict(GrammarBuilder &B, const std::string &Name,
                            PhylumId Root, PhylumId X, AttrId Out, AttrId HA,
                            AttrId SA, AttrId HB, AttrId SB) {
  auto inc = [](std::span<const Value> A) {
    return Value::ofInt(A[0].asInt() + 1);
  };
  ProdId P = B.production(Name, Root, {X, X});
  B.constant(P, occ(1, HA), Value::ofInt(10), "c10");
  B.rule(P, occ(2, HA), {occ(1, SA)}, "inc", inc);
  B.constant(P, occ(2, HB), Value::ofInt(20), "c20");
  B.rule(P, occ(1, HB), {occ(2, SB)}, "inc", inc);
  B.rule(P, occ(0, Out), {occ(1, SB), occ(2, SA)}, "add",
         [](std::span<const Value> A) {
           return Value::ofInt(A[0].asInt() + A[1].asInt());
         });
}

/// Adds a constant-zero rule for every child inherited occurrence that no
/// explicit rule defines (the sibling-conflict builders only wire the pairs
/// they are about).
static void fillMissingChildInherited(GrammarBuilder &B) {
  AttributeGrammar &AG = B.grammar();
  for (ProdId P = 0; P != AG.numProds(); ++P) {
    unsigned Arity = AG.prod(P).arity();
    for (unsigned C = 0; C != Arity; ++C) {
      PhylumId Child = AG.prod(P).Rhs[C];
      for (AttrId A : AG.Phyla[Child].Attrs) {
        if (!AG.attr(A).isInherited())
          continue;
        AttrOcc O = occ(C + 1, A);
        bool Defined = false;
        for (RuleId R : AG.Prods[P].Rules)
          if (AG.rule(R).Target == O)
            Defined = true;
        if (!Defined)
          B.constant(P, O, Value::ofInt(0), "zero");
      }
    }
  }
}

AttributeGrammar workloads::dncNotOagGrammar(DiagnosticEngine &Diags) {
  // Three independent attribute pairs on X and a triangle of sibling
  // conflicts between them: every pairwise grouping deadlocks some
  // production, so Kastens' grouped peel fails and each OAG repair round
  // can split only one pairing — the grammar is beyond OAG(0) and OAG(1)
  // (it lands in OAG(k) only for larger repair budgets). The DNC selectors
  // keep the sons' contexts apart, so the class row is "DNC", like the
  // paper's AG 5 under the default OAG(0) test.
  GrammarBuilder B("dnc-not-oag");
  PhylumId Root = B.phylum("Root");
  PhylumId X = B.phylum("X");
  AttrId Out = B.synthesized(Root, "out", "int");
  AttrId H1 = B.inherited(X, "h1", "int");
  AttrId H2 = B.inherited(X, "h2", "int");
  AttrId H3 = B.inherited(X, "h3", "int");
  AttrId S1 = B.synthesized(X, "s1", "int");
  AttrId S2 = B.synthesized(X, "s2", "int");
  AttrId S3 = B.synthesized(X, "s3", "int");

  siblingConflict(B, "Conflict12", Root, X, Out, H1, S1, H2, S2);
  siblingConflict(B, "Conflict23", Root, X, Out, H2, S2, H3, S3);
  siblingConflict(B, "Conflict31", Root, X, Out, H3, S3, H1, S1);

  auto inc = [](std::span<const Value> A) {
    return Value::ofInt(A[0].asInt() + 1);
  };
  ProdId Leaf = B.production("LeafX", X, {});
  B.rule(Leaf, occ(0, S1), {occ(0, H1)}, "inc", inc);
  B.rule(Leaf, occ(0, S2), {occ(0, H2)}, "inc", inc);
  B.rule(Leaf, occ(0, S3), {occ(0, H3)}, "inc", inc);

  fillMissingChildInherited(B);
  B.setStart(Root);
  return B.finalize(Diags);
}

AttributeGrammar workloads::oag1Grammar(DiagnosticEngine &Diags) {
  // One sibling conflict between two independent pairs of X: the grouped
  // peel [h1 h2 | s1 s2] deadlocks the Conflict production (Kastens' EDP is
  // cyclic), so the grammar is not OAG(0); a single repair round splits the
  // partition into [h2 | s2 | h1 | s1] and every completed graph becomes
  // acyclic: OAG(1). This plays the role of the paper's AG 7, which was
  // found to be OAG(1) by trial and error.
  GrammarBuilder B("oag1");
  PhylumId Root = B.phylum("Root");
  PhylumId X = B.phylum("X");
  AttrId Out = B.synthesized(Root, "out", "int");
  AttrId H1 = B.inherited(X, "h1", "int");
  AttrId H2 = B.inherited(X, "h2", "int");
  AttrId S1 = B.synthesized(X, "s1", "int");
  AttrId S2 = B.synthesized(X, "s2", "int");

  siblingConflict(B, "Conflict", Root, X, Out, H1, S1, H2, S2);

  auto inc = [](std::span<const Value> A) {
    return Value::ofInt(A[0].asInt() + 1);
  };
  ProdId Leaf = B.production("LeafX", X, {});
  B.rule(Leaf, occ(0, S1), {occ(0, H1)}, "inc", inc);
  B.rule(Leaf, occ(0, S2), {occ(0, H2)}, "inc", inc);

  B.setStart(Root);
  return B.finalize(Diags);
}
