//===- visitseq/VisitSequence.h - Visit-sequence paradigm -------*- C++ -*-===//
//
// Part of fnc2cpp, a reproduction of the FNC-2 attribute grammar system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Visit sequences (paper section 2.1.1): per (production, LHS partition)
/// pair, a program over the instruction set
///
///   BEGIN i   — begin the i-th visit to the current node;
///   EVAL s    — evaluate the rules defining the occurrences in set s;
///   VISIT i,j — perform the i-th visit of the j-th son (carrying, per the
///               transformation, the partition to use on that son);
///   LEAVE i   — terminate the i-th visit and return to the father.
///
/// An EvaluationPlan bundles the sequences with the partition tables; the
/// exhaustive and incremental evaluators interpret it.
///
//===----------------------------------------------------------------------===//

#ifndef FNC2_VISITSEQ_VISITSEQUENCE_H
#define FNC2_VISITSEQ_VISITSEQUENCE_H

#include "ordered/Transform.h"

#include <map>

namespace fnc2 {

/// One abstract evaluator instruction.
struct VisitInstr {
  enum class Op : uint8_t { Begin, Eval, Visit, Leave };

  Op Kind = Op::Begin;
  /// Begin/Leave: this node's visit number. Visit: the son's visit number.
  unsigned VisitNo = 0;
  /// Visit: 0-based son index.
  unsigned Child = 0;
  /// Visit: partition id the son must evaluate under.
  unsigned ChildPartition = 0;
  /// Eval: the rules to run, in dependency order.
  std::vector<RuleId> Rules;

  bool operator==(const VisitInstr &) const = default;
};

/// The visit sequence of one (production, LHS partition) pair.
struct VisitSequence {
  ProdId Prod = InvalidId;
  unsigned LhsPartition = 0;
  unsigned NumVisits = 0;
  std::vector<VisitInstr> Instrs;
  /// Index of the BEGIN i instruction per visit (1-based visit -> [i-1]).
  std::vector<unsigned> BeginIndex;
  /// Partition id committed for each son.
  std::vector<unsigned> ChildPartition;

  bool operator==(const VisitSequence &) const = default;
};

/// Everything an evaluator needs: partition tables and visit sequences.
///
/// Immutability contract: a plan is written exactly once, by
/// buildVisitSequences() (and the storage optimizer reading alongside it),
/// and is strictly read-only afterwards. Every evaluator — exhaustive,
/// demand, storage-optimized, incremental and the batch engine — takes it by
/// const reference and the read path (the sequences, the grammar's
/// semantic function table) performs no hidden mutation, so one plan is
/// safely shared by any number of threads evaluating disjoint trees. The
/// only mutable state reachable through a plan is the runtime
/// DiagnosticEngine captured by molga-lowered semantic functions, which is
/// internally synchronized (see support/Diagnostics.h).
struct EvaluationPlan {
  const AttributeGrammar *AG = nullptr;
  std::vector<std::vector<TotallyOrderedPartition>> Partitions;
  std::vector<VisitSequence> Seqs;
  /// Per production: LHS partition id -> index into Seqs.
  std::vector<std::map<unsigned, unsigned>> SeqIndex;
  unsigned RootPartition = 0;

  /// Structural equality; AG compares by address (two plans for one live
  /// grammar), which is what the artifact round-trip test wants.
  bool operator==(const EvaluationPlan &) const = default;

  /// Total number of visit sequences (the evaluator size metric the paper's
  /// partition-count optimization targets).
  unsigned numSequences() const { return static_cast<unsigned>(Seqs.size()); }

  /// Human-readable listing of all sequences.
  std::string dump() const;
};

/// Generates visit sequences from a successful transformation result.
/// Returns false (with diagnostics) if some linear order cannot be
/// segmented into visits — which indicates an internal inconsistency.
bool buildVisitSequences(const AttributeGrammar &AG,
                         const TransformResult &Transform,
                         EvaluationPlan &Plan, DiagnosticEngine &Diags);

} // namespace fnc2

#endif // FNC2_VISITSEQ_VISITSEQUENCE_H
