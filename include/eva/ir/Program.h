//===- eva/ir/Program.h - EVA programs as term graphs -----------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A program in the EVA language: the tuple (M, Insts, Consts, Inputs,
/// Outputs) of Section 3, represented as a mutable term graph. The class
/// also provides the mutation primitives the graph-rewriting framework
/// builds on (operand rewiring, insert-between) and topological traversal
/// orders (forward: parents first; backward: children first).
///
//===----------------------------------------------------------------------===//

#ifndef EVA_IR_PROGRAM_H
#define EVA_IR_PROGRAM_H

#include "eva/ir/Node.h"
#include "eva/support/Error.h"

#include <memory>
#include <string>
#include <vector>

namespace eva {

class Program {
public:
  /// Creates a program over vectors of length \p VecSize (a power of two,
  /// the paper's M).
  explicit Program(uint64_t VecSize, std::string Name = "program");

  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;

  uint64_t vecSize() const { return VecSize; }
  const std::string &name() const { return ProgName; }

  //===--------------------------------------------------------------------===
  // Node creation
  //===--------------------------------------------------------------------===

  /// Adds a run-time input of the given type; \p LogScale is its fixed-point
  /// scale (Algorithm 1's S_i).
  Node *makeInput(std::string Name, ValueType Ty, double LogScale);

  /// Adds a compile-time constant vector (replicated if shorter than
  /// vec_size) at the given scale. verifyProgram rejects a payload whose
  /// length is not a power of two <= vec_size.
  Node *makeConstant(std::vector<double> Values, double LogScale);
  /// Adds a compile-time scalar constant (broadcast) at the given scale.
  Node *makeScalarConstant(double Value, double LogScale);

  /// Adds an instruction node computing \p Op over \p Parms.
  Node *makeInstruction(OpCode Op, std::vector<Node *> Parms,
                        ValueType Ty = ValueType::Cipher);

  /// Adds a rotation instruction with a step attribute.
  Node *makeRotation(OpCode Op, Node *Operand, int32_t Steps);

  /// Marks \p Value as a program output under \p Name (adds the distinct
  /// leaf node of Section 4.3).
  Node *makeOutput(std::string Name, Node *Value);

  //===--------------------------------------------------------------------===
  // Access
  //===--------------------------------------------------------------------===

  const std::vector<Node *> &inputs() const { return Inputs; }
  const std::vector<Node *> &constants() const { return Constants; }
  const std::vector<Node *> &outputs() const { return Outputs; }

  /// All live nodes in creation order.
  std::vector<Node *> nodes() const;
  size_t nodeCount() const;
  /// Number of instruction nodes (excludes inputs/constants/outputs).
  size_t instructionCount() const;
  /// Maximum number of MULTIPLY nodes on any source-to-sink path.
  size_t multiplicativeDepth() const;

  /// Dense id upper bound (node ids are < this; use for side tables).
  uint64_t maxNodeId() const { return NextId; }

  //===--------------------------------------------------------------------===
  // Mutation (the rewrite framework's primitives)
  //===--------------------------------------------------------------------===

  /// Replaces operand \p Index of \p User with \p NewParent, maintaining use
  /// lists.
  void setParm(Node *User, size_t Index, Node *NewParent);

  /// Rewires every use of \p N (except uses by \p NewNode itself) to
  /// \p NewNode — the Figure 4 rules' "for all (nc, k): nc.parm_k <- ns".
  void insertBetween(Node *N, Node *NewNode);

  /// Rewires only the uses of \p N by children in \p Children.
  void insertBetweenSome(Node *N, Node *NewNode,
                         const std::vector<Node *> &Children);

  /// Replaces all uses of \p Old with \p New (COPY elimination).
  void replaceAllUses(Node *Old, Node *New);

  /// Rewrites rotation node \p N in place to canonical form: ROTATELEFT
  /// with its step normalized into [0, vec_size). Semantics-preserving
  /// under the replication contract — the executors act on
  /// normalizedLeftSteps, which is unchanged by this rewrite.
  void canonicalizeRotation(Node *N);

  /// Deletes nodes not reachable backwards from any output (lowering can
  /// orphan SUM/COPY nodes). Inputs are kept even if unused.
  void eraseUnreachable();

  //===--------------------------------------------------------------------===
  // Traversal
  //===--------------------------------------------------------------------===

  /// Topological order with parents before children.
  std::vector<Node *> forwardOrder() const;
  /// Topological order with children before parents.
  std::vector<Node *> backwardOrder() const;

  /// Deep copy (Algorithm 1 transforms a copy so the caller keeps P_i).
  std::unique_ptr<Program> clone() const;

  /// Structural sanity check: operand/use symmetry, acyclicity, output
  /// leaves. Used by tests and after deserialization.
  Status verifyStructure() const;

private:
  Node *allocate(OpCode Op, ValueType Ty);

  uint64_t VecSize;
  std::string ProgName;
  uint64_t NextId = 0;
  std::vector<std::unique_ptr<Node>> AllNodes;
  std::vector<Node *> Inputs;
  std::vector<Node *> Constants;
  std::vector<Node *> Outputs;
};

} // namespace eva

#endif // EVA_IR_PROGRAM_H
