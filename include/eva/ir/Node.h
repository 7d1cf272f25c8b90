//===- eva/ir/Node.h - Term-graph nodes -------------------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A node of the EVA term graph (the paper's Abstract Semantic Graph,
/// Section 4.3). Each node can reach both its parents (ordered operands,
/// n.parms in the paper) and its children (uses), which the graph-rewriting
/// framework requires. Analysis state lives in side tables keyed by node id;
/// the few attributes that are part of the program itself (scales, rotation
/// counts, constant payloads, I/O names) live on the node.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_IR_NODE_H
#define EVA_IR_NODE_H

#include "eva/ir/Ops.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace eva {

class Program;

/// A constant's payload together with the facts passes need about it.
/// Payloads are immutable and shared between clones, so Program computes
/// these facts once, when it makes the payload; the verifier, the analysis
/// and CSE read them instead of rescanning the elements.
struct ConstantPayload {
  std::vector<double> Values;
  /// No element is NaN or infinite.
  bool AllFinite = true;
  /// The largest |element| (std::max over the elements from 0.0, so NaN
  /// elements never win).
  double MaxAbs = 0.0;
  /// Content hash: payloads whose elements compare equal hash alike, so
  /// -0.0 and +0.0 do.
  uint64_t Hash = 0;
};

class Node {
public:
  uint64_t id() const { return Id; }
  OpCode op() const { return Op; }
  ValueType type() const { return Ty; }

  const std::vector<Node *> &parms() const { return Parms; }
  Node *parm(size_t I) const {
    assert(I < Parms.size() && "operand index out of range");
    return Parms[I];
  }
  size_t parmCount() const { return Parms.size(); }

  /// Children (one entry per use; a node used twice by the same child
  /// appears twice).
  const std::vector<Node *> &uses() const { return Uses; }
  bool hasUses() const { return !Uses.empty(); }

  bool isCipher() const { return Ty == ValueType::Cipher; }
  bool isPlain() const { return Ty != ValueType::Cipher; }

  /// log2 of the fixed-point scale. Set on inputs/constants at creation (the
  /// compiler's S_i argument in Algorithm 1) and filled in for every node by
  /// the scale analysis.
  double logScale() const { return LogScale; }
  void setLogScale(double S) { LogScale = S; }

  /// Rotation step count (ROTATELEFT/ROTATERIGHT only).
  int32_t rotation() const { return Rotation; }
  void setRotation(int32_t R) { Rotation = R; }

  /// Divisor bit size for RESCALE (log2 of the paper's rescale value).
  int rescaleBits() const { return RescaleBits; }
  void setRescaleBits(int B) { RescaleBits = B; }

  /// Constant payload: a vector (broadcast if shorter than vec_size) for
  /// Vector constants, or a single element for Scalar constants.
  const std::vector<double> &constValue() const {
    return constPayload().Values;
  }
  /// The payload with its precomputed facts.
  const ConstantPayload &constPayload() const {
    assert(Op == OpCode::Constant && "not a constant");
    return *ConstValue;
  }

  /// Input/output name.
  const std::string &name() const { return Name; }

  /// Kernel tag for the bulk-synchronous (CHET-style) executor; -1 if the
  /// node is not part of a tagged kernel.
  int32_t kernelId() const { return KernelId; }
  void setKernelId(int32_t K) { KernelId = K; }

private:
  friend class Program;
  Node(uint64_t Id, OpCode Op, ValueType Ty) : Id(Id), Op(Op), Ty(Ty) {}

  uint64_t Id;
  OpCode Op;
  ValueType Ty;
  std::vector<Node *> Parms;
  std::vector<Node *> Uses;

  double LogScale = 0.0;
  int32_t Rotation = 0;
  int RescaleBits = 0;
  int32_t KernelId = -1;
  std::shared_ptr<const ConstantPayload> ConstValue;
  std::string Name;
};

/// Left-rotation step of rotation node \p N normalized into [0, VecSize):
/// ROTATERIGHT negates, and any step congruent modulo the vector size is
/// equivalent under the replication contract. The single source of truth
/// shared by the executors, the rotation-hoisting plan, and the
/// simplification/budgeting passes — these must agree bit for bit (the
/// executor matches hoist-batch results against the plan by this value).
uint64_t normalizedLeftSteps(const Node *N, uint64_t VecSize);

} // namespace eva

#endif // EVA_IR_NODE_H
