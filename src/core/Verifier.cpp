//===- Verifier.cpp - Structural IR verification ------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structural half of the analysis subsystem: verifyProgram re-derives
/// every term-graph invariant from scratch (it never trusts the pass that
/// just ran), using its own Kahn traversal so that even a cyclic graph gets
/// a diagnostic instead of an assertion failure. verifyCompiled adds the
/// cross-checks that need the CompiledProgram container: Galois-key
/// coverage of every rotation, hoist-plan consistency, bit-size sanity, and
/// a full dataflow re-validation of Constraints 1-4.
///
/// The work is linear in nodes and edges. Membership is an id-indexed
/// table (a foreign node, such as an operand taken from another program,
/// must still be alive: its id is read). Constant payloads are immutable,
/// so their element facts are computed once, when they are made, and the
/// verifier reads them instead of rescanning every element after every
/// pass.
///
//===----------------------------------------------------------------------===//

#include "eva/core/Analysis.h"

#include "eva/ckks/SecurityTable.h"
#include "eva/support/BitOps.h"

#include <algorithm>
#include <cmath>

using namespace eva;

namespace {

std::string nodeDesc(const Node *N) {
  return std::string("%") + std::to_string(N->id()) + " (" + opName(N->op()) +
         ")";
}

/// Operand count per opcode; SIZE_MAX marks source/sink kinds handled
/// separately.
size_t expectedArity(OpCode Op) {
  switch (Op) {
  case OpCode::Input:
  case OpCode::Constant:
    return 0;
  case OpCode::Output:
  case OpCode::Negate:
  case OpCode::RotateLeft:
  case OpCode::RotateRight:
  case OpCode::Sum:
  case OpCode::Copy:
  case OpCode::Relinearize:
  case OpCode::ModSwitch:
  case OpCode::Rescale:
  case OpCode::NormalizeScale:
    return 1;
  case OpCode::Add:
  case OpCode::Sub:
  case OpCode::Multiply:
    return 2;
  }
  return SIZE_MAX;
}

Status checkConstant(const Node *N, uint64_t VecSize) {
  // The payload accessor asserts on op(); reach it only for constants.
  const ConstantPayload &Payload = N->constPayload();
  const std::vector<double> &V = Payload.Values;
  if (V.empty())
    return Status::error("constant " + nodeDesc(N) + " has an empty payload");
  if (!isPowerOfTwo(V.size()) || V.size() > VecSize)
    return Status::error("constant " + nodeDesc(N) + " has payload size " +
                         std::to_string(V.size()) +
                         "; must be a power of two <= vec_size");
  if (N->type() == ValueType::Scalar && V.size() != 1)
    return Status::error("scalar constant " + nodeDesc(N) +
                         " has a vector payload");
  if (!Payload.AllFinite)
    return Status::error("constant " + nodeDesc(N) +
                         " has a non-finite element");
  if (N->isCipher())
    return Status::error("constant " + nodeDesc(N) +
                         " is Cipher-typed; constants are plaintext");
  return Status::success();
}

} // namespace

Status eva::verifyProgram(const Program &P, const VerifyOptions &O) {
  const std::vector<Node *> Nodes = P.nodes();
  const uint64_t MaxId = P.maxNodeId();

  // Node identity: ids dense-bounded and unique, so side tables keyed by id
  // are unambiguous, and a node is a member iff the id table holds it.
  std::vector<const Node *> ById(MaxId, nullptr);
  for (const Node *N : Nodes) {
    if (N->id() >= MaxId)
      return Status::error("node id " + std::to_string(N->id()) +
                           " out of range (maxNodeId " +
                           std::to_string(MaxId) + ")");
    if (ById[N->id()])
      return Status::error("duplicate node id " + std::to_string(N->id()));
    ById[N->id()] = N;
  }
  auto IsMember = [&](const Node *N) {
    return N->id() < MaxId && ById[N->id()] == N;
  };

  // The I/O lists and the node set must agree in both directions.
  std::vector<char> Listed(MaxId, 0);
  for (const std::vector<Node *> *Group : {&P.inputs(), &P.constants(),
                                           &P.outputs()})
    for (const Node *N : *Group) {
      if (!IsMember(N))
        return Status::error("I/O list entry is not a live node");
      Listed[N->id()] = 1;
    }
  for (const Node *N : P.inputs())
    if (N->op() != OpCode::Input)
      return Status::error("input list holds non-input " + nodeDesc(N));
  for (const Node *N : P.constants())
    if (N->op() != OpCode::Constant)
      return Status::error("constant list holds non-constant " + nodeDesc(N));
  for (const Node *N : P.outputs())
    if (N->op() != OpCode::Output)
      return Status::error("output list holds non-output " + nodeDesc(N));

  for (const Node *N : Nodes) {
    const OpCode Op = N->op();

    // Opcode admissibility for this pipeline stage.
    if ((Op == OpCode::Sum || Op == OpCode::Copy) && !O.AllowSumCopy)
      return Status::error("frontend op " + nodeDesc(N) +
                           " survived lowering");
    if (isCompilerInsertedOp(Op) && !O.AllowCompilerOps)
      return Status::error("compiler-inserted op " + nodeDesc(N) +
                           " not allowed at this stage");
    if ((Op == OpCode::Input || Op == OpCode::Constant ||
         Op == OpCode::Output) &&
        !Listed[N->id()])
      return Status::error(nodeDesc(N) + " is missing from its I/O list");

    // Arity, operand membership (dangling detection), and use/operand
    // symmetry.
    size_t Arity = expectedArity(Op);
    if (Arity == SIZE_MAX)
      return Status::error("unknown opcode on node " +
                           std::to_string(N->id()));
    if (N->parmCount() != Arity)
      return Status::error(nodeDesc(N) + " has " +
                           std::to_string(N->parmCount()) + " operands; " +
                           opName(Op) + " takes " + std::to_string(Arity));
    for (const Node *Parm : N->parms()) {
      if (!IsMember(Parm))
        return Status::error("dangling operand on " + nodeDesc(N) +
                             ": %" + std::to_string(Parm->id()) +
                             " is not a node of this program");
      size_t UsesOfN =
          std::count(Parm->uses().begin(), Parm->uses().end(), N);
      size_t ParmsOfP = std::count(N->parms().begin(), N->parms().end(), Parm);
      if (UsesOfN != ParmsOfP)
        return Status::error("use/operand lists out of sync between " +
                             nodeDesc(N) + " and %" +
                             std::to_string(Parm->id()));
    }
    for (const Node *Use : N->uses())
      if (!IsMember(Use))
        return Status::error("dangling use on " + nodeDesc(N) + ": %" +
                             std::to_string(Use->id()) +
                             " is not a node of this program");

    // Kind-specific invariants.
    if (Op == OpCode::Output && N->hasUses())
      return Status::error("output " + nodeDesc(N) + " has children");
    if (Op == OpCode::Output && N->type() != N->parm(0)->type())
      return Status::error("output " + nodeDesc(N) +
                           " type differs from its value %" +
                           std::to_string(N->parm(0)->id()));
    if (Op == OpCode::Constant)
      if (Status S = checkConstant(N, P.vecSize()); !S.ok())
        return S;
    if (Op != OpCode::Output && N->isPlain())
      for (const Node *Parm : N->parms())
        if (Parm->isCipher())
          return Status::error("plaintext " + nodeDesc(N) +
                               " computed from ciphertext operand %" +
                               std::to_string(Parm->id()));
    if (Op == OpCode::Rescale && N->rescaleBits() <= 0)
      return Status::error("invalid rescale value at " + nodeDesc(N));
    if (Op == OpCode::Input || Op == OpCode::Constant) {
      if (!std::isfinite(N->logScale()) || N->logScale() <= 0)
        return Status::error("non-positive scale on " + nodeDesc(N));
    } else if (O.RequireScaleAnnotations) {
      if (!std::isfinite(N->logScale()) ||
          (Op != OpCode::Output && N->logScale() <= 0))
        return Status::error("missing scale annotation on " + nodeDesc(N));
    }
    if (isRotation(Op) && O.RequireNormalizedRotations)
      if (Op != OpCode::RotateLeft || N->rotation() < 0 ||
          static_cast<uint64_t>(N->rotation()) >= P.vecSize())
        return Status::error("un-normalized rotation step " +
                             std::to_string(N->rotation()) + " at " +
                             nodeDesc(N) +
                             " (expected ROTATELEFT in [0, vec_size))");
    if (!O.AllowUnusedInstructions && !N->hasUses() && Op != OpCode::Output &&
        Op != OpCode::Input)
      return Status::error("orphaned " + nodeDesc(N) +
                           ": no path to any output");
  }

  // Duplicate I/O names make a Valuation ambiguous.
  for (const std::vector<Node *> *Group : {&P.inputs(), &P.outputs()})
    for (size_t I = 0; I < Group->size(); ++I)
      for (size_t J = I + 1; J < Group->size(); ++J)
        if ((*Group)[I]->name() == (*Group)[J]->name())
          return Status::error(
              std::string(Group == &P.inputs() ? "duplicate input name '"
                                               : "duplicate output name '") +
              (*Group)[I]->name() + "'");

  // Acyclicity by Kahn's algorithm. Program::forwardOrder asserts on cycles
  // (its callers are entitled to a DAG); the verifier must instead report
  // them, since diagnosing a pass that created a cycle is its whole job.
  std::vector<size_t> Pending(MaxId, 0);
  std::vector<const Node *> Ready;
  size_t Visited = 0;
  for (const Node *N : Nodes) {
    Pending[N->id()] = N->parmCount();
    if (N->parmCount() == 0)
      Ready.push_back(N);
  }
  while (!Ready.empty()) {
    const Node *N = Ready.back();
    Ready.pop_back();
    ++Visited;
    for (const Node *C : N->uses())
      if (--Pending[C->id()] == 0)
        Ready.push_back(C);
  }
  if (Visited != Nodes.size())
    for (const Node *N : Nodes)
      if (Pending[N->id()] > 0)
        return Status::error("cycle in term graph involving " + nodeDesc(N));

  return Status::success();
}

Status eva::verifyCompiled(const CompiledProgram &CP) {
  if (!CP.Prog)
    return Status::error("compiled program has no graph");
  Program &P = *CP.Prog;

  VerifyOptions VO = VerifyOptions::compiled();
  VO.RequireNormalizedRotations = CP.Options.Optimize;
  if (Status S = verifyProgram(P, VO); !S.ok())
    return S;

  // Selected parameters must be internally consistent.
  if (CP.BitSizes.empty())
    return Status::error("no modulus chain selected");
  int Total = 0;
  for (int B : CP.BitSizes) {
    if (B < CP.Options.MinPrimeBits || B > CP.Options.SfBits)
      return Status::error("bit size " + std::to_string(B) +
                           " outside [MinPrimeBits, SfBits]");
    Total += B;
  }
  if (Total != CP.TotalModulusBits)
    return Status::error("TotalModulusBits disagrees with the bit-size sum");
  if (!isPowerOfTwo(CP.PolyDegree) || CP.PolyDegree < 2 * P.vecSize())
    return Status::error("polynomial degree " +
                         std::to_string(CP.PolyDegree) +
                         " cannot hold vec_size " +
                         std::to_string(P.vecSize()));
  if (maxCoeffModulusBits(CP.PolyDegree, CP.Options.Security) < Total)
    return Status::error("coefficient modulus exceeds the security bound "
                         "for N = " +
                         std::to_string(CP.PolyDegree));

  // Every cipher rotation the executor will dispatch needs a Galois key:
  // its normalized step must be in RotationSteps (0 is the identity, which
  // the executor forwards without key switching). This is the check that
  // catches a pass rewriting rotations without updating the key set.
  for (const Node *N : P.nodes()) {
    if (!isRotation(N->op()) || !N->isCipher())
      continue;
    uint64_t S = normalizedLeftSteps(N, P.vecSize());
    if (S != 0 && !CP.RotationSteps.count(S))
      return Status::error("rotation " + nodeDesc(N) + " needs step " +
                           std::to_string(S) +
                           " but no Galois key was selected for it");
  }

  // Hoist-plan consistency: members are live rotations of their group's
  // source, and the reverse index matches.
  std::vector<const Node *> ById(P.maxNodeId(), nullptr);
  for (const Node *N : P.nodes())
    ById[N->id()] = N;
  auto IsMember = [&](const Node *N) {
    return N->id() < ById.size() && ById[N->id()] == N;
  };
  for (size_t G = 0; G < CP.RotPlan.Groups.size(); ++G) {
    const RotationPlan::HoistGroup &Group = CP.RotPlan.Groups[G];
    if (!Group.Source || !IsMember(Group.Source))
      return Status::error("hoist group " + std::to_string(G) +
                           " has a dead source");
    if (Group.Members.size() < 2)
      return Status::error("hoist group " + std::to_string(G) +
                           " has fewer than 2 members");
    for (const Node *M : Group.Members) {
      if (!IsMember(M) || !isRotation(M->op()) ||
          M->parm(0) != Group.Source)
        return Status::error("hoist group " + std::to_string(G) +
                             " member is not a live rotation of its source");
      auto It = CP.RotPlan.GroupOf.find(M->id());
      if (It == CP.RotPlan.GroupOf.end() || It->second != G)
        return Status::error("hoist-plan reverse index out of sync at %" +
                             std::to_string(M->id()));
    }
  }

  // Full dataflow re-validation (Constraints 1-4) against the selected s_f.
  AnalysisOptions AO;
  AO.SfBits = CP.Options.SfBits;
  AO.PolyDegree = CP.PolyDegree;
  Expected<AnalysisResult> AR = analyzeProgram(P, AO);
  if (!AR)
    return AR.takeStatus();

  // Galois-key levels: an empty map asks for full keys. A recorded level
  // belongs to a selected step, fits the data chain, and covers every
  // cipher rotation by that step, or a key would be read past its digits.
  size_t DataPrimes = CP.BitSizes.size() - 1;
  for (auto [Step, Primes] : CP.RotationKeyPrimes) {
    if (!CP.RotationSteps.count(Step))
      return Status::error("Galois-key level recorded for step " +
                           std::to_string(Step) +
                           ", which has no Galois key");
    if (Primes == 0 || Primes > DataPrimes)
      return Status::error("Galois key for step " + std::to_string(Step) +
                           " at " + std::to_string(Primes) +
                           " primes, outside [1, " +
                           std::to_string(DataPrimes) + "]");
  }
  for (const Node *N : P.nodes()) {
    if (!isRotation(N->op()) || !N->isCipher())
      continue;
    auto It = CP.RotationKeyPrimes.find(normalizedLeftSteps(N, P.vecSize()));
    int Consumed = AR->Level[N->id()];
    if (It == CP.RotationKeyPrimes.end() || Consumed < 0)
      continue;
    size_t Live = DataPrimes - std::min<size_t>(Consumed, DataPrimes);
    if (Live > It->second)
      return Status::error("rotation " + nodeDesc(N) + " runs at " +
                           std::to_string(Live) + " primes but the Galois "
                           "key for step " + std::to_string(It->first) +
                           " holds " + std::to_string(It->second));
  }
  return Status::success();
}
