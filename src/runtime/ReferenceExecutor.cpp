//===- ReferenceExecutor.cpp - Identity-scheme semantics -----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/runtime/ReferenceExecutor.h"

#include "eva/api/Valuation.h"
#include "eva/support/Common.h"

#include <algorithm>

using namespace eva;

namespace {

std::vector<double> replicate(const std::vector<double> &V, uint64_t M) {
  assert(!V.empty() && M % V.size() == 0 &&
         "input length must divide vec_size");
  std::vector<double> Out(M);
  for (uint64_t I = 0; I < M; ++I)
    Out[I] = V[I % V.size()];
  return Out;
}

} // namespace

Expected<std::map<std::string, std::vector<double>>> ReferenceExecutor::run(
    const std::map<std::string, std::vector<double>> &Inputs) const {
  // The id scheme has no ciphertexts (a map holds none), but shares the
  // rest of the input contract with the CKKS backends (finiteness included)
  // so that the backends stay drop-in interchangeable.
  if (Status S = validateInputs(ProgramSignature::of(P),
                                Valuation::fromMap(Inputs));
      !S.ok())
    return S;

  uint64_t M = P.vecSize();
  std::vector<std::vector<double>> Values(P.maxNodeId());
  std::map<std::string, std::vector<double>> Outputs;

  for (const Node *N : P.forwardOrder()) {
    std::vector<double> &Out = Values[N->id()];
    switch (N->op()) {
    case OpCode::Input: {
      auto It = Inputs.find(N->name());
      if (It == Inputs.end())
        fatalError("missing input @" + N->name());
      Out = replicate(It->second, M);
      break;
    }
    case OpCode::Constant:
      Out = replicate(N->constValue(), M);
      break;
    case OpCode::Output:
      Outputs[N->name()] = Values[N->parm(0)->id()];
      break;
    case OpCode::Negate: {
      Out = Values[N->parm(0)->id()];
      for (double &V : Out)
        V = -V;
      break;
    }
    case OpCode::Add:
    case OpCode::Sub:
    case OpCode::Multiply: {
      const std::vector<double> &A = Values[N->parm(0)->id()];
      const std::vector<double> &B = Values[N->parm(1)->id()];
      Out.resize(M);
      for (uint64_t I = 0; I < M; ++I) {
        switch (N->op()) {
        case OpCode::Add:
          Out[I] = A[I] + B[I];
          break;
        case OpCode::Sub:
          Out[I] = A[I] - B[I];
          break;
        default:
          Out[I] = A[I] * B[I];
          break;
        }
      }
      break;
    }
    case OpCode::RotateLeft:
    case OpCode::RotateRight: {
      const std::vector<double> &A = Values[N->parm(0)->id()];
      int64_t Steps = N->rotation() % static_cast<int64_t>(M);
      if (N->op() == OpCode::RotateRight)
        Steps = -Steps;
      Steps = ((Steps % static_cast<int64_t>(M)) + M) %
              static_cast<int64_t>(M);
      Out.resize(M);
      for (uint64_t I = 0; I < M; ++I)
        Out[I] = A[(I + Steps) % M];
      break;
    }
    case OpCode::Sum: {
      const std::vector<double> &A = Values[N->parm(0)->id()];
      double S = 0;
      for (double V : A)
        S += V;
      Out.assign(M, S);
      break;
    }
    // The FHE-specific instructions are the identity on values under the
    // id scheme (MULTIPLY by the MATCH-SCALE constant 1 is handled above).
    case OpCode::Copy:
    case OpCode::Relinearize:
    case OpCode::ModSwitch:
    case OpCode::Rescale:
    case OpCode::NormalizeScale:
      Out = Values[N->parm(0)->id()];
      break;
    }
  }
  return Outputs;
}
