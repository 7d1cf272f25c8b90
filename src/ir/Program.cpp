//===- Program.cpp - EVA programs as term graphs ----------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ir/Program.h"

#include "eva/support/BitOps.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>

using namespace eva;

namespace {

/// Wraps \p Values with its facts, computed in one pass over the elements.
std::shared_ptr<const ConstantPayload> makePayload(std::vector<double> Values) {
  auto Out = std::make_shared<ConstantPayload>();
  uint64_t Hash = 0xcbf29ce484222325ull; // FNV-1a over 64-bit words
  for (double D : Values) {
    Out->AllFinite = Out->AllFinite && std::isfinite(D);
    Out->MaxAbs = std::max(Out->MaxAbs, std::abs(D));
    // D + 0.0 maps -0.0 to +0.0: the two compare equal, so must hash alike.
    Hash = (Hash ^ std::bit_cast<uint64_t>(D + 0.0)) * 0x100000001b3ull;
  }
  Out->Hash = Hash;
  Out->Values = std::move(Values);
  return Out;
}

} // namespace

uint64_t eva::normalizedLeftSteps(const Node *N, uint64_t VecSize) {
  assert(isRotation(N->op()) && "not a rotation node");
  int64_t M = static_cast<int64_t>(VecSize);
  int64_t Left = N->rotation() % M;
  if (N->op() == OpCode::RotateRight)
    Left = -Left;
  return static_cast<uint64_t>(((Left % M) + M) % M);
}

Program::Program(uint64_t VecSizeIn, std::string Name)
    : VecSize(VecSizeIn), ProgName(std::move(Name)) {
  assert(isPowerOfTwo(VecSize) && "vector size must be a power of two");
}

Node *Program::allocate(OpCode Op, ValueType Ty) {
  AllNodes.emplace_back(std::unique_ptr<Node>(new Node(NextId++, Op, Ty)));
  return AllNodes.back().get();
}

Node *Program::makeInput(std::string Name, ValueType Ty, double LogScale) {
  Node *N = allocate(OpCode::Input, Ty);
  N->Name = std::move(Name);
  N->LogScale = LogScale;
  Inputs.push_back(N);
  return N;
}

Node *Program::makeConstant(std::vector<double> Values, double LogScale) {
  // The payload's length is checked by verifyProgram, not here: the text and
  // wire parsers build whatever payload they read and then verify, so a
  // malformed one must come back as an error in every build type.
  Node *N = allocate(OpCode::Constant, ValueType::Vector);
  N->ConstValue = makePayload(std::move(Values));
  N->LogScale = LogScale;
  Constants.push_back(N);
  return N;
}

Node *Program::makeScalarConstant(double Value, double LogScale) {
  Node *N = allocate(OpCode::Constant, ValueType::Scalar);
  N->ConstValue = makePayload({Value});
  N->LogScale = LogScale;
  Constants.push_back(N);
  return N;
}

Node *Program::makeInstruction(OpCode Op, std::vector<Node *> Parms,
                               ValueType Ty) {
  assert(Op != OpCode::Input && Op != OpCode::Constant &&
         Op != OpCode::Output && "use the dedicated creation methods");
  Node *N = allocate(Op, Ty);
  N->Parms = std::move(Parms);
  for (Node *P : N->Parms) {
    assert(P && "null operand");
    P->Uses.push_back(N);
  }
  return N;
}

Node *Program::makeRotation(OpCode Op, Node *Operand, int32_t Steps) {
  assert(isRotation(Op) && "not a rotation opcode");
  Node *N = makeInstruction(Op, {Operand});
  N->Rotation = Steps;
  return N;
}

Node *Program::makeOutput(std::string Name, Node *Value) {
  Node *N = allocate(OpCode::Output, Value->type());
  N->Name = std::move(Name);
  N->Parms = {Value};
  Value->Uses.push_back(N);
  Outputs.push_back(N);
  return N;
}

std::vector<Node *> Program::nodes() const {
  std::vector<Node *> Out;
  Out.reserve(AllNodes.size());
  for (const std::unique_ptr<Node> &N : AllNodes)
    Out.push_back(N.get());
  return Out;
}

size_t Program::nodeCount() const { return AllNodes.size(); }

size_t Program::instructionCount() const {
  size_t Count = 0;
  for (const std::unique_ptr<Node> &N : AllNodes)
    if (N->op() != OpCode::Input && N->op() != OpCode::Constant &&
        N->op() != OpCode::Output)
      ++Count;
  return Count;
}

size_t Program::multiplicativeDepth() const {
  std::vector<size_t> Depth(NextId, 0);
  size_t Max = 0;
  for (Node *N : forwardOrder()) {
    size_t D = 0;
    for (Node *P : N->parms())
      D = std::max(D, Depth[P->id()]);
    if (N->op() == OpCode::Multiply)
      ++D;
    Depth[N->id()] = D;
    Max = std::max(Max, D);
  }
  return Max;
}

void Program::setParm(Node *User, size_t Index, Node *NewParent) {
  assert(Index < User->Parms.size() && "operand index out of range");
  Node *Old = User->Parms[Index];
  if (Old == NewParent)
    return;
  // Remove one use entry of User from Old.
  auto It = std::find(Old->Uses.begin(), Old->Uses.end(), User);
  assert(It != Old->Uses.end() && "use list out of sync");
  Old->Uses.erase(It);
  User->Parms[Index] = NewParent;
  NewParent->Uses.push_back(User);
}

void Program::insertBetween(Node *N, Node *NewNode) {
  // Snapshot children first: setParm mutates use lists.
  std::vector<Node *> Children = N->Uses;
  for (Node *C : Children) {
    if (C == NewNode)
      continue;
    for (size_t K = 0; K < C->Parms.size(); ++K)
      if (C->Parms[K] == N)
        setParm(C, K, NewNode);
  }
}

void Program::insertBetweenSome(Node *N, Node *NewNode,
                                const std::vector<Node *> &Children) {
  for (Node *C : Children) {
    if (C == NewNode)
      continue;
    for (size_t K = 0; K < C->Parms.size(); ++K)
      if (C->Parms[K] == N)
        setParm(C, K, NewNode);
  }
}

void Program::replaceAllUses(Node *Old, Node *New) {
  std::vector<Node *> Children = Old->Uses;
  for (Node *C : Children)
    for (size_t K = 0; K < C->Parms.size(); ++K)
      if (C->Parms[K] == Old)
        setParm(C, K, New);
}

void Program::canonicalizeRotation(Node *N) {
  assert(isRotation(N->Op) && "not a rotation node");
  N->Rotation = static_cast<int32_t>(normalizedLeftSteps(N, VecSize));
  N->Op = OpCode::RotateLeft;
}

void Program::eraseUnreachable() {
  std::vector<bool> Live(NextId, false);
  std::vector<Node *> Work;
  for (Node *O : Outputs) {
    Live[O->id()] = true;
    Work.push_back(O);
  }
  for (Node *I : Inputs) {
    Live[I->id()] = true;
    Work.push_back(I);
  }
  while (!Work.empty()) {
    Node *N = Work.back();
    Work.pop_back();
    for (Node *P : N->parms()) {
      if (!Live[P->id()]) {
        Live[P->id()] = true;
        Work.push_back(P);
      }
    }
  }
  // Unlink dead nodes from live parents' use lists, then drop them.
  for (const std::unique_ptr<Node> &N : AllNodes) {
    if (Live[N->id()])
      continue;
    for (Node *P : N->parms()) {
      auto It = std::find(P->Uses.begin(), P->Uses.end(), N.get());
      if (It != P->Uses.end())
        P->Uses.erase(It);
    }
    N->Parms.clear();
  }
  auto IsDead = [&](const std::unique_ptr<Node> &N) {
    return !Live[N->id()];
  };
  Constants.erase(std::remove_if(Constants.begin(), Constants.end(),
                                 [&](Node *N) { return !Live[N->id()]; }),
                  Constants.end());
  AllNodes.erase(std::remove_if(AllNodes.begin(), AllNodes.end(), IsDead),
                 AllNodes.end());
}

std::vector<Node *> Program::forwardOrder() const {
  // Kahn's algorithm over operand edges; creation order used as the
  // tie-break so traversal is deterministic.
  std::vector<Node *> Order;
  Order.reserve(AllNodes.size());
  std::vector<size_t> Pending(NextId, 0);
  std::queue<Node *> Ready;
  for (const std::unique_ptr<Node> &N : AllNodes) {
    Pending[N->id()] = N->parmCount();
    if (N->parmCount() == 0)
      Ready.push(N.get());
  }
  while (!Ready.empty()) {
    Node *N = Ready.front();
    Ready.pop();
    Order.push_back(N);
    for (Node *C : N->Uses) {
      // A child with a duplicated operand appears multiple times.
      if (--Pending[C->id()] == 0)
        Ready.push(C);
    }
  }
  assert(Order.size() == AllNodes.size() && "cycle in term graph");
  return Order;
}

std::vector<Node *> Program::backwardOrder() const {
  std::vector<Node *> Fwd = forwardOrder();
  std::reverse(Fwd.begin(), Fwd.end());
  return Fwd;
}

std::unique_ptr<Program> Program::clone() const {
  std::unique_ptr<Program> Out =
      std::make_unique<Program>(VecSize, ProgName);
  std::vector<Node *> Map(NextId, nullptr);
  for (Node *N : forwardOrder()) {
    Node *Copy = nullptr;
    switch (N->op()) {
    case OpCode::Input:
      Copy = Out->makeInput(N->Name, N->type(), N->LogScale);
      break;
    case OpCode::Constant:
      Copy = Out->allocate(OpCode::Constant, N->type());
      Copy->ConstValue = N->ConstValue;
      Copy->LogScale = N->LogScale;
      Out->Constants.push_back(Copy);
      break;
    case OpCode::Output: {
      Node *Val = Map[N->parm(0)->id()];
      assert(Val && "operand not yet cloned");
      Copy = Out->makeOutput(N->Name, Val);
      Copy->LogScale = N->LogScale;
      break;
    }
    default: {
      std::vector<Node *> Parms;
      Parms.reserve(N->parmCount());
      for (Node *P : N->parms()) {
        assert(Map[P->id()] && "operand not yet cloned");
        Parms.push_back(Map[P->id()]);
      }
      Copy = Out->makeInstruction(N->op(), std::move(Parms), N->type());
      Copy->LogScale = N->LogScale;
      Copy->Rotation = N->Rotation;
      Copy->RescaleBits = N->RescaleBits;
      break;
    }
    }
    Copy->KernelId = N->KernelId;
    Map[N->id()] = Copy;
  }
  return Out;
}

Status Program::verifyStructure() const {
  for (const std::unique_ptr<Node> &N : AllNodes) {
    for (Node *P : N->parms()) {
      size_t UsesOfN = std::count(P->Uses.begin(), P->Uses.end(), N.get());
      size_t ParmsOfP =
          std::count(N->Parms.begin(), N->Parms.end(), P);
      if (UsesOfN != ParmsOfP)
        return Status::error("use/operand lists out of sync at node " +
                             std::to_string(N->id()));
    }
    if (N->op() == OpCode::Output && N->hasUses())
      return Status::error("output node " + std::to_string(N->id()) +
                           " has children");
  }
  // forwardOrder asserts acyclicity; check size here for release builds.
  if (forwardOrder().size() != AllNodes.size())
    return Status::error("term graph contains a cycle");
  // I/O names are the program's runtime interface (api/ProgramSignature):
  // duplicates would make a Valuation ambiguous. The frontend diagnoses
  // them at construction; this covers deserialized programs.
  for (const std::vector<Node *> *Group : {&Inputs, &Outputs})
    for (size_t I = 0; I < Group->size(); ++I)
      for (size_t J = I + 1; J < Group->size(); ++J)
        if ((*Group)[I]->name() == (*Group)[J]->name())
          return Status::error(
              std::string(Group == &Inputs ? "duplicate input name '"
                                           : "duplicate output name '") +
              (*Group)[I]->name() + "'");
  return Status::success();
}
