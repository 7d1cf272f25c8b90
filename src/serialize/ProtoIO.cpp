//===- ProtoIO.cpp - EVA program (de)serialization ----------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/serialize/ProtoIO.h"

#include "eva/core/Analysis.h"
#include "eva/ir/TextFormat.h"
#include "eva/serialize/Wire.h"
#include "eva/support/BitOps.h"

#include <fstream>
#include <limits>
#include <map>
#include <vector>

using namespace eva;

namespace {

/// Proto enum values from Figure 1.
enum ProtoOp : uint64_t {
  PO_UNDEFINED = 0,
  PO_NEGATE = 1,
  PO_ADD = 2,
  PO_SUB = 3,
  PO_MULTIPLY = 4,
  PO_SUM = 5,
  PO_COPY = 6,
  PO_ROTATE_LEFT = 7,
  PO_ROTATE_RIGHT = 8,
  PO_RELINEARIZE = 9,
  PO_MOD_SWITCH = 10,
  PO_RESCALE = 11,
  PO_NORMALIZE_SCALE = 12,
};

enum ProtoType : uint64_t {
  PT_UNDEFINED = 0,
  PT_SCALAR_CONST = 1,
  PT_SCALAR_PLAIN = 2,
  PT_SCALAR_CIPHER = 3,
  PT_VECTOR_CONST = 4,
  PT_VECTOR_PLAIN = 5,
  PT_VECTOR_CIPHER = 6,
};

uint64_t protoOpOf(OpCode Op) {
  switch (Op) {
  case OpCode::Negate:
    return PO_NEGATE;
  case OpCode::Add:
    return PO_ADD;
  case OpCode::Sub:
    return PO_SUB;
  case OpCode::Multiply:
    return PO_MULTIPLY;
  case OpCode::Sum:
    return PO_SUM;
  case OpCode::Copy:
    return PO_COPY;
  case OpCode::RotateLeft:
    return PO_ROTATE_LEFT;
  case OpCode::RotateRight:
    return PO_ROTATE_RIGHT;
  case OpCode::Relinearize:
    return PO_RELINEARIZE;
  case OpCode::ModSwitch:
    return PO_MOD_SWITCH;
  case OpCode::Rescale:
    return PO_RESCALE;
  case OpCode::NormalizeScale:
    return PO_NORMALIZE_SCALE;
  default:
    EVA_UNREACHABLE("not an instruction opcode");
  }
}

bool opFromProto(uint64_t V, OpCode &Op) {
  switch (V) {
  case PO_NEGATE:
    Op = OpCode::Negate;
    return true;
  case PO_ADD:
    Op = OpCode::Add;
    return true;
  case PO_SUB:
    Op = OpCode::Sub;
    return true;
  case PO_MULTIPLY:
    Op = OpCode::Multiply;
    return true;
  case PO_SUM:
    Op = OpCode::Sum;
    return true;
  case PO_COPY:
    Op = OpCode::Copy;
    return true;
  case PO_ROTATE_LEFT:
    Op = OpCode::RotateLeft;
    return true;
  case PO_ROTATE_RIGHT:
    Op = OpCode::RotateRight;
    return true;
  case PO_RELINEARIZE:
    Op = OpCode::Relinearize;
    return true;
  case PO_MOD_SWITCH:
    Op = OpCode::ModSwitch;
    return true;
  case PO_RESCALE:
    Op = OpCode::Rescale;
    return true;
  case PO_NORMALIZE_SCALE:
    Op = OpCode::NormalizeScale;
    return true;
  default:
    return false;
  }
}

std::string encodeObject(uint64_t Id) {
  WireWriter W;
  W.varintField(1, Id);
  return W.take();
}

/// ZigZag for signed rotation counts.
uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}
int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

} // namespace

std::string eva::serializeProgram(const Program &P) {
  WireWriter W;
  W.varintField(1, P.vecSize());

  for (const Node *N : P.constants()) {
    WireWriter C;
    C.bytesField(1, encodeObject(N->id()));
    C.varintField(2, N->type() == ValueType::Scalar ? PT_SCALAR_CONST
                                                    : PT_VECTOR_CONST);
    C.doubleField(3, N->logScale());
    // Packed repeated double: one length-delimited field.
    WireWriter Vec;
    Vec.bytesField(1, packDoubles(N->constValue()));
    C.bytesField(4, Vec.str());
    W.bytesField(2, C.str());
  }

  for (const Node *N : P.inputs()) {
    WireWriter I;
    I.bytesField(1, encodeObject(N->id()));
    I.varintField(2, N->type() == ValueType::Cipher   ? PT_VECTOR_CIPHER
                     : N->type() == ValueType::Scalar ? PT_SCALAR_PLAIN
                                                      : PT_VECTOR_PLAIN);
    I.doubleField(3, N->logScale());
    I.bytesField(15, N->name());
    W.bytesField(3, I.str());
  }

  for (const Node *N : P.outputs()) {
    WireWriter O;
    O.bytesField(1, encodeObject(N->parm(0)->id()));
    O.doubleField(2, N->logScale());
    O.bytesField(15, N->name());
    W.bytesField(4, O.str());
  }

  for (const Node *N : P.forwardOrder()) {
    if (N->op() == OpCode::Input || N->op() == OpCode::Constant ||
        N->op() == OpCode::Output)
      continue;
    WireWriter I;
    I.bytesField(1, encodeObject(N->id()));
    I.varintField(2, protoOpOf(N->op()));
    for (const Node *Parm : N->parms())
      I.bytesField(3, encodeObject(Parm->id()));
    if (isRotation(N->op()))
      I.varintField(4, zigzag(N->rotation()));
    if (N->op() == OpCode::Rescale)
      I.varintField(5, static_cast<uint64_t>(N->rescaleBits()));
    if (N->op() == OpCode::NormalizeScale)
      I.doubleField(6, N->logScale());
    W.bytesField(5, I.str());
  }

  W.bytesField(6, P.name());
  return W.take();
}

namespace {

struct RawConst {
  uint64_t Id = 0;
  uint64_t Type = PT_VECTOR_CONST;
  double Scale = 0;
  std::vector<double> Values;
};

struct RawInput {
  uint64_t Id = 0;
  uint64_t Type = PT_VECTOR_CIPHER;
  double Scale = 0;
  std::string Name;
};

struct RawOutput {
  uint64_t Id = 0;
  double Scale = 0;
  std::string Name;
};

struct RawInstruction {
  uint64_t Id = 0;
  uint64_t Op = 0;
  std::vector<uint64_t> Args;
  int64_t Rotation = 0;
  uint64_t RescaleBits = 0;
  double AttrScale = 0;
};

/// Object { uint64 id = 1; }
Status decodeObject(std::string_view Data, uint64_t &Id) {
  FieldReader R(Data, "object");
  while (R.next())
    R.take(1, Id);
  return R.status();
}

auto objectInto(uint64_t &Id) {
  return [&Id](std::string_view Data) { return decodeObject(Data, Id); };
}

Status decodeConstant(std::string_view Data, RawConst &C) {
  FieldReader R(Data, "constant");
  while (R.next()) {
    R.takeMessage(1, objectInto(C.Id));
    R.take(2, C.Type);
    R.take(3, C.Scale);
    R.takeMessage(4, [&C](std::string_view Vec) {
      FieldReader VR(Vec, "constant vector");
      std::string_view Raw;
      while (VR.next())
        if (VR.take(1, Raw) && !unpackDoubles(Raw, C.Values))
          return Status::error("malformed packed doubles");
      return VR.status();
    });
  }
  if (!R.ok())
    return R.status();
  if (C.Type != PT_SCALAR_CONST && C.Type != PT_VECTOR_CONST)
    return Status::error("constant type code " + std::to_string(C.Type) +
                         " is not SCALAR_CONST or VECTOR_CONST");
  return Status::success();
}

Status decodeInput(std::string_view Data, RawInput &In) {
  FieldReader R(Data, "input");
  while (R.next()) {
    R.takeMessage(1, objectInto(In.Id));
    R.take(2, In.Type);
    R.take(3, In.Scale);
    R.take(15, In.Name);
  }
  if (!R.ok())
    return R.status();
  if (In.Type != PT_SCALAR_PLAIN && In.Type != PT_SCALAR_CIPHER &&
      In.Type != PT_VECTOR_PLAIN && In.Type != PT_VECTOR_CIPHER)
    return Status::error("input type code " + std::to_string(In.Type) +
                         " is not a plain or cipher scalar or vector");
  return Status::success();
}

Status decodeOutput(std::string_view Data, RawOutput &Out) {
  FieldReader R(Data, "output");
  while (R.next()) {
    R.takeMessage(1, objectInto(Out.Id));
    R.take(2, Out.Scale);
    R.take(15, Out.Name);
  }
  return R.status();
}

Status decodeInstruction(std::string_view Data, RawInstruction &Inst) {
  FieldReader R(Data, "instruction");
  uint64_t Zigzag = 0;
  while (R.next()) {
    R.takeMessage(1, objectInto(Inst.Id));
    R.take(2, Inst.Op);
    R.takeMessage(3, Inst.Args, decodeObject);
    R.take(4, Zigzag);
    R.take(5, Inst.RescaleBits);
    R.take(6, Inst.AttrScale);
  }
  if (!R.ok())
    return R.status();
  // The IR holds a rotation as int32_t and a rescale value as int: refuse
  // what they cannot hold instead of keeping its low bits.
  Inst.Rotation = unzigzag(Zigzag);
  if (Inst.Rotation < std::numeric_limits<int32_t>::min() ||
      Inst.Rotation > std::numeric_limits<int32_t>::max())
    return Status::error("rotation " + std::to_string(Inst.Rotation) +
                         " out of range");
  if (Inst.RescaleBits >
      static_cast<uint64_t>(std::numeric_limits<int>::max()))
    return Status::error("rescale bits " + std::to_string(Inst.RescaleBits) +
                         " out of range");
  return Status::success();
}

} // namespace

Expected<std::unique_ptr<Program>>
eva::deserializeProgram(std::string_view Data) {
  using Result = Expected<std::unique_ptr<Program>>;
  uint64_t VecSize = 0;
  std::string Name = "program";
  std::vector<RawConst> Consts;
  std::vector<RawInput> Ins;
  std::vector<RawOutput> Outs;
  std::vector<RawInstruction> Insts;

  FieldReader R(Data, "program");
  while (R.next()) {
    R.take(1, VecSize);
    R.takeMessage(2, Consts, decodeConstant);
    R.takeMessage(3, Ins, decodeInput);
    R.takeMessage(4, Outs, decodeOutput);
    R.takeMessage(5, Insts, decodeInstruction);
    R.take(6, Name); // extension
  }
  if (!R.ok())
    return R.status();
  if (!isPowerOfTwo(VecSize))
    return Result::error("vec_size must be a power of two");

  std::unique_ptr<Program> P = std::make_unique<Program>(VecSize, Name);
  std::map<uint64_t, Node *> ById;

  for (const RawConst &C : Consts) {
    if (C.Values.empty())
      return Result::error("constant with no values");
    Node *N =
        C.Type == PT_SCALAR_CONST
            ? P->makeScalarConstant(C.Values[0], C.Scale)
            : P->makeConstant(std::vector<double>(C.Values), C.Scale);
    if (!ById.emplace(C.Id, N).second)
      return Result::error("duplicate object id " + std::to_string(C.Id));
  }
  size_t InputIdx = 0;
  for (const RawInput &In : Ins) {
    ValueType VT = In.Type == PT_VECTOR_CIPHER || In.Type == PT_SCALAR_CIPHER
                       ? ValueType::Cipher
                   : In.Type == PT_SCALAR_PLAIN ? ValueType::Scalar
                                                : ValueType::Vector;
    std::string InName =
        In.Name.empty() ? "in_" + std::to_string(InputIdx) : In.Name;
    Node *N = P->makeInput(InName, VT, In.Scale);
    if (!ById.emplace(In.Id, N).second)
      return Result::error("duplicate object id " + std::to_string(In.Id));
    ++InputIdx;
  }
  for (const RawInstruction &Inst : Insts) {
    OpCode Op;
    if (!opFromProto(Inst.Op, Op))
      return Result::error("unknown opcode " + std::to_string(Inst.Op));
    std::vector<Node *> Parms;
    for (uint64_t Arg : Inst.Args) {
      auto It = ById.find(Arg);
      if (It == ById.end())
        return Result::error("instruction references unknown id " +
                             std::to_string(Arg) +
                             " (instructions must be topologically ordered)");
      Parms.push_back(It->second);
    }
    ValueType Ty =
        Op == OpCode::NormalizeScale && !Parms.empty() && Parms[0]->isPlain()
            ? Parms[0]->type()
            : ValueType::Cipher;
    Node *N = P->makeInstruction(Op, std::move(Parms), Ty);
    N->setRotation(static_cast<int32_t>(Inst.Rotation));
    N->setRescaleBits(static_cast<int>(Inst.RescaleBits));
    if (Op == OpCode::NormalizeScale)
      N->setLogScale(Inst.AttrScale);
    if (!ById.emplace(Inst.Id, N).second)
      return Result::error("duplicate object id " + std::to_string(Inst.Id));
  }
  size_t OutputIdx = 0;
  for (const RawOutput &Out : Outs) {
    auto It = ById.find(Out.Id);
    if (It == ById.end())
      return Result::error("output references unknown id " +
                           std::to_string(Out.Id));
    std::string OutName =
        Out.Name.empty() ? "out_" + std::to_string(OutputIdx) : Out.Name;
    Node *N = P->makeOutput(OutName, It->second);
    N->setLogScale(Out.Scale);
    ++OutputIdx;
  }
  // Wire bytes are untrusted: run the full structural verifier (dangling
  // operands, cycles, arity, constant domains) so no hostile encoding can
  // hand a malformed graph to an executor. Compiler-inserted ops are
  // admitted because compiled programs (evac -o output) round-trip here.
  VerifyOptions VO;
  VO.AllowCompilerOps = true;
  if (Status S = verifyProgram(*P, VO); !S.ok())
    return Result::error("deserialized program is invalid: " + S.message());
  return P;
}

Status eva::saveProgram(const Program &P, const std::string &Path) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return Status::error("cannot open " + Path + " for writing");
  std::string Data = serializeProgram(P);
  Out.write(Data.data(), static_cast<std::streamsize>(Data.size()));
  return Out.good() ? Status::success()
                    : Status::error("write failed for " + Path);
}

Expected<std::unique_ptr<Program>> eva::loadProgram(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Expected<std::unique_ptr<Program>>::error("cannot open " + Path);
  std::string Data((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  return Data.rfind("program ", 0) == 0 ? parseProgramText(Data)
                                        : deserializeProgram(Data);
}
