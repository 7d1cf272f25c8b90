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
    WireWriter Vec;
    {
      // Packed repeated double: one length-delimited field of raw
      // little-endian 8-byte values.
      std::string Raw;
      for (double D : N->constValue()) {
        uint64_t Bits;
        std::memcpy(&Bits, &D, 8);
        for (int I = 0; I < 8; ++I)
          Raw.push_back(static_cast<char>((Bits >> (8 * I)) & 0xFF));
      }
      Vec.bytesField(1, Raw);
    }
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

bool decodeObjectId(std::string_view Bytes, uint64_t &Id) {
  WireReader R(Bytes);
  uint32_t Field;
  WireType Type;
  Id = 0;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::Varint) {
      if (!R.readVarint(Id))
        return false;
    } else if (!R.skip(Type)) {
      return false;
    }
  }
  return !R.failed();
}

struct RawInstruction {
  uint64_t Id = 0;
  uint64_t Op = 0;
  std::vector<uint64_t> Args;
  int64_t Rotation = 0;
  int RescaleBits = 0;
  double AttrScale = 0;
};

} // namespace

Expected<std::unique_ptr<Program>>
eva::deserializeProgram(std::string_view Data) {
  using Result = Expected<std::unique_ptr<Program>>;
  uint64_t VecSize = 0;
  std::string Name = "program";

  struct RawConst {
    uint64_t Id;
    uint64_t Type;
    double Scale;
    std::vector<double> Values;
  };
  struct RawInput {
    uint64_t Id;
    uint64_t Type;
    double Scale;
    std::string Name;
  };
  struct RawOutput {
    uint64_t Id;
    double Scale;
    std::string Name;
  };
  std::vector<RawConst> Consts;
  std::vector<RawInput> Ins;
  std::vector<RawOutput> Outs;
  std::vector<RawInstruction> Insts;

  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    switch (Field) {
    case 1: {
      if (Type != WireType::Varint || !R.readVarint(VecSize))
        return Result::error("malformed vec_size");
      break;
    }
    case 2: { // Constant
      std::string_view B;
      if (Type != WireType::LengthDelimited || !R.readBytes(B))
        return Result::error("malformed constant");
      RawConst C{0, PT_VECTOR_CONST, 0, {}};
      WireReader CR(B);
      uint32_t F;
      WireType T;
      while (CR.nextField(F, T)) {
        if (F == 1 && T == WireType::LengthDelimited) {
          std::string_view O;
          if (!CR.readBytes(O) || !decodeObjectId(O, C.Id))
            return Result::error("malformed constant object");
        } else if (F == 2 && T == WireType::Varint) {
          if (!CR.readVarint(C.Type))
            return Result::error("malformed constant type");
        } else if (F == 3 && T == WireType::Fixed64) {
          if (!CR.readDouble(C.Scale))
            return Result::error("malformed constant scale");
        } else if (F == 4 && T == WireType::LengthDelimited) {
          std::string_view V;
          if (!CR.readBytes(V))
            return Result::error("malformed constant vector");
          WireReader VR(V);
          uint32_t VF;
          WireType VT;
          while (VR.nextField(VF, VT)) {
            if (VF == 1 && VT == WireType::LengthDelimited) {
              std::string_view Raw;
              if (!VR.readBytes(Raw) || Raw.size() % 8 != 0)
                return Result::error("malformed packed doubles");
              for (size_t I = 0; I < Raw.size(); I += 8) {
                uint64_t Bits = 0;
                for (int K = 0; K < 8; ++K)
                  Bits |= static_cast<uint64_t>(
                              static_cast<uint8_t>(Raw[I + K]))
                          << (8 * K);
                double D;
                std::memcpy(&D, &Bits, 8);
                C.Values.push_back(D);
              }
            } else if (!VR.skip(VT)) {
              return Result::error("malformed vector field");
            }
          }
        } else if (!CR.skip(T)) {
          return Result::error("malformed constant field");
        }
      }
      Consts.push_back(std::move(C));
      break;
    }
    case 3: { // Input
      std::string_view B;
      if (Type != WireType::LengthDelimited || !R.readBytes(B))
        return Result::error("malformed input");
      RawInput In{0, PT_VECTOR_CIPHER, 0, {}};
      WireReader IR(B);
      uint32_t F;
      WireType T;
      while (IR.nextField(F, T)) {
        if (F == 1 && T == WireType::LengthDelimited) {
          std::string_view O;
          if (!IR.readBytes(O) || !decodeObjectId(O, In.Id))
            return Result::error("malformed input object");
        } else if (F == 2 && T == WireType::Varint) {
          if (!IR.readVarint(In.Type))
            return Result::error("malformed input type");
        } else if (F == 3 && T == WireType::Fixed64) {
          if (!IR.readDouble(In.Scale))
            return Result::error("malformed input scale");
        } else if (F == 15 && T == WireType::LengthDelimited) {
          std::string_view NameBytes;
          if (!IR.readBytes(NameBytes))
            return Result::error("malformed input name");
          In.Name = std::string(NameBytes);
        } else if (!IR.skip(T)) {
          return Result::error("malformed input field");
        }
      }
      Ins.push_back(std::move(In));
      break;
    }
    case 4: { // Output
      std::string_view B;
      if (Type != WireType::LengthDelimited || !R.readBytes(B))
        return Result::error("malformed output");
      RawOutput Out{0, 0, {}};
      WireReader OR(B);
      uint32_t F;
      WireType T;
      while (OR.nextField(F, T)) {
        if (F == 1 && T == WireType::LengthDelimited) {
          std::string_view O;
          if (!OR.readBytes(O) || !decodeObjectId(O, Out.Id))
            return Result::error("malformed output object");
        } else if (F == 2 && T == WireType::Fixed64) {
          if (!OR.readDouble(Out.Scale))
            return Result::error("malformed output scale");
        } else if (F == 15 && T == WireType::LengthDelimited) {
          std::string_view NameBytes;
          if (!OR.readBytes(NameBytes))
            return Result::error("malformed output name");
          Out.Name = std::string(NameBytes);
        } else if (!OR.skip(T)) {
          return Result::error("malformed output field");
        }
      }
      Outs.push_back(std::move(Out));
      break;
    }
    case 5: { // Instruction
      std::string_view B;
      if (Type != WireType::LengthDelimited || !R.readBytes(B))
        return Result::error("malformed instruction");
      RawInstruction Inst;
      WireReader IR(B);
      uint32_t F;
      WireType T;
      while (IR.nextField(F, T)) {
        if (F == 1 && T == WireType::LengthDelimited) {
          std::string_view O;
          if (!IR.readBytes(O) || !decodeObjectId(O, Inst.Id))
            return Result::error("malformed instruction output");
        } else if (F == 2 && T == WireType::Varint) {
          if (!IR.readVarint(Inst.Op))
            return Result::error("malformed opcode");
        } else if (F == 3 && T == WireType::LengthDelimited) {
          std::string_view O;
          uint64_t ArgId;
          if (!IR.readBytes(O) || !decodeObjectId(O, ArgId))
            return Result::error("malformed instruction arg");
          Inst.Args.push_back(ArgId);
        } else if (F == 4 && T == WireType::Varint) {
          uint64_t Z;
          if (!IR.readVarint(Z))
            return Result::error("malformed rotation");
          Inst.Rotation = unzigzag(Z);
        } else if (F == 5 && T == WireType::Varint) {
          uint64_t Bits;
          if (!IR.readVarint(Bits))
            return Result::error("malformed rescale bits");
          Inst.RescaleBits = static_cast<int>(Bits);
        } else if (F == 6 && T == WireType::Fixed64) {
          if (!IR.readDouble(Inst.AttrScale))
            return Result::error("malformed attr scale");
        } else if (!IR.skip(T)) {
          return Result::error("malformed instruction field");
        }
      }
      Insts.push_back(std::move(Inst));
      break;
    }
    case 6: { // Program name (extension)
      std::string_view B;
      if (Type != WireType::LengthDelimited || !R.readBytes(B))
        return Result::error("malformed program name");
      Name = std::string(B);
      break;
    }
    default:
      if (!R.skip(Type))
        return Result::error("malformed unknown field");
      break;
    }
  }
  if (R.failed())
    return Result::error("truncated or malformed program");
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
    N->setRescaleBits(Inst.RescaleBits);
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
