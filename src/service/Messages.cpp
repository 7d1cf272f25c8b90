//===- Messages.cpp - Service wire messages -----------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/service/Messages.h"

#include "eva/serialize/Wire.h"
#include "eva/support/BitOps.h"

#include <cstring>

using namespace eva;

const char *eva::messageTypeName(MessageType T) {
  switch (T) {
  case MessageType::Error:
    return "ERROR";
  case MessageType::ListPrograms:
    return "LIST_PROGRAMS";
  case MessageType::ProgramList:
    return "PROGRAM_LIST";
  case MessageType::OpenSession:
    return "OPEN_SESSION";
  case MessageType::SessionOpened:
    return "SESSION_OPENED";
  case MessageType::Execute:
    return "EXECUTE";
  case MessageType::ExecuteResult:
    return "EXECUTE_RESULT";
  case MessageType::CloseSession:
    return "CLOSE_SESSION";
  case MessageType::SessionClosed:
    return "SESSION_CLOSED";
  case MessageType::GetMetrics:
    return "GET_METRICS";
  case MessageType::Metrics:
    return "METRICS";
  }
  return "UNKNOWN";
}

namespace {

/// Messages that are just `{ uint64 id = 1; }` share one codec.
std::string serializeIdMsg(uint64_t Id) {
  WireWriter W;
  W.varintField(1, Id);
  return W.take();
}

Expected<uint64_t> deserializeIdMsg(std::string_view Data, const char *What) {
  using Result = Expected<uint64_t>;
  uint64_t Id = 0;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::Varint) {
      if (!R.readVarint(Id))
        return Result::error(std::string("malformed ") + What + " id");
    } else if (!R.skip(Type)) {
      return Result::error(std::string("malformed ") + What + " field");
    }
  }
  if (R.failed())
    return Result::error(std::string("truncated ") + What);
  return Id;
}

bool unpackDoubles(std::string_view Raw, std::vector<double> &Out) {
  if (Raw.size() % 8 != 0)
    return false;
  Out.resize(Raw.size() / 8);
  for (size_t I = 0; I < Out.size(); ++I) {
    uint64_t Bits = 0;
    for (int B = 0; B < 8; ++B)
      Bits |= static_cast<uint64_t>(static_cast<uint8_t>(Raw[I * 8 + B]))
              << (8 * B);
    std::memcpy(&Out[I], &Bits, 8);
  }
  return true;
}

/// NamedCipher / NamedPlain: { string name = 1; bytes payload = 2; }
std::string serializeNamedBytes(const std::string &Name,
                                std::string_view Payload) {
  WireWriter W;
  W.bytesField(1, Name);
  W.bytesField(2, Payload);
  return W.take();
}

Status parseNamedBytes(std::string_view Data, std::string &Name,
                       std::string &Payload, const char *What) {
  Name.clear();
  Payload.clear();
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    std::string_view B;
    if (Field == 1 && Type == WireType::LengthDelimited) {
      if (!R.readBytes(B))
        return Status::error(std::string("malformed ") + What + " name");
      Name = std::string(B);
    } else if (Field == 2 && Type == WireType::LengthDelimited) {
      if (!R.readBytes(B))
        return Status::error(std::string("malformed ") + What + " payload");
      Payload = std::string(B);
    } else if (!R.skip(Type)) {
      return Status::error(std::string("malformed ") + What + " field");
    }
  }
  if (R.failed())
    return Status::error(std::string("truncated ") + What);
  if (Name.empty())
    return Status::error(std::string(What) + " missing name");
  return Status::success();
}

} // namespace

std::string eva::serializeError(const ErrorMsg &M) {
  WireWriter W;
  W.bytesField(1, M.Message);
  return W.take();
}

Expected<ErrorMsg> eva::deserializeError(std::string_view Data) {
  using Result = Expected<ErrorMsg>;
  ErrorMsg M;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::LengthDelimited) {
      std::string_view B;
      if (!R.readBytes(B))
        return Result::error("malformed error message");
      M.Message = std::string(B);
    } else if (!R.skip(Type)) {
      return Result::error("malformed error field");
    }
  }
  if (R.failed())
    return Result::error("truncated error message");
  return M;
}

std::string eva::serializeParamSignature(const ParamSignature &Sig) {
  WireWriter W;
  W.bytesField(1, Sig.ProgramName);
  W.varintField(2, Sig.PolyDegree);
  W.varintField(3, Sig.VecSize);
  for (int B : Sig.ContextBitSizes)
    W.varintField(4, static_cast<uint64_t>(B));
  for (uint64_t S : Sig.RotationSteps)
    W.varintField(5, S);
  W.varintField(6, Sig.Security == SecurityLevel::None ? 0 : 1);
  for (const ServiceInputSpec &In : Sig.Inputs) {
    WireWriter IW;
    IW.bytesField(1, In.Name);
    IW.doubleField(2, In.LogScale);
    IW.varintField(3, In.IsCipher ? 1 : 0);
    W.bytesField(7, IW.str());
  }
  for (const ServiceOutputSpec &Out : Sig.Outputs) {
    WireWriter OW;
    OW.bytesField(1, Out.Name);
    OW.doubleField(2, Out.LogScale);
    W.bytesField(8, OW.str());
  }
  if (Sig.NeedsRelin)
    W.varintField(9, 1);
  for (const std::string &L : Sig.LintWarnings)
    W.bytesField(10, L);
  return W.take();
}

Expected<ParamSignature> eva::deserializeParamSignature(std::string_view Data) {
  using Result = Expected<ParamSignature>;
  ParamSignature Sig;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    uint64_t V = 0;
    std::string_view B;
    switch (Field) {
    case 1:
      if (Type != WireType::LengthDelimited || !R.readBytes(B))
        return Result::error("malformed signature program name");
      Sig.ProgramName = std::string(B);
      break;
    case 2:
      if (Type != WireType::Varint || !R.readVarint(Sig.PolyDegree))
        return Result::error("malformed signature poly degree");
      break;
    case 3:
      if (Type != WireType::Varint || !R.readVarint(Sig.VecSize))
        return Result::error("malformed signature vec size");
      break;
    case 4:
      if (Type != WireType::Varint || !R.readVarint(V) || V > 64)
        return Result::error("malformed signature bit size");
      Sig.ContextBitSizes.push_back(static_cast<int>(V));
      break;
    case 5:
      if (Type != WireType::Varint || !R.readVarint(V))
        return Result::error("malformed signature rotation step");
      Sig.RotationSteps.push_back(V);
      break;
    case 6:
      if (Type != WireType::Varint || !R.readVarint(V) || V > 1)
        return Result::error("malformed signature security level");
      Sig.Security = V == 0 ? SecurityLevel::None : SecurityLevel::TC128;
      break;
    case 7: {
      if (Type != WireType::LengthDelimited || !R.readBytes(B))
        return Result::error("malformed signature input");
      ServiceInputSpec In;
      WireReader IR(B);
      uint32_t F;
      WireType T;
      while (IR.nextField(F, T)) {
        std::string_view NB;
        uint64_t IV = 0;
        if (F == 1 && T == WireType::LengthDelimited) {
          if (!IR.readBytes(NB))
            return Result::error("malformed input spec name");
          In.Name = std::string(NB);
        } else if (F == 2 && T == WireType::Fixed64) {
          if (!IR.readDouble(In.LogScale))
            return Result::error("malformed input spec scale");
        } else if (F == 3 && T == WireType::Varint) {
          if (!IR.readVarint(IV))
            return Result::error("malformed input spec kind");
          In.IsCipher = IV != 0;
        } else if (!IR.skip(T)) {
          return Result::error("malformed input spec field");
        }
      }
      if (IR.failed() || In.Name.empty())
        return Result::error("truncated input spec");
      Sig.Inputs.push_back(std::move(In));
      break;
    }
    case 8: {
      if (Type != WireType::LengthDelimited || !R.readBytes(B))
        return Result::error("malformed signature output");
      ServiceOutputSpec Out;
      WireReader OR(B);
      uint32_t F;
      WireType T;
      while (OR.nextField(F, T)) {
        std::string_view NB;
        if (F == 1 && T == WireType::LengthDelimited) {
          if (!OR.readBytes(NB))
            return Result::error("malformed output spec name");
          Out.Name = std::string(NB);
        } else if (F == 2 && T == WireType::Fixed64) {
          if (!OR.readDouble(Out.LogScale))
            return Result::error("malformed output spec scale");
        } else if (!OR.skip(T)) {
          return Result::error("malformed output spec field");
        }
      }
      if (OR.failed() || Out.Name.empty())
        return Result::error("truncated output spec");
      Sig.Outputs.push_back(std::move(Out));
      break;
    }
    case 9:
      if (Type != WireType::Varint || !R.readVarint(V))
        return Result::error("malformed signature relin flag");
      Sig.NeedsRelin = V != 0;
      break;
    case 10:
      if (Type != WireType::LengthDelimited || !R.readBytes(B))
        return Result::error("malformed signature lint warning");
      Sig.LintWarnings.push_back(std::string(B));
      break;
    default:
      if (!R.skip(Type))
        return Result::error("malformed signature field");
      break;
    }
  }
  if (R.failed())
    return Result::error("truncated signature");
  if (Sig.ProgramName.empty())
    return Result::error("signature missing program name");
  if (Sig.PolyDegree == 0 || Sig.ContextBitSizes.empty())
    return Result::error("signature missing encryption parameters");
  // A client builds its stack from this signature and encodes vec_size
  // values into PolyDegree/2 slots, so refuse what no compiled program has.
  if (!isPowerOfTwo(Sig.VecSize))
    return Result::error("vec_size must be a power of two");
  if (Sig.VecSize > Sig.PolyDegree / 2)
    return Result::error("polynomial degree " +
                         std::to_string(Sig.PolyDegree) +
                         " cannot hold vec_size " +
                         std::to_string(Sig.VecSize));
  return Sig;
}

std::string eva::serializeProgramList(const ProgramListMsg &M) {
  WireWriter W;
  for (const ParamSignature &Sig : M.Programs)
    W.bytesField(1, serializeParamSignature(Sig));
  return W.take();
}

Expected<ProgramListMsg> eva::deserializeProgramList(std::string_view Data) {
  using Result = Expected<ProgramListMsg>;
  ProgramListMsg M;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::LengthDelimited) {
      std::string_view B;
      if (!R.readBytes(B))
        return Result::error("malformed program list entry");
      Expected<ParamSignature> Sig = deserializeParamSignature(B);
      if (!Sig)
        return Sig.takeStatus();
      M.Programs.push_back(std::move(*Sig));
    } else if (!R.skip(Type)) {
      return Result::error("malformed program list field");
    }
  }
  if (R.failed())
    return Result::error("truncated program list");
  return M;
}

std::string eva::serializeOpenSession(const OpenSessionMsg &M) {
  WireWriter W;
  W.bytesField(1, M.ProgramName);
  W.bytesField(2, M.RelinKeyBytes);
  W.bytesField(3, M.GaloisKeyBytes);
  return W.take();
}

Expected<OpenSessionMsg> eva::deserializeOpenSession(std::string_view Data) {
  using Result = Expected<OpenSessionMsg>;
  OpenSessionMsg M;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    std::string_view B;
    if (Field >= 1 && Field <= 3 && Type == WireType::LengthDelimited) {
      if (!R.readBytes(B))
        return Result::error("malformed open-session field");
      (Field == 1 ? M.ProgramName
       : Field == 2 ? M.RelinKeyBytes
                    : M.GaloisKeyBytes) = std::string(B);
    } else if (!R.skip(Type)) {
      return Result::error("malformed open-session field");
    }
  }
  if (R.failed())
    return Result::error("truncated open-session message");
  if (M.ProgramName.empty())
    return Result::error("open-session missing program name");
  return M;
}

std::string eva::serializeSessionOpened(const SessionOpenedMsg &M) {
  return serializeIdMsg(M.SessionId);
}

Expected<SessionOpenedMsg>
eva::deserializeSessionOpened(std::string_view Data) {
  Expected<uint64_t> Id = deserializeIdMsg(Data, "session-opened");
  if (!Id)
    return Id.takeStatus();
  return SessionOpenedMsg{*Id};
}

std::string eva::packDoubles(const std::vector<double> &Vals) {
  std::string Raw(Vals.size() * 8, '\0');
  for (size_t I = 0; I < Vals.size(); ++I) {
    uint64_t Bits;
    std::memcpy(&Bits, &Vals[I], 8);
    for (int B = 0; B < 8; ++B)
      Raw[I * 8 + B] = static_cast<char>((Bits >> (8 * B)) & 0xFF);
  }
  return Raw;
}

std::string eva::serializeExecute(const ExecuteMsg &M) {
  WireWriter W;
  W.varintField(1, M.SessionId);
  for (const auto &[Name, Bytes] : M.CipherInputs)
    W.bytesField(2, serializeNamedBytes(Name, Bytes));
  for (const auto &[Name, Values] : M.PlainInputs)
    W.bytesField(3, serializeNamedBytes(Name, packDoubles(Values)));
  return W.take();
}

Expected<ExecuteMsg> eva::deserializeExecute(std::string_view Data) {
  using Result = Expected<ExecuteMsg>;
  ExecuteMsg M;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::Varint) {
      if (!R.readVarint(M.SessionId))
        return Result::error("malformed execute session id");
    } else if ((Field == 2 || Field == 3) &&
               Type == WireType::LengthDelimited) {
      std::string_view B;
      if (!R.readBytes(B))
        return Result::error("malformed execute input");
      std::string Name, Payload;
      if (Status S = parseNamedBytes(
              B, Name, Payload, Field == 2 ? "cipher input" : "plain input");
          !S.ok())
        return S;
      if (Field == 2) {
        M.CipherInputs.emplace_back(std::move(Name), std::move(Payload));
      } else {
        std::vector<double> Values;
        if (!unpackDoubles(Payload, Values))
          return Result::error("malformed plain input values");
        M.PlainInputs.emplace_back(std::move(Name), std::move(Values));
      }
    } else if (!R.skip(Type)) {
      return Result::error("malformed execute field");
    }
  }
  if (R.failed())
    return Result::error("truncated execute message");
  return M;
}

std::string eva::serializeExecuteResult(const ExecuteResultMsg &M) {
  WireWriter W;
  for (const auto &[Name, Bytes] : M.Outputs)
    W.bytesField(1, serializeNamedBytes(Name, Bytes));
  if (M.RequestId != 0)
    W.varintField(2, M.RequestId);
  return W.take();
}

Expected<ExecuteResultMsg>
eva::deserializeExecuteResult(std::string_view Data) {
  using Result = Expected<ExecuteResultMsg>;
  ExecuteResultMsg M;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::LengthDelimited) {
      std::string_view B;
      if (!R.readBytes(B))
        return Result::error("malformed execute result output");
      std::string Name, Payload;
      if (Status S = parseNamedBytes(B, Name, Payload, "output"); !S.ok())
        return S;
      M.Outputs.emplace_back(std::move(Name), std::move(Payload));
    } else if (Field == 2 && Type == WireType::Varint) {
      if (!R.readVarint(M.RequestId))
        return Result::error("malformed execute result request id");
    } else if (!R.skip(Type)) {
      return Result::error("malformed execute result field");
    }
  }
  if (R.failed())
    return Result::error("truncated execute result");
  return M;
}

std::string eva::serializeCloseSession(const CloseSessionMsg &M) {
  return serializeIdMsg(M.SessionId);
}

Expected<CloseSessionMsg>
eva::deserializeCloseSession(std::string_view Data) {
  Expected<uint64_t> Id = deserializeIdMsg(Data, "close-session");
  if (!Id)
    return Id.takeStatus();
  return CloseSessionMsg{*Id};
}

std::string eva::serializeSessionClosed(const SessionClosedMsg &M) {
  return serializeIdMsg(M.SessionId);
}

Expected<SessionClosedMsg>
eva::deserializeSessionClosed(std::string_view Data) {
  Expected<uint64_t> Id = deserializeIdMsg(Data, "session-closed");
  if (!Id)
    return Id.takeStatus();
  return SessionClosedMsg{*Id};
}

namespace {

/// CounterVal / GaugeVal: { string name = 1; uint64|int64 value = 2; }
/// (gauges travel as the two's-complement uint64 of their int64 value).
std::string serializeNamedValue(const std::string &Name, uint64_t Value) {
  WireWriter W;
  W.bytesField(1, Name);
  W.varintField(2, Value);
  return W.take();
}

Status parseNamedValue(std::string_view Data, std::string &Name,
                       uint64_t &Value, const char *What) {
  Name.clear();
  Value = 0;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    std::string_view B;
    if (Field == 1 && Type == WireType::LengthDelimited) {
      if (!R.readBytes(B))
        return Status::error(std::string("malformed ") + What + " name");
      Name = std::string(B);
    } else if (Field == 2 && Type == WireType::Varint) {
      if (!R.readVarint(Value))
        return Status::error(std::string("malformed ") + What + " value");
    } else if (!R.skip(Type)) {
      return Status::error(std::string("malformed ") + What + " field");
    }
  }
  if (R.failed())
    return Status::error(std::string("truncated ") + What);
  if (Name.empty())
    return Status::error(std::string(What) + " missing name");
  return Status::success();
}

std::string serializeHistogramVal(const HistogramSnapshot &H) {
  WireWriter W;
  W.bytesField(1, H.Name);
  for (double B : H.UpperBounds)
    W.doubleField(2, B);
  for (uint64_t C : H.Buckets)
    W.varintField(3, C);
  W.varintField(4, H.Count);
  W.doubleField(5, H.Sum);
  return W.take();
}

Expected<HistogramSnapshot> parseHistogramVal(std::string_view Data) {
  using Result = Expected<HistogramSnapshot>;
  HistogramSnapshot H;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    std::string_view B;
    uint64_t V = 0;
    double D = 0;
    switch (Field) {
    case 1:
      if (Type != WireType::LengthDelimited || !R.readBytes(B))
        return Result::error("malformed histogram name");
      H.Name = std::string(B);
      break;
    case 2:
      if (Type != WireType::Fixed64 || !R.readDouble(D))
        return Result::error("malformed histogram bound");
      H.UpperBounds.push_back(D);
      break;
    case 3:
      if (Type != WireType::Varint || !R.readVarint(V))
        return Result::error("malformed histogram bucket");
      H.Buckets.push_back(V);
      break;
    case 4:
      if (Type != WireType::Varint || !R.readVarint(H.Count))
        return Result::error("malformed histogram count");
      break;
    case 5:
      if (Type != WireType::Fixed64 || !R.readDouble(H.Sum))
        return Result::error("malformed histogram sum");
      break;
    default:
      if (!R.skip(Type))
        return Result::error("malformed histogram field");
      break;
    }
  }
  if (R.failed())
    return Result::error("truncated histogram");
  if (H.Name.empty())
    return Result::error("histogram missing name");
  // Shape invariant of a fixed-boundary histogram: one overflow bucket
  // beyond the finite bounds. A hostile or corrupt payload must not
  // produce a snapshot whose quantile() indexes out of step.
  if (H.Buckets.size() != H.UpperBounds.size() + 1)
    return Result::error("histogram bucket/bound count mismatch");
  return H;
}

} // namespace

std::string eva::serializeMetrics(const MetricsSnapshot &Snap) {
  WireWriter W;
  for (const CounterSnapshot &C : Snap.Counters)
    W.bytesField(1, serializeNamedValue(C.Name, C.Value));
  for (const GaugeSnapshot &G : Snap.Gauges)
    W.bytesField(2, serializeNamedValue(G.Name,
                                        static_cast<uint64_t>(G.Value)));
  for (const HistogramSnapshot &H : Snap.Histograms)
    W.bytesField(3, serializeHistogramVal(H));
  return W.take();
}

Expected<MetricsSnapshot> eva::deserializeMetrics(std::string_view Data) {
  using Result = Expected<MetricsSnapshot>;
  MetricsSnapshot Snap;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    std::string_view B;
    if ((Field >= 1 && Field <= 3) && Type == WireType::LengthDelimited) {
      if (!R.readBytes(B))
        return Result::error("malformed metrics entry");
      if (Field == 1) {
        std::string Name;
        uint64_t V;
        if (Status S = parseNamedValue(B, Name, V, "counter"); !S.ok())
          return S;
        Snap.Counters.push_back({std::move(Name), V});
      } else if (Field == 2) {
        std::string Name;
        uint64_t V;
        if (Status S = parseNamedValue(B, Name, V, "gauge"); !S.ok())
          return S;
        Snap.Gauges.push_back({std::move(Name), static_cast<int64_t>(V)});
      } else {
        Expected<HistogramSnapshot> H = parseHistogramVal(B);
        if (!H)
          return H.takeStatus();
        Snap.Histograms.push_back(std::move(*H));
      }
    } else if (!R.skip(Type)) {
      return Result::error("malformed metrics field");
    }
  }
  if (R.failed())
    return Result::error("truncated metrics message");
  return Snap;
}
