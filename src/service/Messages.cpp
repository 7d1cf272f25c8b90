//===- Messages.cpp - Service wire messages -----------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/service/Messages.h"

#include "eva/serialize/Wire.h"
#include "eva/support/BitOps.h"

#include <algorithm>

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
  uint64_t Id = 0;
  FieldReader R(Data, What);
  while (R.next())
    R.take(1, Id);
  if (!R.ok())
    return R.status();
  return Id;
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
  FieldReader R(Data, What);
  while (R.next()) {
    R.take(1, Name);
    R.take(2, Payload);
  }
  if (!R.ok())
    return R.status();
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
  ErrorMsg M;
  FieldReader R(Data, "error message");
  while (R.next())
    R.take(1, M.Message);
  if (!R.ok())
    return R.status();
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
  for (const IoSpec &In : Sig.Inputs) {
    WireWriter IW;
    IW.bytesField(1, In.Name);
    IW.doubleField(2, In.LogScale);
    IW.varintField(3, In.isCipher() ? 1 : 0);
    W.bytesField(7, IW.str());
  }
  for (const IoSpec &Out : Sig.Outputs) {
    WireWriter OW;
    OW.bytesField(1, Out.Name);
    OW.doubleField(2, Out.LogScale);
    W.bytesField(8, OW.str());
  }
  if (Sig.NeedsRelin)
    W.varintField(9, 1);
  for (const std::string &L : Sig.LintWarnings)
    W.bytesField(10, L);
  for (uint64_t P : Sig.RotationKeyPrimes)
    W.varintField(11, P);
  return W.take();
}

std::map<uint64_t, size_t> ParamSignature::galoisKeyPrimes() const {
  size_t Full = ContextBitSizes.empty() ? 0 : ContextBitSizes.size() - 1;
  std::map<uint64_t, size_t> Out;
  for (size_t I = 0; I < RotationSteps.size(); ++I) {
    size_t &Primes = Out[RotationSteps[I]];
    Primes = std::max<size_t>(
        Primes, I < RotationKeyPrimes.size() ? RotationKeyPrimes[I] : Full);
  }
  return Out;
}

/// InputSpec { string name = 1; double log_scale = 2; bool cipher = 3; }
/// and OutputSpec { string name = 1; double log_scale = 2; } into \p Spec.
static Status parseIoSpec(std::string_view Data, IoSpec &Spec, bool IsInput) {
  uint64_t Cipher = 1;
  FieldReader R(Data, IsInput ? "input spec" : "output spec");
  while (R.next()) {
    R.take(1, Spec.Name);
    R.take(2, Spec.LogScale);
    if (IsInput)
      R.take(3, Cipher);
  }
  if (!R.ok())
    return R.status();
  if (Spec.Name.empty())
    return Status::error(std::string(IsInput ? "input" : "output") +
                         " spec missing name");
  Spec.Type = Cipher != 0 ? ValueType::Cipher : ValueType::Vector;
  return Status::success();
}

Expected<ParamSignature> eva::deserializeParamSignature(std::string_view Data) {
  using Result = Expected<ParamSignature>;
  ParamSignature Sig;
  uint64_t V = 0;
  std::vector<uint64_t> BitSizes;
  FieldReader R(Data, "signature");
  while (R.next()) {
    R.take(1, Sig.ProgramName);
    R.take(2, Sig.PolyDegree);
    R.take(3, Sig.VecSize);
    R.take(4, BitSizes);
    R.take(5, Sig.RotationSteps);
    if (R.take(6, V)) {
      if (V > 1)
        return Result::error("signature security level " +
                             std::to_string(V) + " out of range");
      Sig.Security = V == 0 ? SecurityLevel::None : SecurityLevel::TC128;
    }
    R.takeMessage(7, Sig.Inputs, [](std::string_view B, IoSpec &In) {
      return parseIoSpec(B, In, true);
    });
    R.takeMessage(8, Sig.Outputs, [](std::string_view B, IoSpec &Out) {
      return parseIoSpec(B, Out, false);
    });
    if (R.take(9, V))
      Sig.NeedsRelin = V != 0;
    R.take(10, Sig.LintWarnings);
    R.take(11, Sig.RotationKeyPrimes);
  }
  if (!R.ok())
    return R.status();
  for (uint64_t Bits : BitSizes) {
    if (Bits > 64)
      return Result::error("signature bit size " + std::to_string(Bits) +
                           " out of range");
    Sig.ContextBitSizes.push_back(static_cast<int>(Bits));
  }
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
  // Fresh ciphertexts sit at the full data chain, as
  // ProgramSignature::of(const CompiledProgram &) places them.
  size_t DataPrimes = Sig.ContextBitSizes.size() - 1;
  // A key level the client cannot build is refused here, before any key is
  // drawn: one per rotation step, each within the data chain.
  if (!Sig.RotationKeyPrimes.empty() &&
      Sig.RotationKeyPrimes.size() != Sig.RotationSteps.size())
    return Result::error("signature carries " +
                         std::to_string(Sig.RotationKeyPrimes.size()) +
                         " rotation key levels for " +
                         std::to_string(Sig.RotationSteps.size()) +
                         " rotation steps");
  for (uint64_t Primes : Sig.RotationKeyPrimes)
    if (Primes == 0 || Primes > DataPrimes)
      return Result::error("signature rotation key level " +
                           std::to_string(Primes) + " outside [1, " +
                           std::to_string(DataPrimes) + "]");
  for (IoSpec &In : Sig.Inputs)
    In.Level = In.isCipher() ? DataPrimes : 0;
  for (IoSpec &Out : Sig.Outputs)
    Out.Level = DataPrimes;
  return Sig;
}

std::string eva::serializeProgramList(const ProgramListMsg &M) {
  WireWriter W;
  for (const ParamSignature &Sig : M.Programs)
    W.bytesField(1, serializeParamSignature(Sig));
  return W.take();
}

Expected<ProgramListMsg> eva::deserializeProgramList(std::string_view Data) {
  ProgramListMsg M;
  FieldReader R(Data, "program list");
  while (R.next())
    R.takeMessage(1, M.Programs, [](std::string_view B, ParamSignature &Sig) {
      Expected<ParamSignature> Decoded = deserializeParamSignature(B);
      if (!Decoded)
        return Decoded.takeStatus();
      Sig = std::move(*Decoded);
      return Status::success();
    });
  if (!R.ok())
    return R.status();
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
  OpenSessionMsg M;
  FieldReader R(Data, "open-session message");
  while (R.next()) {
    R.take(1, M.ProgramName);
    R.take(2, M.RelinKeyBytes);
    R.take(3, M.GaloisKeyBytes);
  }
  if (!R.ok())
    return R.status();
  if (M.ProgramName.empty())
    return Expected<OpenSessionMsg>::error(
        "open-session missing program name");
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
  ExecuteMsg M;
  FieldReader R(Data, "execute message");
  while (R.next()) {
    R.take(1, M.SessionId);
    R.takeMessage(2, M.CipherInputs, [](std::string_view B, auto &In) {
      return parseNamedBytes(B, In.first, In.second, "cipher input");
    });
    R.takeMessage(3, M.PlainInputs, [](std::string_view B, auto &In) {
      std::string Raw;
      if (Status S = parseNamedBytes(B, In.first, Raw, "plain input"); !S.ok())
        return S;
      if (!unpackDoubles(Raw, In.second))
        return Status::error("malformed plain input values");
      return Status::success();
    });
  }
  if (!R.ok())
    return R.status();
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
  ExecuteResultMsg M;
  FieldReader R(Data, "execute result");
  while (R.next()) {
    R.takeMessage(1, M.Outputs, [](std::string_view B, auto &Out) {
      return parseNamedBytes(B, Out.first, Out.second, "output");
    });
    R.take(2, M.RequestId);
  }
  if (!R.ok())
    return R.status();
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
  FieldReader R(Data, What);
  while (R.next()) {
    R.take(1, Name);
    R.take(2, Value);
  }
  if (!R.ok())
    return R.status();
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

Status parseHistogramVal(std::string_view Data, HistogramSnapshot &H) {
  FieldReader R(Data, "histogram");
  while (R.next()) {
    R.take(1, H.Name);
    R.take(2, H.UpperBounds);
    R.take(3, H.Buckets);
    R.take(4, H.Count);
    R.take(5, H.Sum);
  }
  if (!R.ok())
    return R.status();
  if (H.Name.empty())
    return Status::error("histogram missing name");
  // Shape invariant of a fixed-boundary histogram: one overflow bucket
  // beyond the finite bounds. A hostile or corrupt payload must not
  // produce a snapshot whose quantile() indexes out of step.
  if (H.Buckets.size() != H.UpperBounds.size() + 1)
    return Status::error("histogram bucket/bound count mismatch");
  return Status::success();
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
  MetricsSnapshot Snap;
  FieldReader R(Data, "metrics message");
  while (R.next()) {
    R.takeMessage(1, Snap.Counters, [](std::string_view B, auto &C) {
      return parseNamedValue(B, C.Name, C.Value, "counter");
    });
    R.takeMessage(2, Snap.Gauges, [](std::string_view B, auto &G) {
      uint64_t V = 0;
      Status S = parseNamedValue(B, G.Name, V, "gauge");
      G.Value = static_cast<int64_t>(V);
      return S;
    });
    R.takeMessage(3, Snap.Histograms, parseHistogramVal);
  }
  if (!R.ok())
    return R.status();
  return Snap;
}
