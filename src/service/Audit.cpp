//===- Audit.cpp - Transcript-hash audit log -----------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/service/Audit.h"

#include "eva/runtime/CkksExecutor.h"
#include "eva/serialize/CkksIO.h"
#include "eva/service/ProgramRegistry.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstring>

using namespace eva;

uint64_t eva::fnv1a64(std::string_view Data, uint64_t State) {
  for (char C : Data) {
    State ^= static_cast<unsigned char>(C);
    State *= 0x100000001b3ull;
  }
  return State;
}

namespace {

uint64_t hashLenPrefixed(std::string_view Data, uint64_t State) {
  char Len[8];
  uint64_t N = Data.size();
  for (int I = 0; I < 8; ++I)
    Len[I] = static_cast<char>((N >> (8 * I)) & 0xFF);
  State = fnv1a64(std::string_view(Len, 8), State);
  return fnv1a64(Data, State);
}

uint64_t hashEntry(char Tag, std::string_view Name, std::string_view Payload,
                   uint64_t State) {
  State = fnv1a64(std::string_view(&Tag, 1), State);
  State = hashLenPrefixed(Name, State);
  return hashLenPrefixed(Payload, State);
}

/// Plain inputs hash as the LE 8-byte doubles they occupy on the wire
/// (NamedPlain.values), so the hash covers the exact transmitted bytes.
std::string packDoubles(const std::vector<double> &Vals) {
  std::string Raw(Vals.size() * 8, '\0');
  for (size_t I = 0; I < Vals.size(); ++I) {
    uint64_t Bits;
    std::memcpy(&Bits, &Vals[I], 8);
    for (int B = 0; B < 8; ++B)
      Raw[I * 8 + B] = static_cast<char>((Bits >> (8 * B)) & 0xFF);
  }
  return Raw;
}

template <typename PayloadFn, typename Vec>
uint64_t hashSortedEntries(const Vec &Entries, char Tag, uint64_t State,
                           PayloadFn Payload) {
  std::vector<size_t> Order(Entries.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Entries[A].first < Entries[B].first;
  });
  for (size_t I : Order)
    State = hashEntry(Tag, Entries[I].first, Payload(Entries[I].second),
                      State);
  return State;
}

constexpr char TagCipher = 0x01;
constexpr char TagPlain = 0x02;

} // namespace

uint64_t eva::auditHashInputs(
    const std::vector<std::pair<std::string, std::string>> &CipherInputs,
    const std::vector<std::pair<std::string, std::vector<double>>>
        &PlainInputs) {
  uint64_t H = 0xcbf29ce484222325ull;
  H = hashSortedEntries(CipherInputs, TagCipher, H,
                        [](const std::string &Bytes) {
                          return std::string_view(Bytes);
                        });
  // Plain payloads are materialized per entry; keep the temporary alive
  // across the hash call.
  std::vector<std::pair<std::string, std::string>> Packed;
  Packed.reserve(PlainInputs.size());
  for (const auto &[Name, Values] : PlainInputs)
    Packed.emplace_back(Name, packDoubles(Values));
  H = hashSortedEntries(Packed, TagPlain, H, [](const std::string &Bytes) {
    return std::string_view(Bytes);
  });
  return H;
}

uint64_t eva::auditHashOutputs(
    const std::vector<std::pair<std::string, std::string>> &Outputs) {
  return hashSortedEntries(Outputs, TagCipher, 0xcbf29ce484222325ull,
                           [](const std::string &Bytes) {
                             return std::string_view(Bytes);
                           });
}

//===----------------------------------------------------------------------===//
// Line format
//===----------------------------------------------------------------------===//

std::string eva::formatAuditLine(const AuditRecord &R) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "req=%" PRIu64 " session=%" PRIu64
                " program=%s inputs=%016" PRIx64 " outputs=%016" PRIx64
                " decode_us=%" PRIu64 " queue_us=%" PRIu64
                " execute_us=%" PRIu64 " encode_us=%" PRIu64
                " total_us=%" PRIu64,
                R.RequestId, R.SessionId, R.Program.c_str(), R.InputsHash,
                R.OutputsHash, R.DecodeUs, R.QueueUs, R.ExecuteUs, R.EncodeUs,
                R.TotalUs);
  return Buf;
}

Expected<AuditRecord> eva::parseAuditLine(std::string_view Line) {
  using Result = Expected<AuditRecord>;
  AuditRecord R;
  bool SawReq = false, SawProgram = false, SawInputs = false,
       SawOutputs = false;

  auto parseU64 = [](std::string_view V, uint64_t &Out, int Base) {
    if (V.empty())
      return false;
    Out = 0;
    for (char C : V) {
      uint64_t Digit;
      if (C >= '0' && C <= '9')
        Digit = static_cast<uint64_t>(C - '0');
      else if (Base == 16 && C >= 'a' && C <= 'f')
        Digit = static_cast<uint64_t>(C - 'a' + 10);
      else if (Base == 16 && C >= 'A' && C <= 'F')
        Digit = static_cast<uint64_t>(C - 'A' + 10);
      else
        return false;
      Out = Out * static_cast<uint64_t>(Base) + Digit;
    }
    return true;
  };

  size_t Pos = 0;
  while (Pos < Line.size()) {
    while (Pos < Line.size() && (Line[Pos] == ' ' || Line[Pos] == '\t' ||
                                 Line[Pos] == '\n' || Line[Pos] == '\r'))
      ++Pos;
    if (Pos >= Line.size())
      break;
    size_t End = Line.find(' ', Pos);
    std::string_view Token = Line.substr(
        Pos, End == std::string_view::npos ? std::string_view::npos
                                           : End - Pos);
    Pos = End == std::string_view::npos ? Line.size() : End + 1;
    while (!Token.empty() &&
           (Token.back() == '\n' || Token.back() == '\r'))
      Token.remove_suffix(1);
    size_t Eq = Token.find('=');
    if (Eq == std::string_view::npos)
      return Result::error("audit line token '" + std::string(Token) +
                           "' is not key=value");
    std::string_view Key = Token.substr(0, Eq);
    std::string_view Value = Token.substr(Eq + 1);
    bool Ok = true;
    if (Key == "req") {
      Ok = parseU64(Value, R.RequestId, 10);
      SawReq = Ok;
    } else if (Key == "session") {
      Ok = parseU64(Value, R.SessionId, 10);
    } else if (Key == "program") {
      R.Program = std::string(Value);
      SawProgram = !R.Program.empty();
      Ok = SawProgram;
    } else if (Key == "inputs") {
      Ok = parseU64(Value, R.InputsHash, 16);
      SawInputs = Ok;
    } else if (Key == "outputs") {
      Ok = parseU64(Value, R.OutputsHash, 16);
      SawOutputs = Ok;
    } else if (Key == "decode_us") {
      Ok = parseU64(Value, R.DecodeUs, 10);
    } else if (Key == "queue_us") {
      Ok = parseU64(Value, R.QueueUs, 10);
    } else if (Key == "execute_us") {
      Ok = parseU64(Value, R.ExecuteUs, 10);
    } else if (Key == "encode_us") {
      Ok = parseU64(Value, R.EncodeUs, 10);
    } else if (Key == "total_us") {
      Ok = parseU64(Value, R.TotalUs, 10);
    } // unknown keys: forward compatibility, skip
    if (!Ok)
      return Result::error("audit line has malformed value for '" +
                           std::string(Key) + "'");
  }
  if (!SawReq || !SawProgram || !SawInputs || !SawOutputs)
    return Result::error(
        "audit line is missing req/program/inputs/outputs");
  return R;
}

//===----------------------------------------------------------------------===//
// AuditLog
//===----------------------------------------------------------------------===//

AuditLog::~AuditLog() {
  if (Sink && OwnsSink)
    std::fclose(Sink);
}

Status AuditLog::open(const std::string &Path) {
  LockGuard Lock(M);
  if (Sink)
    return Status::error("audit log already open");
  if (Path == "-") {
    Sink = stderr;
    OwnsSink = false;
    return Status::success();
  }
  Sink = std::fopen(Path.c_str(), "a");
  if (!Sink)
    return Status::error("cannot open audit log '" + Path + "'");
  OwnsSink = true;
  return Status::success();
}

void AuditLog::append(const AuditRecord &R) {
  std::string Line = formatAuditLine(R);
  Line.push_back('\n');
  LockGuard Lock(M);
  if (!Sink)
    return;
  std::fwrite(Line.data(), 1, Line.size(), Sink);
  std::fflush(Sink);
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

Expected<AuditReplayResult>
eva::auditReplay(const AuditRecord &R, const CompiledProgram &CP,
                 uint64_t KeySeed,
                 const std::map<std::string, std::vector<double>> &Inputs) {
  using Result = Expected<AuditReplayResult>;
  ParamSignature Sig = signatureOf(CP);
  if (Sig.ProgramName != R.Program)
    return Result::error("audit line is for program '" + R.Program +
                         "' but the compiled program is '" + Sig.ProgramName +
                         "'");
  if (KeySeed == 0)
    return Result::error("audit replay requires the client's nonzero key "
                         "seed (reproducible-seeds mode)");

  // The exact client stack of ServiceClient::openSession, reproducible mode:
  // key generation and sampler order are a pure function of the seed.
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(CP, KeySeed, /*ReproducibleSeeds=*/true);
  if (!WS)
    return WS.takeStatus();
  CkksWorkspace &W = **WS;

  // Re-encrypt in signature order — the order ServiceClient::encryptInputs
  // consumes the deterministic sampler in — and serialize seed-compressed,
  // reproducing the request's wire bytes.
  std::vector<std::pair<std::string, std::string>> CipherBytes;
  std::vector<std::pair<std::string, std::vector<double>>> PlainValues;
  SealedInputs Sealed;
  for (const ServiceInputSpec &Spec : Sig.Inputs) {
    auto It = Inputs.find(Spec.Name);
    if (It == Inputs.end())
      return Result::error("replay is missing input '" + Spec.Name + "'");
    if (!Spec.IsCipher) {
      PlainValues.emplace_back(Spec.Name, It->second);
      Sealed.Plain.emplace(Spec.Name, It->second);
      continue;
    }
    Plaintext Pt;
    W.Encoder->encode(It->second, std::exp2(Spec.LogScale),
                      W.Context->dataPrimeCount(), Pt);
    uint64_t C1Seed = 0;
    Ciphertext Ct =
        W.Enc->encryptSymmetric(Pt, W.KeyGen->secretKey(), C1Seed);
    CipherBytes.emplace_back(Spec.Name, serializeCiphertext(Ct, C1Seed));
    Sealed.Cipher.emplace(Spec.Name, std::move(Ct));
  }
  for (const auto &[Name, Values] : Inputs) {
    (void)Values;
    bool Known = false;
    for (const ServiceInputSpec &Spec : Sig.Inputs)
      Known |= Spec.Name == Name;
    if (!Known)
      return Result::error("input '" + Name +
                           "' is not declared by the program");
  }

  AuditReplayResult Out;
  Out.InputsHash = auditHashInputs(CipherBytes, PlainValues);
  Out.InputsMatch = Out.InputsHash == R.InputsHash;

  // The server's executor configuration: the DAG schedule on one thread,
  // with hoisting. Every schedule is bit-identical anyway, so the output
  // ciphertext bytes must match exactly.
  CkksExecutor Exec(CP, *WS);
  std::map<std::string, Ciphertext> Cts = Exec.run(Sealed);
  std::vector<std::pair<std::string, std::string>> OutputBytes;
  for (const auto &[Name, Ct] : Cts)
    OutputBytes.emplace_back(Name, serializeCiphertext(Ct));
  Out.OutputsHash = auditHashOutputs(OutputBytes);
  Out.OutputsMatch = Out.OutputsHash == R.OutputsHash;
  return Out;
}
