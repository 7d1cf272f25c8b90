//===- Client.cpp - Service clients ---------------------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/service/Client.h"

#include "eva/serialize/CkksIO.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace eva;

Expected<std::unique_ptr<SocketTransport>>
SocketTransport::connectLoopback(uint16_t Port) {
  using Result = Expected<std::unique_ptr<SocketTransport>>;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Result::error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Result R = Result::error(std::string("connect to 127.0.0.1:") +
                             std::to_string(Port) + ": " +
                             std::strerror(errno));
    ::close(Fd);
    return R;
  }
  return std::unique_ptr<SocketTransport>(new SocketTransport(Fd));
}

SocketTransport::~SocketTransport() {
  if (Fd >= 0)
    ::close(Fd);
}

Expected<Frame> SocketTransport::roundTrip(MessageType Type,
                                           std::string_view Payload) {
  // evalint: allow(blocking-under-lock): the frame exchange is the critical
  // section — IoMutex exists precisely to serialize write+read pairs on the
  // shared fd, and nothing else ever contends on it.
  LockGuard Lock(IoMutex);
  if (Status S = writeFrame(Fd, Type, Payload); !S.ok())
    return S;
  return readFrame(Fd);
}

Expected<std::string> ServiceClient::exchange(MessageType Send,
                                              std::string_view Payload,
                                              MessageType Want) {
  using Result = Expected<std::string>;
  Expected<Frame> F = T.roundTrip(Send, Payload);
  if (!F)
    return F.takeStatus();
  if (F->Type == MessageType::Error) {
    Expected<ErrorMsg> E = deserializeError(F->Payload);
    return Result::error("server error: " +
                         (E.ok() ? E->Message : "unreadable diagnostic"));
  }
  if (F->Type != Want)
    return Result::error(std::string("expected ") + messageTypeName(Want) +
                         " but received " + messageTypeName(F->Type));
  return std::move(F->Payload);
}

Expected<std::vector<ParamSignature>> ServiceClient::listPrograms() {
  using Result = Expected<std::vector<ParamSignature>>;
  Expected<std::string> Payload =
      exchange(MessageType::ListPrograms, {}, MessageType::ProgramList);
  if (!Payload)
    return Payload.takeStatus();
  Expected<ProgramListMsg> M = deserializeProgramList(*Payload);
  if (!M)
    return M.takeStatus();
  return Result(std::move(M->Programs));
}

Expected<MetricsSnapshot> ServiceClient::getMetrics() {
  Expected<std::string> Payload =
      exchange(MessageType::GetMetrics, {}, MessageType::Metrics);
  if (!Payload)
    return Payload.takeStatus();
  return deserializeMetrics(*Payload);
}

Status ServiceClient::openSession(const ParamSignature &SigIn,
                                  uint64_t KeySeed, bool ReproducibleSeeds) {
  if (SessionId != 0)
    return Status::error("client already has an open session");
  Expected<std::shared_ptr<CkksContext>> C = CkksContext::createFromBitSizes(
      SigIn.PolyDegree, SigIn.ContextBitSizes, SigIn.Security);
  if (!C)
    return Status::error("cannot build client context: " + C.message());
  Expected<std::shared_ptr<CkksWorkspace>> Stack = CkksWorkspace::createClient(
      C.value(), SigIn.galoisKeyPrimes(), SigIn.NeedsRelin, KeySeed,
      ReproducibleSeeds);
  if (!Stack)
    return Stack.takeStatus();
  Sig = SigIn;
  WS = std::move(Stack.value());

  OpenSessionMsg M;
  M.ProgramName = Sig.ProgramName;
  if (!WS->Rk.empty())
    M.RelinKeyBytes = serializeRelinKeys(WS->Rk);
  if (!WS->Gk.Keys.empty())
    M.GaloisKeyBytes = serializeGaloisKeys(WS->Gk);
  Expected<std::string> Payload =
      exchange(MessageType::OpenSession, serializeOpenSession(M),
               MessageType::SessionOpened);
  if (!Payload)
    return Payload.takeStatus();
  Expected<SessionOpenedMsg> R = deserializeSessionOpened(*Payload);
  if (!R)
    return R.takeStatus();
  if (R->SessionId == 0)
    return Status::error("server returned session id 0");
  SessionId = R->SessionId;
  return Status::success();
}

Expected<SealedRequest> ServiceClient::encryptInputs(const Valuation &Inputs) {
  if (SessionId == 0)
    return Expected<SealedRequest>::error("no open session");
  return sealInputs(*WS, Sig, Inputs);
}

Expected<SealedRequest> ServiceClient::encryptInputs(
    const std::map<std::string, std::vector<double>> &Inputs) {
  return encryptInputs(Valuation::fromMap(Inputs));
}

ExecuteMsg eva::executeMsgOf(const SealedRequest &Req, uint64_t SessionId) {
  ExecuteMsg M;
  M.SessionId = SessionId;
  for (const auto &[Name, Ct] : Req.Inputs.Cipher) {
    auto SeedIt = Req.C1Seeds.find(Name);
    uint64_t Seed = SeedIt == Req.C1Seeds.end() ? 0 : SeedIt->second;
    M.CipherInputs.emplace_back(Name, serializeCiphertext(Ct, Seed));
  }
  for (const auto &[Name, Values] : Req.Inputs.Plain)
    M.PlainInputs.emplace_back(Name, Values);
  return M;
}

Expected<std::map<std::string, Ciphertext>>
ServiceClient::submit(const SealedRequest &Req) {
  using Result = Expected<std::map<std::string, Ciphertext>>;
  if (SessionId == 0)
    return Result::error("no open session");
  Expected<std::string> Payload =
      exchange(MessageType::Execute,
               serializeExecute(executeMsgOf(Req, SessionId)),
               MessageType::ExecuteResult);
  if (!Payload)
    return Payload.takeStatus();
  Expected<ExecuteResultMsg> R = deserializeExecuteResult(*Payload);
  if (!R)
    return R.takeStatus();
  LastRequestId = R->RequestId;

  std::map<std::string, Ciphertext> Outputs;
  for (const auto &[Name, Bytes] : R->Outputs) {
    Expected<Ciphertext> Ct = deserializeCiphertext(*WS->Context, Bytes);
    if (!Ct)
      return Result::error("output '" + Name + "': " + Ct.message());
    Outputs.emplace(Name, std::move(*Ct));
  }
  return Outputs;
}

std::map<std::string, std::vector<double>> ServiceClient::decryptOutputs(
    const std::map<std::string, Ciphertext> &Outputs) const {
  return eva::decryptOutputs(*WS, Sig, Outputs);
}

Expected<std::map<std::string, std::vector<double>>>
ServiceClient::call(const std::map<std::string, std::vector<double>> &Inputs) {
  using Result = Expected<std::map<std::string, std::vector<double>>>;
  Expected<SealedRequest> Req = encryptInputs(Inputs);
  if (!Req)
    return Req.takeStatus();
  Expected<std::map<std::string, Ciphertext>> Outs = submit(*Req);
  if (!Outs)
    return Outs.takeStatus();
  return Result(decryptOutputs(*Outs));
}

Status ServiceClient::closeSession() {
  if (SessionId == 0)
    return Status::error("no open session");
  Expected<std::string> Payload =
      exchange(MessageType::CloseSession,
               serializeCloseSession({SessionId}), MessageType::SessionClosed);
  if (!Payload)
    return Payload.takeStatus();
  SessionId = 0;
  return Status::success();
}
