//===- Service.cpp - The encrypted-compute service -----------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/service/Service.h"

#include "eva/serialize/CkksIO.h"
#include "eva/support/Log.h"
#include "eva/support/Timer.h"

using namespace eva;

Service::Service(ServiceConfig ConfigIn)
    : Config(ConfigIn),
      Sessions(Config.MaxSessions, Config.Telemetry ? &Metrics : nullptr),
      Scheduler(Config.MaxQueueDepth, Config.Telemetry ? &Metrics : nullptr) {
  if (Config.Telemetry) {
    RequestsTotal = &Metrics.counter("eva_requests_total");
    DecodeSeconds = &Metrics.latencyHistogram("eva_request_decode_seconds");
    ExecuteSeconds = &Metrics.latencyHistogram("eva_request_execute_seconds");
    EncodeSeconds = &Metrics.latencyHistogram("eva_request_encode_seconds");
  }
  if (!Config.AuditLog.empty())
    if (Status S = Audit.open(Config.AuditLog); !S.ok())
      LogLine(LogLevel::Error, "audit_open_failed")
          .kv("path", Config.AuditLog)
          .kv("error", S.message());
}

std::pair<MessageType, std::string>
Service::errorResponse(const char *Cause, std::string Message) {
  if (Config.Telemetry)
    Metrics.counter(labeledMetric("eva_request_errors_total", "cause", Cause))
        .add();
  LogLine(LogLevel::Warn, "request_error")
      .kv("cause", Cause)
      .kv("error", Message);
  return {MessageType::Error, serializeError({std::move(Message)})};
}

std::pair<MessageType, std::string> Service::dispatch(MessageType Type,
                                                      std::string_view Payload) {
  switch (Type) {
  case MessageType::ListPrograms:
    return handleListPrograms();
  case MessageType::OpenSession:
    return handleOpenSession(Payload);
  case MessageType::Execute:
    return handleExecute(Payload);
  case MessageType::CloseSession:
    return handleCloseSession(Payload);
  case MessageType::GetMetrics:
    return handleGetMetrics();
  default:
    return errorResponse("bad_message",
                         std::string("unexpected message type ") +
                             messageTypeName(Type));
  }
}

std::pair<MessageType, std::string> Service::handleListPrograms() {
  ProgramListMsg M;
  M.Programs = Registry.signatures();
  return {MessageType::ProgramList, serializeProgramList(M)};
}

std::pair<MessageType, std::string> Service::handleGetMetrics() {
  return {MessageType::Metrics, serializeMetrics(Metrics.snapshot())};
}

std::pair<MessageType, std::string>
Service::handleOpenSession(std::string_view Payload) {
  Expected<OpenSessionMsg> M = deserializeOpenSession(Payload);
  if (!M)
    return errorResponse("bad_message", M.message());
  std::shared_ptr<const RegisteredProgram> Prog =
      Registry.find(M->ProgramName);
  if (!Prog)
    return errorResponse("unknown_program",
                         "unknown program '" + M->ProgramName + "'");
  // Refuse before deserializing keys: seed-expanding a full Galois-key
  // upload is exactly the cheap-to-send, expensive-to-process asymmetry a
  // session flood would exploit. open() re-checks authoritatively.
  if (Sessions.atCapacity())
    return errorResponse("session_limit",
                         "session limit reached (" +
                             std::to_string(Config.MaxSessions) +
                             "): close one or retry later");

  RelinKeys Rk;
  if (!M->RelinKeyBytes.empty()) {
    Expected<RelinKeys> R =
        deserializeRelinKeys(*Prog->Context, M->RelinKeyBytes);
    if (!R)
      return errorResponse("bad_keys", "relin keys: " + R.message());
    Rk = std::move(*R);
  }
  GaloisKeys Gk;
  if (!M->GaloisKeyBytes.empty()) {
    Expected<GaloisKeys> G =
        deserializeGaloisKeys(*Prog->Context, M->GaloisKeyBytes);
    if (!G)
      return errorResponse("bad_keys", "galois keys: " + G.message());
    Gk = std::move(*G);
  }

  // createServer refuses keys that do not fit the program: a missing relin
  // key or Galois step, or keys for another context.
  Expected<std::shared_ptr<CkksWorkspace>> WS = CkksWorkspace::createServer(
      Prog->CP, Prog->Context, std::move(Rk), std::move(Gk));
  if (!WS)
    return errorResponse("bad_keys", WS.message());
  Expected<std::shared_ptr<Session>> S =
      Sessions.open(std::move(Prog), std::move(*WS));
  if (!S)
    return errorResponse("session_limit", S.message());
  LogLine(LogLevel::Info, "session_open")
      .kv("session", (*S)->id())
      .kv("program", M->ProgramName);
  return {MessageType::SessionOpened,
          serializeSessionOpened({(*S)->id()})};
}

std::pair<MessageType, std::string>
Service::handleExecute(std::string_view Payload) {
  Timer TotalTimer;
  TraceContext Trace;
  Trace.RequestId = NextRequestId.fetch_add(1, std::memory_order_relaxed);

  Timer DecodeTimer;
  Expected<ExecuteMsg> M = deserializeExecute(Payload);
  if (!M)
    return errorResponse("bad_message", M.message());
  std::shared_ptr<Session> S = Sessions.find(M->SessionId);
  if (!S)
    return errorResponse("unknown_session",
                         "unknown session " + std::to_string(M->SessionId));
  const CkksContext &Ctx = S->context();

  // Hash the request's wire bytes before they are consumed: the audit
  // contract covers exactly what arrived, not a re-serialization.
  uint64_t InputsHash = 0;
  if (Audit.enabled())
    InputsHash = auditHashInputs(M->CipherInputs, M->PlainInputs);

  // Deserialize defensively (malformed bytes, duplicate names), then check
  // the request against the typed program signature — inputs complete,
  // ciphertexts well-formed at the declared scale and level, values finite,
  // no undeclared extras — before it takes a slot in the gate: executor
  // invariant violations are process-fatal, and a hostile tenant must not
  // be able to take the service down. The session's runner checks again.
  Valuation Inputs;
  for (const auto &[Name, Bytes] : M->CipherInputs) {
    Expected<Ciphertext> Ct = deserializeCiphertext(Ctx, Bytes);
    if (!Ct)
      return errorResponse("bad_input",
                           "cipher input '" + Name + "': " + Ct.message());
    if (Inputs.has(Name))
      return errorResponse("bad_input",
                           "duplicate cipher input '" + Name + "'");
    Inputs.set(Name, std::move(*Ct));
  }
  for (auto &[Name, Values] : M->PlainInputs) {
    if (Inputs.has(Name))
      return errorResponse(
          "bad_input", Inputs.isCipher(Name)
                           ? "input '" + Name +
                                 "' supplied as both ciphertext and plain"
                           : "duplicate plain input '" + Name + "'");
    Inputs.set(Name, std::move(Values));
  }
  if (Status Valid = validateInputs(S->signature(), Inputs); !Valid.ok())
    return errorResponse("bad_input", Valid.message());
  // The server cannot encrypt: a cipher input must arrive encrypted.
  for (const IoSpec &Spec : S->signature().Inputs)
    if (Spec.isCipher() && !Inputs.isCipher(Spec.Name))
      return errorResponse("bad_input", "cipher input '" + Spec.Name +
                                            "' arrived as plain values");
  Trace.DecodeSeconds = DecodeTimer.seconds();

  Expected<RequestScheduler::Result> Run =
      Scheduler.run([&] { return S->execute(Inputs, &Trace); }, &Trace);
  if (!Run)
    return errorResponse("queue_full", Run.message());
  RequestScheduler::Result &R = *Run;
  if (!R)
    return errorResponse("execute_failed", R.message());

  Timer EncodeTimer;
  ExecuteResultMsg Out;
  for (const auto &[Name, Ct] : *R)
    Out.Outputs.emplace_back(Name, serializeCiphertext(Ct));
  Out.RequestId = Trace.RequestId;
  std::string OutPayload = serializeExecuteResult(Out);
  Trace.EncodeSeconds = EncodeTimer.seconds();
  Trace.TotalSeconds = TotalTimer.seconds();

  if (RequestsTotal) {
    RequestsTotal->add();
    S->recordServed(Trace.TotalSeconds);
    DecodeSeconds->observe(Trace.DecodeSeconds);
    ExecuteSeconds->observe(Trace.ExecuteSeconds);
    EncodeSeconds->observe(Trace.EncodeSeconds);
  }
  LogLine(LogLevel::Info, "request")
      .kv("req", Trace.RequestId)
      .kv("session", Trace.SessionId)
      .kv("program", Trace.Program)
      .kvUs("decode", Trace.DecodeSeconds)
      .kvUs("queue", Trace.QueueSeconds)
      .kvUs("execute", Trace.ExecuteSeconds)
      .kvUs("encode", Trace.EncodeSeconds)
      .kvUs("total", Trace.TotalSeconds)
      .kv("status", "ok");
  if (Audit.enabled()) {
    AuditRecord Rec;
    Rec.RequestId = Trace.RequestId;
    Rec.SessionId = Trace.SessionId;
    Rec.Program = Trace.Program;
    Rec.InputsHash = InputsHash;
    Rec.OutputsHash = auditHashOutputs(Out.Outputs);
    Rec.DecodeUs = static_cast<uint64_t>(Trace.DecodeSeconds * 1e6 + 0.5);
    Rec.QueueUs = static_cast<uint64_t>(Trace.QueueSeconds * 1e6 + 0.5);
    Rec.ExecuteUs = static_cast<uint64_t>(Trace.ExecuteSeconds * 1e6 + 0.5);
    Rec.EncodeUs = static_cast<uint64_t>(Trace.EncodeSeconds * 1e6 + 0.5);
    Rec.TotalUs = static_cast<uint64_t>(Trace.TotalSeconds * 1e6 + 0.5);
    Audit.append(Rec);
  }
  return {MessageType::ExecuteResult, std::move(OutPayload)};
}

std::pair<MessageType, std::string>
Service::handleCloseSession(std::string_view Payload) {
  Expected<CloseSessionMsg> M = deserializeCloseSession(Payload);
  if (!M)
    return errorResponse("bad_message", M.message());
  if (!Sessions.close(M->SessionId))
    return errorResponse("unknown_session",
                         "unknown session " + std::to_string(M->SessionId));
  LogLine(LogLevel::Info, "session_close").kv("session", M->SessionId);
  return {MessageType::SessionClosed, serializeSessionClosed({M->SessionId})};
}
