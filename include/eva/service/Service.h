//===- eva/service/Service.h - The encrypted-compute service ----*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent service core: program registry + session
/// manager + admission gate behind a single dispatch() over serialized
/// messages. The socket server (Server.h) and the in-process transport
/// (Client.h) both funnel through dispatch, so tests exercise byte-for-byte
/// the same path a remote client exercises — including every defensive
/// deserialization step — without socket flakiness.
///
/// Threading: a Service starts no thread. dispatch() runs on its caller's
/// thread, and so does an EXECUTE, once the RequestScheduler gate admits
/// it; concurrent callers execute concurrently, up to one request per
/// hardware thread.
///
/// Threat model: the server operates on ciphertexts and evaluation keys
/// only. No dispatch path deserializes a secret key (the wire schema has no
/// message for one), and requests are fully validated — session exists,
/// inputs complete, ciphertexts well-formed at the expected level and scale
/// — before they reach an executor, because executor invariant violations
/// are process-fatal by design.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERVICE_SERVICE_H
#define EVA_SERVICE_SERVICE_H

#include "eva/service/Audit.h"
#include "eva/service/Messages.h"
#include "eva/service/ProgramRegistry.h"
#include "eva/service/RequestScheduler.h"
#include "eva/service/Session.h"
#include "eva/support/Telemetry.h"

#include <atomic>

namespace eva {

struct ServiceConfig {
  /// EXECUTE requests allowed to wait for an execution slot; beyond this
  /// many waiting, a request is refused ("queue full").
  size_t MaxQueueDepth = 256;
  /// Open sessions pin their key material; beyond this many, OPEN_SESSION
  /// is rejected (untrusted clients must not be able to OOM the server).
  size_t MaxSessions = 64;
  /// Hot-path metrics recording. Off leaves the registry registered but
  /// silent (GET_METRICS still answers) — the baseline the <2% overhead
  /// bench compares against.
  bool Telemetry = true;
  /// When non-empty, append one transcript-hash audit line per EXECUTE to
  /// this file ("-" = stderr); see service/Audit.h.
  std::string AuditLog;
};

class Service {
public:
  explicit Service(ServiceConfig Config = {});

  ProgramRegistry &registry() { return Registry; }
  const ProgramRegistry &registry() const { return Registry; }

  /// Handles one request frame and produces the response frame. Never
  /// throws and never aborts on malformed payloads: every failure returns
  /// a MessageType::Error response.
  std::pair<MessageType, std::string> dispatch(MessageType Type,
                                               std::string_view Payload);

  SchedulerStats schedulerStats() const { return Scheduler.stats(); }
  size_t activeSessionCount() const { return Sessions.activeCount(); }

  /// The live metrics registry (in-process instrumentation) and its
  /// current snapshot (what GET_METRICS returns and SIGUSR1/shutdown dump).
  MetricsRegistry &metrics() { return Metrics; }
  MetricsSnapshot metricsSnapshot() const { return Metrics.snapshot(); }

private:
  std::pair<MessageType, std::string> handleListPrograms();
  std::pair<MessageType, std::string> handleOpenSession(std::string_view);
  std::pair<MessageType, std::string> handleExecute(std::string_view);
  std::pair<MessageType, std::string> handleCloseSession(std::string_view);
  std::pair<MessageType, std::string> handleGetMetrics();
  /// errorFrame + per-cause error counter + warn-level log.
  std::pair<MessageType, std::string> errorResponse(const char *Cause,
                                                    std::string Message);

  ServiceConfig Config;
  MetricsRegistry Metrics;
  ProgramRegistry Registry;
  SessionManager Sessions;
  RequestScheduler Scheduler;
  AuditLog Audit;
  /// Instruments every served request updates, resolved once at
  /// construction (null with telemetry off).
  Counter *RequestsTotal = nullptr;
  Histogram *DecodeSeconds = nullptr;
  Histogram *ExecuteSeconds = nullptr;
  Histogram *EncodeSeconds = nullptr;
  std::atomic<uint64_t> NextRequestId{1};
};

} // namespace eva

#endif // EVA_SERVICE_SERVICE_H
