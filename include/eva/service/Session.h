//===- eva/service/Session.h - Per-client sessions --------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A session binds one client's evaluation keys to one registered program.
/// The server-side workspace holds only what evaluation needs — context,
/// encoder, and the client-supplied relinearization/Galois keys; the secret
/// key exists solely on the client (CkksWorkspace::createServer leaves the
/// key generator, encryptor, and decryptor null). A session is those keys
/// plus the program's typed signature: it owns no thread, pool or lock.
/// Each request runs on the thread that received it, through a fresh
/// executor running the DAG schedule on that thread alone, over the
/// session's workspace; requests of one session may overlap, and the keys
/// and encoder they share are read-only.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERVICE_SESSION_H
#define EVA_SERVICE_SESSION_H

#include "eva/api/Runner.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/service/ProgramRegistry.h"
#include "eva/support/Telemetry.h"
#include "eva/support/ThreadAnnotations.h"

#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace eva {

class Session {
public:
  /// \p WS is the evaluation-only workspace createServer built and
  /// validated from the client's keys.
  Session(uint64_t Id, std::shared_ptr<const RegisteredProgram> Prog,
          std::shared_ptr<CkksWorkspace> WS,
          MetricsRegistry *Metrics = nullptr);

  uint64_t id() const { return Id; }
  const CkksContext &context() const { return *WS->Context; }
  /// The typed I/O contract every request is validated against.
  const ProgramSignature &signature() const { return Sig; }

  /// Runs one encrypted request to completion on the calling thread, through
  /// the same api/Runner every other caller uses, in cipher-in/cipher-out
  /// mode: the runner checks \p Inputs against signature() (again: the
  /// service validates before admission), runs the one-thread DAG
  /// schedule, and hands the output ciphertexts back. Malformed requests
  /// come back as diagnostics, not aborts. \p Trace, when non-null,
  /// receives the execute span; the run's compute latency and cost ledger
  /// roll up into the session's metrics.
  Expected<std::map<std::string, Ciphertext>>
  execute(const Valuation &Inputs, TraceContext *Trace = nullptr) const;

  /// Counts one served request and its end-to-end latency under the
  /// program's label.
  void recordServed(double TotalSeconds) const;

private:
  uint64_t Id;
  std::shared_ptr<const RegisteredProgram> Prog;
  std::shared_ptr<CkksWorkspace> WS;
  ProgramSignature Sig;
  /// Per-program instruments, resolved once at construction (null / empty
  /// without a metrics registry).
  Counter *Served = nullptr;
  Histogram *ServedSeconds = nullptr;
  Histogram *ComputeSeconds = nullptr;
  std::vector<std::pair<Counter *, uint64_t (*)(const ExecutionStats &)>>
      Rollups;
};

/// Approximate resident size of a session's pinned evaluation keys (the
/// memory the MaxSessions bound protects): every key-switching component
/// polynomial at 8 bytes per coefficient. Seed-compressed halves are
/// counted expanded — that is what the server actually pins.
size_t pinnedKeyBytes(const RelinKeys &Rk, const GaloisKeys &Gk);

/// Owns the live sessions; thread-safe. Bounded: key material is pinned in
/// memory for a session's whole lifetime, so an untrusted client looping
/// OPEN_SESSION must hit a limit, not the server's OOM killer.
class SessionManager {
public:
  /// \p Metrics, when non-null, tracks open sessions, lifetime
  /// opened/rejected/closed counts, and pinned evaluation-key bytes.
  explicit SessionManager(size_t MaxSessions = 64,
                          MetricsRegistry *Metrics = nullptr)
      : MaxSessions(MaxSessions), Metrics(Metrics) {}

  /// Publishes a fresh session over \p WS, an evaluation-only workspace
  /// createServer validated against the program. Fails only when the
  /// session limit is reached.
  Expected<std::shared_ptr<Session>>
  open(std::shared_ptr<const RegisteredProgram> Prog,
       std::shared_ptr<CkksWorkspace> WS) EVA_EXCLUDES(M);

  std::shared_ptr<Session> find(uint64_t Id) const EVA_EXCLUDES(M);
  bool close(uint64_t Id) EVA_EXCLUDES(M);
  size_t activeCount() const EVA_EXCLUDES(M);
  /// Advisory capacity probe so callers can refuse a session request
  /// before paying for key deserialization; open() remains authoritative.
  bool atCapacity() const EVA_EXCLUDES(M);

private:
  /// Guards the session map and the key accounting. Sessions are built
  /// under it; nothing under it reaches back into the manager or blocks.
  mutable Mutex M;
  uint64_t NextId EVA_GUARDED_BY(M) = 1;
  size_t MaxSessions;
  MetricsRegistry *Metrics;
  std::map<uint64_t, std::shared_ptr<Session>> Sessions EVA_GUARDED_BY(M);
  /// Pinned-key accounting per session id, so close() can subtract what
  /// open() added.
  std::map<uint64_t, size_t> KeyBytes EVA_GUARDED_BY(M);
};

} // namespace eva

#endif // EVA_SERVICE_SESSION_H
