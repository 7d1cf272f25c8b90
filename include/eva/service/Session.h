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
/// key generator, encryptor, and decryptor null). Each session owns a
/// ParallelCkksExecutor whose cooperative thread pool executes that
/// client's requests; a per-session mutex serializes them, while different
/// sessions run concurrently under the RequestScheduler.
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
  /// The session executes through the same api/Runner every other caller
  /// uses, in cipher-in/cipher-out mode: the evaluation-only workspace has
  /// no decryptor, so the runner validates the request against the typed
  /// program signature, schedules it on the parallel executor, and hands
  /// the output ciphertexts back.
  Session(uint64_t Id, std::shared_ptr<const RegisteredProgram> Prog,
          std::shared_ptr<CkksWorkspace> WS, size_t ExecThreads,
          MetricsRegistry *Metrics = nullptr);

  uint64_t id() const { return Id; }
  const RegisteredProgram &program() const { return *Prog; }
  const CkksContext &context() const { return *WS->Context; }

  /// Runs one encrypted request to completion; malformed requests come
  /// back as diagnostics, not aborts. Requests of the same session are
  /// serialized (they share the executor); the scheduler overlaps requests
  /// of different sessions. \p Trace, when non-null, receives the execute
  /// span; the session also publishes the compute latency and the run's
  /// cost ledger into its MetricsRegistry.
  Expected<std::map<std::string, Ciphertext>>
  execute(SealedInputs Inputs, TraceContext *Trace = nullptr)
      EVA_EXCLUDES(ExecMutex);

private:
  uint64_t Id;
  std::shared_ptr<const RegisteredProgram> Prog;
  std::shared_ptr<CkksWorkspace> WS;
  /// The runner (and the executor pool behind it) admits one request at a
  /// time; ExecMutex serializes a session's requests while the scheduler
  /// overlaps distinct sessions. Leaf in the declared lock order: held
  /// across execute() but never while touching SessionManager::M.
  std::unique_ptr<Runner> Exec EVA_PT_GUARDED_BY(ExecMutex);
  Mutex ExecMutex;
  /// Instruments each run rolls up into, resolved once at construction
  /// (null / empty without a metrics registry).
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
  explicit SessionManager(size_t ExecThreadsPerSession = 1,
                          size_t MaxSessions = 64,
                          MetricsRegistry *Metrics = nullptr)
      : ExecThreads(ExecThreadsPerSession), MaxSessions(MaxSessions),
        Metrics(Metrics) {}

  /// Validates the keys against the program (createServer checks Galois
  /// coverage and relin presence) and publishes a fresh session. Fails
  /// when the session limit is reached.
  Expected<std::shared_ptr<Session>>
  open(std::shared_ptr<const RegisteredProgram> Prog, RelinKeys Rk,
       GaloisKeys Gk) EVA_EXCLUDES(M);

  std::shared_ptr<Session> find(uint64_t Id) const EVA_EXCLUDES(M);
  bool close(uint64_t Id) EVA_EXCLUDES(M);
  size_t activeCount() const EVA_EXCLUDES(M);
  /// Advisory capacity probe so callers can refuse a session request
  /// before paying for key deserialization; open() remains authoritative.
  bool atCapacity() const EVA_EXCLUDES(M);

private:
  /// Declared lock order: SessionManager::M before Session::ExecMutex
  /// (open() constructs sessions under M; execution never reaches back into
  /// the manager). tools/evalint-cpp rejects the inversion.
  mutable Mutex M;
  uint64_t NextId EVA_GUARDED_BY(M) = 1;
  size_t ExecThreads;
  size_t MaxSessions;
  MetricsRegistry *Metrics;
  std::map<uint64_t, std::shared_ptr<Session>> Sessions EVA_GUARDED_BY(M);
  /// Pinned-key accounting per session id, so close() can subtract what
  /// open() added.
  std::map<uint64_t, size_t> KeyBytes EVA_GUARDED_BY(M);
};

} // namespace eva

#endif // EVA_SERVICE_SESSION_H
