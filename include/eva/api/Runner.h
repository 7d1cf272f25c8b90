//===- eva/api/Runner.h - One evaluation API over all backends --*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified typed evaluation API (the ergonomic surface of the paper's
/// Section 7.1 PyEVA frontend, generalized over deployment shapes): one
/// abstract Runner with `Expected<Valuation> run(const Valuation &)`, and
/// factories for every backend in the repo —
///
///  * Runner::reference(P)     — the paper's Section 3 reference semantics
///                               (plaintext doubles, no encryption),
///  * Runner::local(CP, Opts)  — encrypt/execute/decrypt in-process on the
///                               CKKS executor, with the paper's
///                               asynchronous DAG schedule (or the
///                               CHET-style bulk schedule for baseline
///                               measurements) on Opts.Threads threads,
///  * Runner::remote(T, name)  — the full client loop against an
///                               encrypted-compute service over a Transport
///                               (socket or in-process).
///
/// Backends are drop-in interchangeable: they expose the same
/// ProgramSignature, validate inputs identically, and — given the same
/// compiled program, seed, and reproducible-seed mode — the local and
/// remote CKKS backends produce bit-identical outputs (golden-tested via
/// `evac run`). The reference backend agrees up to CKKS approximation
/// error.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_API_RUNNER_H
#define EVA_API_RUNNER_H

#include "eva/api/Valuation.h"
#include "eva/runtime/CkksExecutor.h"

#include <memory>
#include <string>

namespace eva {

class Transport; // see eva/service/Client.h

/// Options of a local Runner: the executor's thread count, schedule and
/// hoisting (ExecutorOptions; the default is the DAG schedule on the
/// calling thread alone) plus the seeding of the client keys.
struct LocalRunnerOptions : ExecutorOptions {
  /// Key/encryption RNG seed (the secret key is a function of it).
  uint64_t Seed = 1;
  /// When true, ciphertext/key expansion seeds are also derived
  /// deterministically from Seed, making the whole run a pure function of
  /// (program, seed, inputs) — required for cross-backend bit-identity
  /// goldens. Default off: expansion seeds come from OS entropy.
  bool ReproducibleSeeds = false;
};

struct RemoteRunnerOptions {
  /// Client key seed (same role as LocalRunnerOptions::Seed).
  uint64_t KeySeed = 1;
  /// See LocalRunnerOptions::ReproducibleSeeds.
  bool ReproducibleSeeds = false;
};

/// One execution backend for one program. run() validates the inputs
/// against signature() (precise diagnostics, no aborts), executes, and
/// returns one entry per program output.
class Runner {
public:
  virtual ~Runner() = default;

  /// The typed I/O contract this runner executes.
  virtual const ProgramSignature &signature() const = 0;

  /// Short backend name for messages: "reference", "local", "remote".
  virtual const char *backend() const = 0;

  /// Validates \p Inputs, executes the program, and returns the outputs as
  /// plaintext vectors (or ciphertexts, for evaluation-only workspaces that
  /// cannot decrypt). Never aborts on malformed input.
  virtual Expected<Valuation> run(const Valuation &Inputs) = 0;

  /// Wall-clock breakdown of the most recent successful run (benches time
  /// the compute phase without giving up the typed API).
  struct Timing {
    double EncryptSeconds = 0;
    double ComputeSeconds = 0;
    double DecryptSeconds = 0;
  };
  virtual Timing lastTiming() const { return {}; }

  /// Executor statistics of the most recent run (local backends only).
  virtual const ExecutionStats *executionStats() const { return nullptr; }

  /// Server-assigned trace id of the most recent successful run (remote
  /// backend only; 0 locally or against servers predating request
  /// tracing). Correlates a client-observed result with the server's log
  /// lines, metrics spans, and audit records.
  virtual uint64_t lastRequestId() const { return 0; }

  //===--------------------------------------------------------------------===
  // Factories
  //===--------------------------------------------------------------------===

  /// Reference semantics over an uncompiled (or compiled) program graph.
  /// Clones \p P; the argument need not outlive the runner.
  static std::unique_ptr<Runner> reference(const Program &P);

  /// Owning local CKKS backend: builds a client-style crypto stack
  /// (context, keys, symmetric encryptor, decryptor) from \p Opts.Seed —
  /// the exact stack a ServiceClient builds, so a local run with
  /// ReproducibleSeeds matches the remote backend bit for bit.
  static Expected<std::unique_ptr<Runner>>
  local(CompiledProgram CP, const LocalRunnerOptions &Opts = {});

  /// Non-owning local CKKS backend over an existing workspace (benches and
  /// tests share one expensive key set across runners). \p CP and \p WS
  /// must outlive the runner. With an evaluation-only (server) workspace
  /// the runner consumes/produces ciphertext entries instead of
  /// encrypting/decrypting.
  static Expected<std::unique_ptr<Runner>>
  local(const CompiledProgram &CP, std::shared_ptr<CkksWorkspace> WS,
        const LocalRunnerOptions &Opts = {});

  /// Remote backend: the full client loop (fetch signature, derive context,
  /// generate keys, upload evaluation keys, encrypt symmetrically, submit,
  /// decrypt) for \p ProgramName over \p T. Owns the transport.
  static Expected<std::unique_ptr<Runner>>
  remote(std::unique_ptr<Transport> T, const std::string &ProgramName,
         const RemoteRunnerOptions &Opts = {});

  /// Remote backend over a borrowed transport (\p T must outlive the
  /// runner; tests drive Service::dispatch via InProcessTransport).
  static Expected<std::unique_ptr<Runner>>
  remote(Transport &T, const std::string &ProgramName,
         const RemoteRunnerOptions &Opts = {});
};

} // namespace eva

#endif // EVA_API_RUNNER_H
