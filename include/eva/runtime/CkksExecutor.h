//===- eva/runtime/CkksExecutor.h - Encrypted execution ---------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs compiled EVA programs against the CKKS backend. Three executors
/// share one instruction dispatcher:
///
///  * CkksExecutor — sequential baseline.
///  * ParallelCkksExecutor — the paper's EVA executor (Section 6.1):
///    asynchronous DAG scheduling over a thread pool with
///    dependency-counting readiness, plus retire-based memory reuse
///    (a node's ciphertext is released once its last child has consumed it).
///  * KernelBulkCkksExecutor — the CHET-style baseline: bulk-synchronous
///    parallelism inside each frontend-tagged kernel with barriers between
///    kernels (the paper's "static, bulk-synchronous schedule limits the
///    available parallelism", Section 8.2).
///
/// Both parallel executors are cooperative: the thread that calls run()
/// participates in the schedule (executing ready nodes or loop chunks)
/// instead of sleeping, so an executor built with NumThreads = k uses
/// exactly k execution contexts. They also own a limb-parallel Evaluator
/// wired to the same pool, so when the DAG (or a kernel wavefront) is
/// narrower than the worker count, idle workers pick up per-prime limb
/// chunks of the CKKS ops in flight instead of idling — the two levels of
/// parallelism compose.
///
/// Scale handling refines footnote 1 of the paper: instead of pretending
/// each RESCALE divides by 2^bits, the executor tracks the actual
/// prime-quotient scales. Because validation proves the conforming rescale
/// chains of ADD/SUB operands equal, both operands always consumed the same
/// physical primes and their actual scales agree exactly; additive
/// plaintext operands are encoded at the ciphertext's actual scale.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_RUNTIME_CKKSEXECUTOR_H
#define EVA_RUNTIME_CKKSEXECUTOR_H

#include "eva/ckks/Decryptor.h"
#include "eva/ckks/Encoder.h"
#include "eva/ckks/Encryptor.h"
#include "eva/ckks/Evaluator.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/core/Compiler.h"
#include "eva/support/CostLedger.h"
#include "eva/support/ThreadAnnotations.h"
#include "eva/support/ThreadPool.h"

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace eva {

/// The "encryption context" of Table 7: parameters, keys, and the
/// encoder/encryptor/decryptor/evaluator stack for one compiled program.
///
/// Two flavours exist. create() is the fused client+server workspace used
/// when one process owns everything (tests, benches, the examples).
/// createServer() builds the evaluation-only workspace an encrypted-compute
/// service holds per client session: the context, the encoder (for plain
/// operands), and the *client-supplied* evaluation keys — KeyGen, Enc, and
/// Dec stay null, so no secret key ever exists server-side and
/// encryptInputs/decryptOutput fail fast if called.
class CkksWorkspace {
public:
  /// Generates primes from the compiled bit sizes, validates them at the
  /// compiled security level, and creates all keys (public,
  /// relinearization, and one Galois key per rotation step).
  static Expected<std::shared_ptr<CkksWorkspace>>
  create(const CompiledProgram &CP, uint64_t Seed = 0);

  /// Evaluation-only workspace over an existing context (shared across the
  /// sessions of one registered program) and the evaluation keys a client
  /// uploaded. Validates that \p Gk covers every rotation step the compiled
  /// program needs and that \p Rk is present when it relinearizes.
  static Expected<std::shared_ptr<CkksWorkspace>>
  createServer(const CompiledProgram &CP,
               std::shared_ptr<const CkksContext> Ctx, RelinKeys Rk,
               GaloisKeys Gk);

  /// Client-style workspace: exactly the crypto stack ServiceClient builds
  /// when it opens a session — no public key, a symmetric-only encryptor,
  /// relinearization keys only if the program relinearizes — with the same
  /// key/sampler seeding and generation order. A local run over this
  /// workspace with \p ReproducibleSeeds is therefore bit-identical to the
  /// remote service loop with the same seed (the cross-backend parity the
  /// api/Runner goldens pin down).
  static Expected<std::shared_ptr<CkksWorkspace>>
  createClient(const CompiledProgram &CP, uint64_t Seed,
               bool ReproducibleSeeds = false);

  std::shared_ptr<const CkksContext> Context;
  std::unique_ptr<CkksEncoder> Encoder;
  std::unique_ptr<KeyGenerator> KeyGen;
  PublicKey Pk;
  RelinKeys Rk;
  GaloisKeys Gk;
  std::unique_ptr<Encryptor> Enc;
  std::unique_ptr<Decryptor> Dec;
  std::unique_ptr<Evaluator> Eval;
};

/// Named runtime inputs: Cipher inputs are encrypted; Vector/Scalar inputs
/// stay plain.
struct SealedInputs {
  std::map<std::string, Ciphertext> Cipher;
  std::map<std::string, std::vector<double>> Plain;
};

class CkksExecutor {
public:
  /// \p UseHoisting consumes the compiled program's RotationPlan: rotations
  /// sharing a source are evaluated as one rotateHoisted batch (bit-identical
  /// to the serial path). Off reproduces the one-decomposition-per-rotation
  /// baseline for A/B measurement.
  CkksExecutor(const CompiledProgram &CP, std::shared_ptr<CkksWorkspace> WS,
               bool UseHoisting = true)
      : CP(CP), P(*CP.Prog), WS(std::move(WS)),
        ActiveEval(this->WS->Eval.get()), UseHoisting(UseHoisting) {}
  virtual ~CkksExecutor() = default;

  /// Encrypts the Cipher inputs (at each input node's scale, over the full
  /// data chain) and collects plain inputs.
  SealedInputs
  encryptInputs(const std::map<std::string, std::vector<double>> &Inputs);

  /// Runs the program; returns encrypted outputs by name. Everything the
  /// run computes, on this thread or on pool workers, is charged to stats().
  virtual std::map<std::string, Ciphertext> run(const SealedInputs &Inputs);

  /// Decrypts and decodes an output to vec_size values.
  std::vector<double> decryptOutput(const Ciphertext &Ct) const;

  /// Convenience: encrypt, run, decrypt in one call.
  std::map<std::string, std::vector<double>>
  runPlain(const std::map<std::string, std::vector<double>> &Inputs);

  /// The cost ledger of the most recent run.
  const ExecutionStats &stats() const { return Stats; }

protected:
  /// One runtime value: an owned ciphertext or a view of a plain vector.
  struct Value {
    std::optional<Ciphertext> Ct;
    std::shared_ptr<const std::vector<double>> Plain;
    bool isCipher() const { return Ct.has_value(); }
  };

  /// Computes node \p N given its parents' values in \p Values. Thread-safe
  /// across distinct nodes.
  void computeNode(const Node *N, std::vector<Value> &Values,
                   const SealedInputs &Inputs,
                   std::map<std::string, Ciphertext> &Outputs) const;

  /// Encodes a plain value for consumption by a cipher op at the given
  /// level and scale.
  Plaintext encodeOperand(const Node *PlainNode,
                          const std::vector<double> &V, size_t PrimeCount,
                          double Scale) const;

  const std::vector<double> &plainValueOf(const Node *N,
                                          const std::vector<Value> &Values,
                                          const SealedInputs &Inputs) const;

  uint64_t normalizedLeftSteps(const Node *N) const;

  /// Per-run state of one hoist batch. The first member to execute computes
  /// the whole batch under the group mutex (all members are ready the moment
  /// the shared source is, so in the parallel executors several may race
  /// here); the rest collect their precomputed ciphertexts.
  struct HoistGroupState {
    Mutex M;
    bool Done EVA_GUARDED_BY(M) = false;
    /// member node id -> rotated ct
    std::map<uint64_t, Ciphertext> Results EVA_GUARDED_BY(M);
  };

  /// Resets Stats, materializes the hoist state, and installs Stats as the
  /// calling thread's ledger until the returned scope ends; every run()
  /// implementation holds that scope for its whole body.
  LedgerScope beginRun();

  const CompiledProgram &CP;
  const Program &P;
  std::shared_ptr<CkksWorkspace> WS;
  /// The evaluator computeNode dispatches to: the workspace's shared serial
  /// evaluator by default; parallel executors point it at their own
  /// limb-parallel instance.
  const Evaluator *ActiveEval;
  bool UseHoisting = true;
  /// One entry per RotationPlan group, rebuilt by beginRun(); mutable
  /// because computeNode (const, called concurrently for distinct nodes)
  /// drains the per-group results.
  mutable std::vector<std::unique_ptr<HoistGroupState>> HoistState;
  /// Bytes/nodes currently parked in HoistGroupState::Results — rotated
  /// ciphertexts a batch produced that their member nodes have not yet
  /// collected. Folded into the PeakLiveBytes/PeakLiveNodes accounting so
  /// the memory-reuse stats stay honest under hoisting.
  mutable std::atomic<size_t> HoistStashBytes{0};
  mutable std::atomic<size_t> HoistStashNodes{0};
  ExecutionStats Stats;
  /// Leaf lock: serializes Output-node writes into the result map when the
  /// parallel executor retires several output nodes at once. The map itself
  /// is a computeNode parameter, so the guard is the lock contract on that
  /// one critical section rather than a GUARDED_BY on a member.
  mutable Mutex OutputMutex;
};

/// The paper's EVA executor: asynchronous DAG scheduling + memory reuse.
/// run()'s caller cooperates in the schedule, so NumThreads is the total
/// number of execution contexts (NumThreads == 1 runs everything on the
/// calling thread through the same scheduler).
class ParallelCkksExecutor : public CkksExecutor {
public:
  ParallelCkksExecutor(const CompiledProgram &CP,
                       std::shared_ptr<CkksWorkspace> WS, size_t NumThreads,
                       bool UseHoisting = true)
      : CkksExecutor(CP, std::move(WS), UseHoisting), Pool(NumThreads),
        LimbEval(this->WS->Context, &Pool) {
    ActiveEval = &LimbEval;
  }

  std::map<std::string, Ciphertext> run(const SealedInputs &Inputs) override;

private:
  ThreadPool Pool;
  Evaluator LimbEval;
};

/// The CHET-style executor: kernels in sequence, bulk-synchronous wavefront
/// parallelism within each kernel. The caller participates in each
/// wavefront's parallelFor, so NumThreads is again the total context count.
class KernelBulkCkksExecutor : public CkksExecutor {
public:
  KernelBulkCkksExecutor(const CompiledProgram &CP,
                         std::shared_ptr<CkksWorkspace> WS, size_t NumThreads,
                         bool UseHoisting = true)
      : CkksExecutor(CP, std::move(WS), UseHoisting), Pool(NumThreads),
        LimbEval(this->WS->Context, &Pool) {
    ActiveEval = &LimbEval;
  }

  std::map<std::string, Ciphertext> run(const SealedInputs &Inputs) override;

private:
  ThreadPool Pool;
  Evaluator LimbEval;
};

} // namespace eva

#endif // EVA_RUNTIME_CKKSEXECUTOR_H
