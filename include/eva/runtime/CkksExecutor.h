//===- eva/runtime/CkksExecutor.h - Encrypted execution ---------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs compiled EVA programs against the CKKS backend. One executor runs
/// either of the paper's two schedules:
///
///  * the EVA schedule (Section 6.1): asynchronous DAG scheduling with
///    dependency-counting readiness — a node is submitted to the pool the
///    moment its last parent finishes;
///  * the CHET-style baseline (Section 8.2): frontend-tagged kernels in
///    sequence, bulk-synchronous wavefronts with barriers inside each (the
///    paper's "static, bulk-synchronous schedule limits the available
///    parallelism").
///
/// Both call one per-node step, which computes the node, tallies the live
/// ciphertext bytes and retires each parent whose last use just ran
/// (Section 6.1's memory reuse), so both report the same memory statistics.
///
/// The executor owns a ThreadPool of Threads execution contexts and a
/// limb-parallel Evaluator over it. The thread that calls run()
/// participates in the schedule instead of sleeping, and ThreadPool(1)
/// starts no thread: the DAG schedule at one thread is the serial
/// executor. When the DAG (or a kernel wavefront) is narrower than the
/// pool, idle workers pick up per-prime limb chunks of the CKKS ops in
/// flight, so the two levels of parallelism compose.
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

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace eva {

/// The "encryption context" of Table 7: parameters, keys, and the
/// encoder/encryptor/decryptor stack for one compiled program. Executors
/// bring their own evaluator.
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
};

/// Named runtime inputs: Cipher inputs are encrypted; Vector/Scalar inputs
/// stay plain.
struct SealedInputs {
  std::map<std::string, Ciphertext> Cipher;
  std::map<std::string, std::vector<double>> Plain;
};

/// Which schedule a CkksExecutor runs.
enum class LocalStyle {
  Serial,      ///< The DAG schedule on one thread, whatever Threads says.
  ParallelDag, ///< The paper's EVA executor: the asynchronous DAG schedule.
  KernelBulk,  ///< The CHET-style baseline: kernel wavefronts with barriers.
};

/// How a CkksExecutor runs: its thread count, schedule and hoisting.
struct ExecutorOptions {
  /// Total execution contexts, the calling thread included (0 means 1).
  size_t Threads = 1;
  LocalStyle Style = LocalStyle::ParallelDag;
  /// Consume the compiled RotationPlan: rotations sharing a source are
  /// evaluated as one rotateHoisted batch (bit-identical to separate
  /// rotations). Off reproduces the one-decomposition-per-rotation
  /// baseline for A/B measurement.
  bool Hoisting = true;
};

class CkksExecutor {
public:
  CkksExecutor(const CompiledProgram &CP, std::shared_ptr<CkksWorkspace> WS,
               const ExecutorOptions &Opts = {});

  /// Encrypts the Cipher inputs (at each input node's scale, over the full
  /// data chain) and collects plain inputs.
  SealedInputs
  encryptInputs(const std::map<std::string, std::vector<double>> &Inputs);

  /// Runs the program; returns encrypted outputs by name. Everything the
  /// run computes, on this thread or on pool workers, is charged to stats().
  std::map<std::string, Ciphertext> run(const SealedInputs &Inputs);

  /// Decrypts and decodes an output to vec_size values.
  std::vector<double> decryptOutput(const Ciphertext &Ct) const;

  /// Convenience: encrypt, run, decrypt in one call.
  std::map<std::string, std::vector<double>>
  runPlain(const std::map<std::string, std::vector<double>> &Inputs);

  /// The cost ledger of the most recent run.
  const ExecutionStats &stats() const { return Stats; }

private:
  /// The order, values, pending-use counts, outputs, hoist batches and
  /// live-memory tallies of one run (CkksExecutor.cpp).
  struct RunState;

  /// The DAG schedule: a node is submitted once its last parent finishes.
  void runDag(RunState &S);
  /// The kernel-bulk schedule: kernels in sequence, wavefronts inside.
  void runKernelBulk(RunState &S);

  /// The per-node step both schedules call: computes \p N, tallies live
  /// bytes (hoist stash included) and retires the parents whose last use
  /// just ran. Thread-safe across distinct nodes.
  void step(const Node *N, RunState &S) const;

  /// Computes \p N from its parents' values in \p S.
  void computeNode(const Node *N, RunState &S) const;

  /// Encodes a plain value for consumption by a cipher op at the given
  /// level and scale.
  Plaintext encodeOperand(const Node *PlainNode,
                          const std::vector<double> &V, size_t PrimeCount,
                          double Scale) const;

  uint64_t normalizedLeftSteps(const Node *N) const;

  const CompiledProgram &CP;
  const Program &P;
  std::shared_ptr<CkksWorkspace> WS;
  LocalStyle Style;
  bool UseHoisting;
  ThreadPool Pool;
  /// Limb-parallel over Pool; declared after it, so destroyed first.
  Evaluator Eval;
  ExecutionStats Stats;
  /// Leaf lock: serializes Output-node writes into the run's result map
  /// when several output nodes execute at once. The map lives in RunState,
  /// so the guard is the lock contract on that one critical section rather
  /// than a GUARDED_BY on a member.
  mutable Mutex OutputMutex;
};

} // namespace eva

#endif // EVA_RUNTIME_CKKSEXECUTOR_H
