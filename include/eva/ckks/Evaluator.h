//===- eva/ckks/Evaluator.h - Homomorphic evaluation ------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Homomorphic operations of the RNS-CKKS scheme, one per EVA instruction
/// opcode (Table 2 of the paper): NEGATE, ADD, SUB, MULTIPLY (ciphertext and
/// plaintext variants), ROTATELEFT/ROTATERIGHT (via Galois automorphism plus
/// key switching), RELINEARIZE, MODSWITCH, and RESCALE. Operand restrictions
/// (equal coefficient moduli for binary ops, equal scales for additive ops,
/// two-polynomial inputs to ROTATE) are checked here; the EVA compiler
/// guarantees they hold for compiled programs, which is the paper's central
/// "no runtime exceptions" claim.
///
/// An Evaluator may optionally be given a ThreadPool, in which case the hot
/// paths (MULTIPLY, the key-switch core of RELINEARIZE and ROTATE, and the
/// rescaling mod-down) parallelize over independent RNS limbs — each prime
/// component's NTTs and pointwise arithmetic run as a separate loop chunk.
/// All limb work is exact modular integer arithmetic on disjoint
/// components, so results are bit-identical to the serial evaluator. This
/// intra-op parallelism composes with the executor's node-level DAG
/// scheduling: when the DAG is too narrow to occupy every worker, idle
/// workers pick up limb chunks of the ops in flight (Section 6.1's "as much
/// parallelism as the schedule exposes").
///
/// Every operation charges its invocation, its key-switch decompositions
/// and its modular multiplies to the calling thread's cost ledger
/// (CostLedger.h), so one evaluator can serve concurrent runs.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CKKS_EVALUATOR_H
#define EVA_CKKS_EVALUATOR_H

#include "eva/ckks/Ciphertext.h"
#include "eva/ckks/Context.h"
#include "eva/ckks/Keys.h"
#include "eva/ckks/Plaintext.h"

#include <array>
#include <functional>
#include <memory>
#include <vector>

namespace eva {

class ThreadPool;

class Evaluator {
public:
  /// \p Pool, when non-null, enables limb-level parallelism inside single
  /// operations (not owned; must outlive the evaluator). A null pool or a
  /// pool of size 1 runs every limb inline.
  explicit Evaluator(std::shared_ptr<const CkksContext> Ctx,
                     ThreadPool *Pool = nullptr)
      : Ctx(std::move(Ctx)), Pool(Pool) {}

  Ciphertext negate(const Ciphertext &A) const;
  Ciphertext add(const Ciphertext &A, const Ciphertext &B) const;
  Ciphertext sub(const Ciphertext &A, const Ciphertext &B) const;
  Ciphertext addPlain(const Ciphertext &A, const Plaintext &B) const;
  Ciphertext subPlain(const Ciphertext &A, const Plaintext &B) const;
  /// B - A (the EVA SUB instruction with a plaintext left operand).
  Ciphertext subFromPlain(const Plaintext &B, const Ciphertext &A) const;

  /// Ciphertext-ciphertext multiply; result has size(A)+size(B)-1
  /// polynomials and the product scale.
  Ciphertext multiply(const Ciphertext &A, const Ciphertext &B) const;
  Ciphertext multiplyPlain(const Ciphertext &A, const Plaintext &B) const;

  /// Reduces a 3-polynomial ciphertext back to 2 (Constraint 3).
  Ciphertext relinearize(const Ciphertext &A, const RelinKeys &Keys) const;

  /// Divides by (and drops) the last prime of the chain, rounding; the
  /// scale divides by the actual prime value (the paper's footnote 1).
  Ciphertext rescale(const Ciphertext &A) const;

  /// Drops the last prime without changing the scale.
  Ciphertext modSwitch(const Ciphertext &A) const;

  /// Rotates all N/2 slots left by \p Steps (in [1, N/2)). Requires the
  /// Galois key for 5^Steps and a relinearized (2-polynomial) \p A.
  Ciphertext rotateLeft(const Ciphertext &A, uint64_t Steps,
                        const GaloisKeys &Keys) const;

  /// Coefficient-domain key-switch decomposition digits: digit I is the
  /// inverse NTT of a polynomial's component I (a representative of it
  /// mod q_I), N words per data prime.
  using KeySwitchDigits = std::vector<std::vector<uint64_t>>;

  /// Hoisted rotation (Halevi–Shoup) is two halves. This one is shared by a
  /// batch: the key-switch decomposition of \p A's c1 component — the
  /// per-limb inverse NTTs a serial rotation runs on its rotated c1.
  /// Charged as one decomposition and one hoist batch. Requires a
  /// relinearized (2-polynomial) \p A.
  KeySwitchDigits decomposeForRotation(const Ciphertext &A) const;

  /// The per-member half: rotates \p A left by \p Steps (in [0, N/2))
  /// against \p Digits, which decomposeForRotation(A) returned. The digits
  /// are permuted in the coefficient domain, which yields exactly the
  /// inverse NTTs of the serial path's NTT-domain permuted c1, so the
  /// output is bit-identical to rotateLeft(A, Steps, Keys). A zero step
  /// returns a copy of \p A. Only reads \p Digits: members of one batch
  /// may run concurrently.
  Ciphertext rotateDecomposed(const Ciphertext &A,
                              const KeySwitchDigits &Digits, uint64_t Steps,
                              const GaloisKeys &Keys) const;

  /// One decomposeForRotation of \p A, then rotateDecomposed for each of
  /// \p Steps in order; duplicate steps each get their own output. Limb
  /// work runs on the evaluator's ThreadPool when one is attached.
  std::vector<Ciphertext> rotateHoisted(const Ciphertext &A,
                                        const std::vector<uint64_t> &Steps,
                                        const GaloisKeys &Keys) const;

private:
  /// The decomposition digits of \p Target. Counted as one decomposition.
  KeySwitchDigits keySwitchDecompose(const RnsPoly &Target) const;

  /// The inner-product half of key switching: extends each digit to every
  /// output prime (+ the special prime), accumulates against \p Key, and
  /// divides the special prime back out. \p Key needs at least as many
  /// digits as \p Digits (fatalError otherwise) and is read by its shape
  /// (keyLimbPrime). \p TargetNtt is the NTT-form
  /// polynomial \p Digits decompose; its limb I stands in for digit I
  /// under prime I, which saves one forward NTT per digit.
  std::array<RnsPoly, 2> keySwitchAccumulate(const KeySwitchDigits &Digits,
                                             const RnsPoly &TargetNtt,
                                             const KSwitchKey &Key) const;

  /// Fails unless \p A has exactly two polynomials: key switching a c1
  /// leaves any c2 behind, and the result would decrypt to garbage.
  void checkRotatable(const Ciphertext &A) const;

  /// Assembles the rotated ciphertext from the automorphed c0 and the
  /// key-switched (c0', c1') contribution — shared by the serial and the
  /// hoisted rotation paths so they stay bit-identical by construction.
  Ciphertext assembleRotation(RnsPoly C0, std::array<RnsPoly, 2> Ks,
                              double Scale) const;

  Ciphertext addSub(const Ciphertext &A, const Ciphertext &B,
                    bool Subtract) const;
  void checkBinaryOperands(const Ciphertext &A, const Ciphertext &B) const;
  void checkScaleMatch(double SA, double SB) const;

  /// Key-switches \p Target (NTT form over `count` data primes) to the
  /// secret key, returning the (c0, c1) contribution over the same primes.
  std::array<RnsPoly, 2> keySwitch(const RnsPoly &Target,
                                   const KSwitchKey &Key) const;

  /// Rounded division of NTT-form components by the prime at PrimeIdx.back()
  /// (dropped on return). PrimeIdx maps each component to its context prime.
  void divideRoundDropLast(std::vector<std::vector<uint64_t>> &Comps,
                           const std::vector<size_t> &PrimeIdx) const;

  /// Runs Fn(I) for I in [0, Count) — across the pool when limb parallelism
  /// is enabled, inline otherwise. Fn instances must touch disjoint limbs.
  void forEachLimb(size_t Count, const std::function<void(size_t)> &Fn) const;

  std::shared_ptr<const CkksContext> Ctx;
  ThreadPool *Pool = nullptr;
};

} // namespace eva

#endif // EVA_CKKS_EVALUATOR_H
