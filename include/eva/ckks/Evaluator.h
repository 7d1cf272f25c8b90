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
#include <cassert>
#include <functional>
#include <memory>
#include <span>
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

  /// A hoist batch's key-switch digits, extended once for all its members.
  /// Digit I is limb I of c1 in coefficient form, lifted to its centered
  /// representative in (-q_I/2, q_I/2). limb(I, R) is that digit reduced
  /// modulo output prime R of the key switch (data prime R for R <
  /// primeCount(), the special prime for R == primeCount()) and
  /// forward-transformed there. Digit I's own-prime limb (R == I) is c1's
  /// limb I itself, so it is not stored: primeCount()^2 limbs of N words.
  class KeySwitchDigits {
  public:
    KeySwitchDigits() = default;
    KeySwitchDigits(size_t Count, uint64_t Degree)
        : Count(Count), Degree(Degree), Words(Count * Count * Degree) {}

    size_t primeCount() const { return Count; }
    size_t bytes() const { return Words.size() * sizeof(uint64_t); }
    std::span<uint64_t> limb(size_t I, size_t R) {
      return {Words.data() + offset(I, R), Degree};
    }
    std::span<const uint64_t> limb(size_t I, size_t R) const {
      return {Words.data() + offset(I, R), Degree};
    }

  private:
    size_t offset(size_t I, size_t R) const {
      assert(I < Count && R <= Count && R != I && "no such stored limb");
      return (I * Count + R - (R > I ? 1 : 0)) * Degree;
    }

    size_t Count = 0;
    uint64_t Degree = 0;
    std::vector<uint64_t> Words;
  };

  /// Hoisted rotation (Halevi–Shoup) is two halves. This one is shared by a
  /// batch: the key-switch decomposition of \p A's c1 component and its
  /// extension to every output prime, the L inverse and L^2 forward NTTs a
  /// serial rotation runs on its rotated c1. Charged as one decomposition
  /// and one hoist batch. Requires a relinearized (2-polynomial) \p A.
  KeySwitchDigits decomposeForRotation(const Ciphertext &A) const;

  /// The per-member half: rotates \p A left by \p Steps (in [0, N/2))
  /// against \p Digits, which decomposeForRotation(A) returned. Each stored
  /// limb goes through the NTT-domain Galois permutation, so a member runs
  /// only its mod-down's NTTs. Because the digits are centered, extending
  /// then permuting equals permuting then extending, and the output is
  /// bit-identical to rotateLeft(A, Steps, Keys). A zero step returns a
  /// copy of \p A. Only reads \p Digits: members of one batch may run
  /// concurrently.
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
  /// Coefficient-form digits: digit I is the inverse NTT of limb I, a
  /// residue in [0, q_I).
  using CoeffDigits = std::vector<std::vector<uint64_t>>;

  /// Fills \p Out with digit \p I's NTT-form limb under output prime \p R
  /// of a key switch (R != I).
  using DigitLimbFn =
      std::function<void(size_t I, size_t R, std::span<uint64_t> Out)>;

  /// The decomposition digits of \p Target. Counted as one decomposition.
  CoeffDigits keySwitchDecompose(const RnsPoly &Target) const;

  /// Writes \p Digit (coefficients mod the prime at \p DigitPrime) under
  /// the prime at \p PrimeIdx in NTT form: every coefficient is lifted to
  /// its centered representative in (-q/2, q/2), reduced, and the limb is
  /// forward-transformed. The one lift rule of key switching: a centered
  /// integer's negation reduces to the negation under every prime, so the
  /// extension commutes with a Galois automorphism's sign flips. Toward a
  /// prime above q/2 the lift is a masked add (simd::centeredShift).
  void extendDigit(std::span<const uint64_t> Digit, size_t DigitPrime,
                   size_t PrimeIdx, std::span<uint64_t> Out) const;

  /// The inner-product half of key switching: accumulates every digit
  /// against \p Key under every output prime (+ the special prime), and
  /// divides the special prime back out. \p Key needs at least as many
  /// digits as \p TargetNtt has primes (fatalError otherwise) and is read
  /// by its shape (keyLimbPrime). \p TargetNtt is the NTT-form polynomial
  /// the digits decompose; its limb I stands in for digit I under prime I.
  /// \p DigitLimb supplies every other limb: extended on the fly (serial
  /// key switch) or gathered from a hoist batch's stored digits.
  std::array<RnsPoly, 2>
  keySwitchAccumulate(const RnsPoly &TargetNtt, const KSwitchKey &Key,
                      const DigitLimbFn &DigitLimb) const;

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
