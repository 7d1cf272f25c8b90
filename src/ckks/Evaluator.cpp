//===- Evaluator.cpp - Homomorphic evaluation --------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Evaluator.h"

#include "eva/ckks/Galois.h"
#include "eva/math/Simd.h"
#include "eva/support/Arena.h"
#include "eva/support/CostLedger.h"
#include "eva/support/ThreadPool.h"

#include <cmath>
#include <string>

using namespace eva;

// Limb scratch comes from the thread-local free-list arena (Arena.h): limb
// bodies run on whichever pool thread claims the chunk, and after the first
// few operations every acquisition is a free-list hit, so the hot paths
// perform no heap allocation in steady state. Safe because a limb body never
// nests another parallel region on the same thread.

namespace {

/// X -> X^g on both polynomials of the NTT-form ciphertext \p A, every
/// limb gathered through \p Perm (galoisNttPermutation).
std::array<RnsPoly, 2> automorphNtt(const Ciphertext &A,
                                    std::span<const uint64_t> Perm) {
  uint64_t N = A.Polys[0].Degree;
  std::array<RnsPoly, 2> Out = {RnsPoly(N, A.primeCount()),
                                RnsPoly(N, A.primeCount())};
  for (size_t K = 0; K < 2; ++K)
    for (size_t I = 0; I < A.primeCount(); ++I)
      applyGaloisNtt(A.Polys[K].Comps[I], Perm, Out[K].Comps[I]);
  return Out;
}

} // namespace

void Evaluator::forEachLimb(size_t Count,
                            const std::function<void(size_t)> &Fn) const {
  // parallelFor itself degenerates to an inline loop for a size-1 pool.
  if (Pool) {
    Pool->parallelFor(Count, Fn);
    return;
  }
  for (size_t I = 0; I < Count; ++I)
    Fn(I);
}

void Evaluator::checkBinaryOperands(const Ciphertext &A,
                                    const Ciphertext &B) const {
  if (A.primeCount() != B.primeCount())
    fatalError("binary operation on ciphertexts at different levels (" +
               std::to_string(A.primeCount()) + " vs " +
               std::to_string(B.primeCount()) +
               " primes); the compiler must insert MODSWITCH/RESCALE");
}

void Evaluator::checkScaleMatch(double SA, double SB) const {
  double Ratio = SA / SB;
  if (Ratio < 1.0 - 1e-9 || Ratio > 1.0 + 1e-9)
    fatalError("additive operation on mismatched scales (" +
               std::to_string(SA) + " vs " + std::to_string(SB) +
               "); the compiler must match scales");
}

Ciphertext Evaluator::negate(const Ciphertext &A) const {
  charge(&ExecutionStats::Negates);
  Ciphertext Out = A;
  for (RnsPoly &P : Out.Polys)
    for (size_t C = 0; C < P.primeCount(); ++C)
      negatePolyComp(P.Comps[C], P.Comps[C], Ctx->prime(C));
  return Out;
}

Ciphertext Evaluator::addSub(const Ciphertext &A, const Ciphertext &B,
                             bool Subtract) const {
  charge(Subtract ? &ExecutionStats::Subs : &ExecutionStats::Adds);
  checkBinaryOperands(A, B);
  checkScaleMatch(A.Scale, B.Scale);
  const Ciphertext &Big = A.size() >= B.size() ? A : B;
  const Ciphertext &Small = A.size() >= B.size() ? B : A;
  Ciphertext Out = Big;
  if (Subtract && (&Big == &B)) {
    // Result must be A - B; we copied B, so negate then add A.
    for (RnsPoly &P : Out.Polys)
      for (size_t C = 0; C < P.primeCount(); ++C)
        negatePolyComp(P.Comps[C], P.Comps[C], Ctx->prime(C));
    for (size_t K = 0; K < A.size(); ++K)
      for (size_t C = 0; C < A.primeCount(); ++C)
        addPolyComp(Out.Polys[K].Comps[C], A.Polys[K].Comps[C],
                    Out.Polys[K].Comps[C], Ctx->prime(C));
    Out.Scale = A.Scale;
    return Out;
  }
  for (size_t K = 0; K < Small.size(); ++K) {
    for (size_t C = 0; C < Small.primeCount(); ++C) {
      const Modulus &Q = Ctx->prime(C);
      if (Subtract)
        subPolyComp(Out.Polys[K].Comps[C], Small.Polys[K].Comps[C],
                    Out.Polys[K].Comps[C], Q);
      else
        addPolyComp(Out.Polys[K].Comps[C], Small.Polys[K].Comps[C],
                    Out.Polys[K].Comps[C], Q);
    }
  }
  Out.Scale = A.Scale;
  return Out;
}

Ciphertext Evaluator::add(const Ciphertext &A, const Ciphertext &B) const {
  return addSub(A, B, /*Subtract=*/false);
}

Ciphertext Evaluator::sub(const Ciphertext &A, const Ciphertext &B) const {
  return addSub(A, B, /*Subtract=*/true);
}

Ciphertext Evaluator::addPlain(const Ciphertext &A, const Plaintext &B) const {
  charge(&ExecutionStats::Adds);
  assert(A.primeCount() == B.primeCount() && "plaintext level mismatch");
  checkScaleMatch(A.Scale, B.Scale);
  Ciphertext Out = A;
  for (size_t C = 0; C < A.primeCount(); ++C)
    addPolyComp(Out.Polys[0].Comps[C], B.Poly.Comps[C], Out.Polys[0].Comps[C],
                Ctx->prime(C));
  return Out;
}

Ciphertext Evaluator::subPlain(const Ciphertext &A, const Plaintext &B) const {
  charge(&ExecutionStats::Subs);
  assert(A.primeCount() == B.primeCount() && "plaintext level mismatch");
  checkScaleMatch(A.Scale, B.Scale);
  Ciphertext Out = A;
  for (size_t C = 0; C < A.primeCount(); ++C)
    subPolyComp(Out.Polys[0].Comps[C], B.Poly.Comps[C], Out.Polys[0].Comps[C],
                Ctx->prime(C));
  return Out;
}

Ciphertext Evaluator::subFromPlain(const Plaintext &B,
                                   const Ciphertext &A) const {
  Ciphertext Out = negate(A);
  return addPlain(Out, B);
}

Ciphertext Evaluator::multiply(const Ciphertext &A,
                               const Ciphertext &B) const {
  checkBinaryOperands(A, B);
  size_t K = A.size(), L = B.size();
  size_t Count = A.primeCount();
  uint64_t N = Ctx->polyDegree();
  Ciphertext Out;
  Out.Scale = A.Scale * B.Scale;
  Out.Polys.assign(K + L - 1, RnsPoly(N, Count));
  // Limbs are independent: each prime component's convolution can run on a
  // different worker. The scratch vector lives per limb for that reason.
  forEachLimb(Count, [&](size_t C) {
    const Modulus &Q = Ctx->prime(C);
    LimbScratch Tmp = acquireLimbScratch(N);
    for (size_t I = 0; I < K; ++I) {
      for (size_t J = 0; J < L; ++J) {
        mulPolyComp(A.Polys[I].Comps[C], B.Polys[J].Comps[C], Tmp.span(), Q);
        addPolyComp(Out.Polys[I + J].Comps[C], Tmp.span(),
                    Out.Polys[I + J].Comps[C], Q);
      }
    }
  });
  charge(&ExecutionStats::Multiplies);
  return Out;
}

Ciphertext Evaluator::multiplyPlain(const Ciphertext &A,
                                    const Plaintext &B) const {
  charge(&ExecutionStats::PlainMultiplies);
  assert(A.primeCount() == B.primeCount() && "plaintext level mismatch");
  Ciphertext Out = A;
  Out.Scale = A.Scale * B.Scale;
  for (RnsPoly &P : Out.Polys)
    for (size_t C = 0; C < P.primeCount(); ++C)
      mulPolyComp(P.Comps[C], B.Poly.Comps[C], P.Comps[C], Ctx->prime(C));
  return Out;
}

Evaluator::CoeffDigits
Evaluator::keySwitchDecompose(const RnsPoly &Target) const {
  size_t Count = Target.primeCount();
  // Decompose: coefficient-domain copy of each component. One inverse NTT
  // per limb, each independent. This is the shareable half of a key switch:
  // the digits depend only on the input polynomial, not on the key, so a
  // batch of rotations of one ciphertext can reuse them (hoisting).
  // evalint: allow(heap-in-hot-path): the digit vector is the function's
  // result and outlives the call (the accumulation or a hoist batch's
  // extension reads it), so it cannot live in the per-call LimbScratch
  // arena. One allocation per key switch, not per coefficient.
  CoeffDigits TCoeff(Count);
  forEachLimb(Count, [&](size_t I) {
    TCoeff[I] = Target.Comps[I];
    Ctx->ntt(I).inverse(TCoeff[I]);
  });
  charge(&ExecutionStats::KeySwitchDecompositions);
  return TCoeff;
}

void Evaluator::extendDigit(std::span<const uint64_t> Digit,
                            size_t DigitPrime, size_t PrimeIdx,
                            std::span<uint64_t> Out) const {
  assert(Digit.size() == Out.size() && DigitPrime != PrimeIdx);
  uint64_t Qi = Ctx->prime(DigitPrime).value();
  const Modulus &Qr = Ctx->prime(PrimeIdx);
  uint64_t Half = Qi >> 1;
  // V > q_i/2 stands for V - q_i. Below 2 q_r no reduction is needed: a V
  // up to q_i/2 is below q_r, and V - q_i + q_r lies in [0, q_r).
  if (Qi < 2 * Qr.value()) {
    simd::centeredShift(Digit.data(), Out.data(), Out.size(), Half,
                        Qr.value() - Qi);
  } else {
    // Subtract q_i mod q_r from V mod q_r, with masks instead of branches,
    // since the sign of a digit is a coin flip.
    uint64_t QiModQr = Qr.reduce(Qi);
    for (size_t X = 0, E = Digit.size(); X < E; ++X) {
      uint64_t V = Digit[X];
      uint64_t R = Qr.reduce(V);
      uint64_t Sub = QiModQr & -static_cast<uint64_t>(V > Half);
      Out[X] = R - Sub + (Qr.value() & -static_cast<uint64_t>(R < Sub));
    }
  }
  Ctx->ntt(PrimeIdx).forward(Out);
}

std::array<RnsPoly, 2>
Evaluator::keySwitchAccumulate(const RnsPoly &TargetNtt, const KSwitchKey &Key,
                               const DigitLimbFn &DigitLimb) const {
  size_t Count = TargetNtt.primeCount();
  size_t SpecialIdx = Ctx->specialPrimeIndex();
  uint64_t N = Ctx->polyDegree();
  // fatalError, not assert: a key with fewer digits than the ciphertext
  // has primes would be read past its end. Sessions check every key's
  // shape when they open (CkksWorkspace::createServer), so client bytes
  // never get here.
  size_t Pairs = Key.Keys.size();
  if (Count > Pairs)
    fatalError("key switch of a " + std::to_string(Count) +
               "-prime ciphertext against a key of " + std::to_string(Pairs) +
               " digits");

  // Output prime indices: current data primes plus the special prime, the
  // shape of a key with Count pairs. The key's own components follow its
  // shape (keyLimbPrime): data prime R is its component R, and the special
  // prime its last.
  // evalint: allow(heap-in-hot-path): one index vector of size limb-count
  // (tens of entries) and the returned accumulator polynomials; the O(N)
  // inner loops below run entirely on LimbScratch arena buffers.
  std::vector<size_t> OutIdx(Count + 1);
  for (size_t R = 0; R <= Count; ++R)
    OutIdx[R] = keyLimbPrime(Count, R, SpecialIdx);

  // The inner-product accumulation is independent per output prime: every R
  // reads every digit but writes only Acc[*].Comps[R], with its own
  // scratch buffers.
  std::array<RnsPoly, 2> Acc = {RnsPoly(N, Count + 1), RnsPoly(N, Count + 1)};
  forEachLimb(OutIdx.size(), [&](size_t R) {
    size_t KeyLimb = R < Count ? R : Pairs;
    assert(keyLimbPrime(Pairs, KeyLimb, SpecialIdx) == OutIdx[R]);
    const Modulus &Qr = Ctx->prime(OutIdx[R]);
    LimbScratch Tmp = acquireLimbScratch(N);
    // 128-bit accumulators split into lo/hi word arrays so the fused
    // multiply-accumulate kernel (scalar or AVX2; identical sums mod 2^128)
    // can run over plain uint64_t lanes.
    LimbScratch Lo0 = acquireLimbScratchZeroed(N);
    LimbScratch Hi0 = acquireLimbScratchZeroed(N);
    LimbScratch Lo1 = acquireLimbScratchZeroed(N);
    LimbScratch Hi1 = acquireLimbScratchZeroed(N);
    for (size_t I = 0; I < Count; ++I) {
      // Under its own prime a digit's forward NTT is the target limb the
      // digit came from, so that limb is read in place.
      const uint64_t *Digit = TargetNtt.Comps[I].data();
      if (R != I) {
        DigitLimb(I, R, Tmp.span());
        Digit = Tmp.data();
      }
      const std::vector<uint64_t> &K0 = Key.Keys[I][0].Comps[KeyLimb];
      const std::vector<uint64_t> &K1 = Key.Keys[I][1].Comps[KeyLimb];
      simd::fusedMulAcc128(Digit, K0.data(), K1.data(), Lo0.data(),
                           Hi0.data(), Lo1.data(), Hi1.data(), N);
      charge(&ExecutionStats::MulMods, 2 * N);
    }
    for (uint64_t X = 0; X < N; ++X) {
      Acc[0].Comps[R][X] =
          Qr.reduce128((Uint128(Hi0[X]) << 64) | Lo0[X]);
      Acc[1].Comps[R][X] =
          Qr.reduce128((Uint128(Hi1[X]) << 64) | Lo1[X]);
    }
    charge(&ExecutionStats::MulMods, 2 * N);
  });

  // Divide by the special prime (rounding) to return to the data chain.
  divideRoundDropLast(Acc[0].Comps, OutIdx);
  divideRoundDropLast(Acc[1].Comps, OutIdx);
  return Acc;
}

std::array<RnsPoly, 2> Evaluator::keySwitch(const RnsPoly &Target,
                                            const KSwitchKey &Key) const {
  // Each digit is extended on the fly into the accumulation's scratch, so a
  // serial key switch holds no more than its coefficient-form digits.
  CoeffDigits Digits = keySwitchDecompose(Target);
  size_t Count = Target.primeCount();
  size_t SpecialIdx = Ctx->specialPrimeIndex();
  return keySwitchAccumulate(
      Target, Key, [&](size_t I, size_t R, std::span<uint64_t> Out) {
        extendDigit(Digits[I], I, keyLimbPrime(Count, R, SpecialIdx), Out);
      });
}

void Evaluator::divideRoundDropLast(
    std::vector<std::vector<uint64_t>> &Comps,
    const std::vector<size_t> &PrimeIdx) const {
  size_t K = PrimeIdx.size();
  assert(Comps.size() == K && K >= 2 && "component/prime mismatch");
  size_t DivIdx = PrimeIdx[K - 1];
  const Modulus &Qd = Ctx->prime(DivIdx);
  uint64_t Half = Qd.value() >> 1;

  std::vector<uint64_t> Last = std::move(Comps[K - 1]);
  Ctx->ntt(DivIdx).inverse(Last);
  for (uint64_t &V : Last)
    V = addMod(V, Half, Qd);

  uint64_t N = Ctx->polyDegree();
  // Each surviving limb reads the shared coefficient-form Last and rewrites
  // only its own component — independent work per target prime.
  forEachLimb(K - 1, [&](size_t T) {
    size_t TgtIdx = PrimeIdx[T];
    const Modulus &Qt = Ctx->prime(TgtIdx);
    uint64_t HalfMod = Qt.reduce(Half);
    LimbScratch Tmp = acquireLimbScratch(N);
    reducePolyComp(Last, Tmp.span(), Qt);
    // Remove the rounding offset in coefficient form, then transform.
    for (uint64_t &V : Tmp.span())
      V = subMod(V, HalfMod, Qt);
    Ctx->ntt(TgtIdx).forward(Tmp.span());
    const ShoupMul &Inv = Ctx->inversePrime(DivIdx, TgtIdx);
    std::vector<uint64_t> &C = Comps[T];
    for (uint64_t X = 0; X < N; ++X)
      C[X] = mulModShoup(subMod(C[X], Tmp[X], Qt), Inv, Qt);
    charge(&ExecutionStats::MulMods, N);
  });
  Comps.pop_back();
}

Ciphertext Evaluator::relinearize(const Ciphertext &A,
                                  const RelinKeys &Keys) const {
  if (A.size() == 2)
    return A;
  if (A.size() != 3)
    fatalError("relinearization supports exactly 3-polynomial ciphertexts "
               "(Constraint 3 guarantees at most one unrelinearized "
               "multiply)");
  if (Keys.empty())
    fatalError("relinearization keys not generated");
  std::array<RnsPoly, 2> Ks = keySwitch(A.Polys[2], Keys.Key);
  charge(&ExecutionStats::Relinearizations);
  Ciphertext Out;
  Out.Scale = A.Scale;
  Out.Polys = {A.Polys[0], A.Polys[1]};
  for (size_t C = 0; C < Out.primeCount(); ++C) {
    const Modulus &Q = Ctx->prime(C);
    addPolyComp(Out.Polys[0].Comps[C], Ks[0].Comps[C], Out.Polys[0].Comps[C],
                Q);
    addPolyComp(Out.Polys[1].Comps[C], Ks[1].Comps[C], Out.Polys[1].Comps[C],
                Q);
  }
  return Out;
}

Ciphertext Evaluator::rescale(const Ciphertext &A) const {
  if (A.primeCount() < 2)
    fatalError("rescale with no prime left to drop: the modulus chain is "
               "exhausted");
  charge(&ExecutionStats::Rescales);
  size_t Count = A.primeCount();
  std::vector<size_t> Idx(Count);
  for (size_t I = 0; I < Count; ++I)
    Idx[I] = I;
  Ciphertext Out = A;
  for (RnsPoly &P : Out.Polys) {
    divideRoundDropLast(P.Comps, Idx);
  }
  Out.Scale = A.Scale / static_cast<double>(Ctx->prime(Count - 1).value());
  return Out;
}

Ciphertext Evaluator::modSwitch(const Ciphertext &A) const {
  if (A.primeCount() < 2)
    fatalError("modswitch with no prime left to drop");
  charge(&ExecutionStats::ModSwitches);
  Ciphertext Out = A;
  for (RnsPoly &P : Out.Polys)
    P.dropLastComp();
  return Out;
}

Ciphertext Evaluator::assembleRotation(RnsPoly C0, std::array<RnsPoly, 2> Ks,
                                       double Scale) const {
  Ciphertext Out;
  Out.Scale = Scale;
  Out.Polys = {std::move(C0), std::move(Ks[1])};
  for (size_t C = 0; C < Out.primeCount(); ++C)
    addPolyComp(Out.Polys[0].Comps[C], Ks[0].Comps[C], Out.Polys[0].Comps[C],
                Ctx->prime(C));
  return Out;
}

void Evaluator::checkRotatable(const Ciphertext &A) const {
  if (A.size() != 2)
    fatalError("rotation of a " + std::to_string(A.size()) +
               "-polynomial ciphertext: rotation key-switches c1 only, so "
               "the input must be relinearized first");
}

Ciphertext Evaluator::rotateLeft(const Ciphertext &A, uint64_t Steps,
                                 const GaloisKeys &Keys) const {
  checkRotatable(A);
  assert(Steps > 0 && Steps < Ctx->slotCount() && "steps out of range");
  uint64_t G = galoisEltFromStep(Steps, Ctx->polyDegree());
  if (!Keys.has(G))
    fatalError("missing Galois key for rotation by " + std::to_string(Steps) +
               " (the compiler's rotation-selection pass must request it)");

  LimbScratch Perm = acquireLimbScratch(Ctx->polyDegree());
  galoisNttPermutation(G, Ctx->polyDegree(), Perm.span());
  std::array<RnsPoly, 2> Rotated = automorphNtt(A, Perm.span());
  std::array<RnsPoly, 2> Ks = keySwitch(Rotated[1], Keys.at(G));
  charge(&ExecutionStats::Rotations);
  return assembleRotation(std::move(Rotated[0]), std::move(Ks), A.Scale);
}

Evaluator::KeySwitchDigits
Evaluator::decomposeForRotation(const Ciphertext &A) const {
  checkRotatable(A);
  // The serial path's digit I for rotation g is invNTT(galois_g(c1)_I), the
  // coefficient permutation of this digit. Its centered lift commutes with
  // that permutation's sign flips under every prime, so each extended limb
  // here, gathered through g's NTT-domain table (rotateDecomposed), is bit
  // for bit the limb the serial path extends.
  const RnsPoly &C1 = A.Polys[1];
  size_t Count = C1.primeCount();
  size_t SpecialIdx = Ctx->specialPrimeIndex();
  CoeffDigits Coeff = keySwitchDecompose(C1);
  KeySwitchDigits Digits(Count, Ctx->polyDegree());
  // Every (digit, output prime) pair is one lift and one NTT, independent.
  forEachLimb(Count * Count, [&](size_t K) {
    size_t I = K / Count;
    size_t R = K % Count;
    R += R >= I ? 1 : 0; // skip the own-prime limb
    extendDigit(Coeff[I], I, keyLimbPrime(Count, R, SpecialIdx),
                Digits.limb(I, R));
  });
  charge(&ExecutionStats::HoistBatches);
  return Digits;
}

Ciphertext Evaluator::rotateDecomposed(const Ciphertext &A,
                                       const KeySwitchDigits &Digits,
                                       uint64_t Steps,
                                       const GaloisKeys &Keys) const {
  checkRotatable(A);
  if (Steps == 0) // identity rotation: the compiler normalizes these away,
    return A;     // but a caller-supplied batch may still contain one
  if (Steps >= Ctx->slotCount())
    fatalError("hoisted rotation step " + std::to_string(Steps) +
               " out of range [0, " + std::to_string(Ctx->slotCount()) + ")");
  size_t Count = A.primeCount();
  if (Digits.primeCount() != Count)
    fatalError("hoisted rotation of a " + std::to_string(Count) +
               "-prime ciphertext against digits of " +
               std::to_string(Digits.primeCount()) +
               " primes: they were not decomposed from it");
  uint64_t G = galoisEltFromStep(Steps, Ctx->polyDegree());
  if (!Keys.has(G))
    fatalError("missing Galois key for hoisted rotation by " +
               std::to_string(Steps));

  // One table permutes c0, c1 (whose limb I is digit I's own-prime limb)
  // and every stored digit limb, each into this member's own scratch.
  LimbScratch Perm = acquireLimbScratch(Ctx->polyDegree());
  galoisNttPermutation(G, Ctx->polyDegree(), Perm.span());
  std::array<RnsPoly, 2> Rotated = automorphNtt(A, Perm.span());
  std::array<RnsPoly, 2> Ks = keySwitchAccumulate(
      Rotated[1], Keys.at(G), [&](size_t I, size_t R, std::span<uint64_t> Out) {
        applyGaloisNtt(Digits.limb(I, R), Perm.span(), Out);
      });
  charge(&ExecutionStats::Rotations);
  charge(&ExecutionStats::HoistedRotations);
  return assembleRotation(std::move(Rotated[0]), std::move(Ks), A.Scale);
}

std::vector<Ciphertext>
Evaluator::rotateHoisted(const Ciphertext &A,
                         const std::vector<uint64_t> &Steps,
                         const GaloisKeys &Keys) const {
  std::vector<Ciphertext> Out;
  if (Steps.empty())
    return Out;
  KeySwitchDigits Digits = decomposeForRotation(A);
  Out.reserve(Steps.size());
  for (uint64_t S : Steps)
    Out.push_back(rotateDecomposed(A, Digits, S, Keys));
  return Out;
}
