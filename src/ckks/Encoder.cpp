//===- Encoder.cpp - CKKS canonical-embedding encoder ---------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Encoder.h"

#include "eva/support/BitOps.h"

#include <cmath>
#include <string>

using namespace eva;

CkksEncoder::CkksEncoder(std::shared_ptr<const CkksContext> CtxIn)
    : Ctx(std::move(CtxIn)) {
  Slots = Ctx->slotCount();
  M = 2 * Ctx->polyDegree();
  RotGroup.resize(Slots);
  uint64_t FivePow = 1;
  for (size_t I = 0; I < Slots; ++I) {
    RotGroup[I] = FivePow;
    FivePow = (FivePow * 5) % M;
  }
  KsiPow.resize(M + 1);
  for (uint64_t J = 0; J <= M; ++J) {
    double Angle = 2.0 * M_PI * static_cast<double>(J) /
                   static_cast<double>(M);
    KsiPow[J] = std::complex<double>(std::cos(Angle), std::sin(Angle));
  }
}

static void arrayBitReverse(std::vector<std::complex<double>> &Vals) {
  size_t N = Vals.size();
  unsigned LogN = log2Exact(N);
  for (size_t I = 0; I < N; ++I) {
    size_t J = reverseBits(I, LogN);
    if (I < J)
      std::swap(Vals[I], Vals[J]);
  }
}

/// Inverse special FFT: slot values -> (real, imag) coefficient halves.
void CkksEncoder::embedInverse(std::vector<std::complex<double>> &Vals) const {
  size_t Size = Vals.size();
  for (size_t Len = Size; Len >= 1; Len >>= 1) {
    size_t LenH = Len >> 1;
    size_t LenQ = Len << 2;
    for (size_t I = 0; I < Size; I += Len) {
      for (size_t J = 0; J < LenH; ++J) {
        size_t Idx = (LenQ - (RotGroup[J] % LenQ)) * (M / LenQ);
        std::complex<double> U = Vals[I + J] + Vals[I + J + LenH];
        std::complex<double> V = Vals[I + J] - Vals[I + J + LenH];
        V *= KsiPow[Idx];
        Vals[I + J] = U;
        Vals[I + J + LenH] = V;
      }
    }
  }
  arrayBitReverse(Vals);
  for (std::complex<double> &V : Vals)
    V /= static_cast<double>(Size);
}

/// Forward special FFT: coefficient halves -> slot values.
void CkksEncoder::embedForward(std::vector<std::complex<double>> &Vals) const {
  size_t Size = Vals.size();
  arrayBitReverse(Vals);
  for (size_t Len = 2; Len <= Size; Len <<= 1) {
    size_t LenH = Len >> 1;
    size_t LenQ = Len << 2;
    for (size_t I = 0; I < Size; I += Len) {
      for (size_t J = 0; J < LenH; ++J) {
        size_t Idx = (RotGroup[J] % LenQ) * (M / LenQ);
        std::complex<double> U = Vals[I + J];
        std::complex<double> V = Vals[I + J + LenH] * KsiPow[Idx];
        Vals[I + J] = U + V;
        Vals[I + J + LenH] = U - V;
      }
    }
  }
}

/// Reduces round(R) modulo Q for possibly huge |R| (beyond int64 range the
/// 53-bit mantissa is split from the binary exponent).
static uint64_t reduceScaledDouble(double R, const Modulus &Q) {
  if (std::abs(R) < 9.0e18) { // fits in int64
    int64_t I = static_cast<int64_t>(std::llround(R));
    if (I >= 0)
      return Q.reduce(static_cast<uint64_t>(I));
    uint64_t Mag = Q.reduce(static_cast<uint64_t>(-I));
    return negateMod(Mag, Q);
  }
  int Exp = 0;
  double Mant = std::frexp(R, &Exp); // R = Mant * 2^Exp, |Mant| in [0.5, 1)
  int64_t M53 = static_cast<int64_t>(std::llround(std::ldexp(Mant, 53)));
  int Shift = Exp - 53;
  assert(Shift >= 0 && "unexpected exponent for large value");
  uint64_t Mag = Q.reduce(static_cast<uint64_t>(M53 < 0 ? -M53 : M53));
  uint64_t Pow = powMod(2, static_cast<uint64_t>(Shift), Q);
  uint64_t V = mulMod(Mag, Pow, Q);
  return M53 < 0 ? negateMod(V, Q) : V;
}

void CkksEncoder::coeffsToPlaintext(
    const std::vector<std::complex<double>> &Vals, double Scale,
    size_t PrimeCount, Plaintext &Out) const {
  uint64_t N = Ctx->polyDegree();
  size_t Nh = Slots;
  Out.Poly = RnsPoly(N, PrimeCount);
  Out.Scale = Scale;
  for (size_t P = 0; P < PrimeCount; ++P) {
    const Modulus &Q = Ctx->prime(P);
    std::vector<uint64_t> &C = Out.Poly.Comps[P];
    for (size_t I = 0; I < Nh; ++I) {
      C[I] = reduceScaledDouble(Vals[I].real() * Scale, Q);
      C[I + Nh] = reduceScaledDouble(Vals[I].imag() * Scale, Q);
    }
    Ctx->ntt(P).forward(C);
  }
}

void CkksEncoder::encode(std::span<const double> Values, double Scale,
                         size_t PrimeCount, Plaintext &Out) const {
  // fatalError, not assert: the raw API hands caller vectors straight
  // here, and in Release an empty one would divide by zero below and a
  // length that does not divide the slots would encode wrongly.
  if (PrimeCount < 1 || PrimeCount > Ctx->dataPrimeCount())
    fatalError("encode over " + std::to_string(PrimeCount) +
               " primes; the context has " +
               std::to_string(Ctx->dataPrimeCount()) + " data primes");
  if (Values.empty())
    fatalError("encode of an empty input");
  // The slot count is a power of two, so its divisors are too.
  if (Slots % Values.size() != 0)
    fatalError("encode of " + std::to_string(Values.size()) +
               " values: the length must be a power of two that divides "
               "the slot count " + std::to_string(Slots));
  std::vector<std::complex<double>> Vals(Slots);
  for (size_t I = 0; I < Slots; ++I)
    Vals[I] = std::complex<double>(Values[I % Values.size()], 0.0);
  embedInverse(Vals);
  coeffsToPlaintext(Vals, Scale, PrimeCount, Out);
}

void CkksEncoder::encodeScalar(double Value, double Scale, size_t PrimeCount,
                               Plaintext &Out) const {
  // A constant vector encodes as a constant polynomial; skip the FFT.
  uint64_t N = Ctx->polyDegree();
  Out.Poly = RnsPoly(N, PrimeCount);
  Out.Scale = Scale;
  for (size_t P = 0; P < PrimeCount; ++P) {
    const Modulus &Q = Ctx->prime(P);
    uint64_t C0 = reduceScaledDouble(Value * Scale, Q);
    // NTT of a constant polynomial is the constant in every position.
    std::fill(Out.Poly.Comps[P].begin(), Out.Poly.Comps[P].end(), C0);
  }
}

std::vector<std::complex<double>>
CkksEncoder::decodeComplex(const Plaintext &In) const {
  size_t PrimeCount = In.primeCount();
  assert(PrimeCount >= 1 && "empty plaintext");
  uint64_t N = Ctx->polyDegree();
  size_t Nh = Slots;

  // Leave NTT form (on copies).
  std::vector<std::vector<uint64_t>> Coeffs(PrimeCount);
  std::vector<const uint64_t *> Ptrs(PrimeCount);
  for (size_t P = 0; P < PrimeCount; ++P) {
    Coeffs[P] = In.Poly.Comps[P];
    Ctx->ntt(P).inverse(Coeffs[P]);
    Ptrs[P] = Coeffs[P].data();
  }

  const CrtComposer &Composer = Ctx->composer(PrimeCount);
  long double Scale = static_cast<long double>(In.Scale);
  std::vector<std::complex<double>> Vals(Nh);
  for (size_t I = 0; I < Nh; ++I) {
    long double Re = Composer.composeCentered(Ptrs.data(), I) / Scale;
    long double Im = Composer.composeCentered(Ptrs.data(), I + Nh) / Scale;
    Vals[I] = std::complex<double>(static_cast<double>(Re),
                                   static_cast<double>(Im));
  }
  (void)N;
  embedForward(Vals);
  return Vals;
}

std::vector<double> CkksEncoder::decode(const Plaintext &In) const {
  std::vector<std::complex<double>> Vals = decodeComplex(In);
  std::vector<double> Out(Vals.size());
  for (size_t I = 0; I < Vals.size(); ++I)
    Out[I] = Vals[I].real();
  return Out;
}
