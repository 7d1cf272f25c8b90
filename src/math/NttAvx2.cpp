//===- NttAvx2.cpp - AVX2 Harvey lazy-reduction modular kernels -----------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// The vector half of the runtime SIMD dispatch (eva/math/Simd.h): negacyclic
// NTT butterflies with Harvey/Shoup lazy reduction over 4x64-bit AVX2 lanes,
// and the fused dual multiply-accumulate of the key-switch inner product.
//
// Lazy reduction (Harvey, "Faster arithmetic for number-theoretic
// transforms"): butterfly values ride in [0, 4q) — one conditional
// subtraction of 2q per butterfly instead of the full addMod/subMod/reduce
// choreography — and are reduced to the canonical [0, q) representative only
// in a final pass. Every intermediate stays below 2^62 (q < 2^60), so signed
// 64-bit vector compares are exact and nothing overflows. Outputs are
// therefore BIT-IDENTICAL to the scalar mulModShoup oracle in NTT.cpp; the
// differential tests assert byte equality.
//
// AVX2 has no 64x64 multiply, so the Shoup products are assembled from
// 32x32 partial products (_mm256_mul_epu32) — 4 multiplies for a high word,
// 3 for a low word. The butterflies with stride T < 4 (the last two forward
// stages, the first two inverse stages) are vectorized across root groups
// via 128-bit-lane permutes instead of falling back to scalar, so the whole
// transform runs vectorized.
//
// This file is compiled with -mavx2 (EVA_HAVE_AVX2); every entry point has a
// scalar-visible stub returning false when the toolchain or target cannot
// build AVX2, and callers fall back to the oracle.
//
//===----------------------------------------------------------------------===//

#include "eva/math/Simd.h"

#if defined(EVA_HAVE_AVX2)

#include <immintrin.h>

using namespace eva;

namespace {

inline __m256i loadu(const uint64_t *P) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(P));
}

inline void storeu(uint64_t *P, __m256i V) {
  _mm256_storeu_si256(reinterpret_cast<__m256i *>(P), V);
}

/// High 64 bits of the 64x64 products, per lane.
inline __m256i mulHi64(__m256i A, __m256i B) {
  const __m256i MaskLo = _mm256_set1_epi64x(0xFFFFFFFFll);
  __m256i AHi = _mm256_srli_epi64(A, 32);
  __m256i BHi = _mm256_srli_epi64(B, 32);
  __m256i LoLo = _mm256_mul_epu32(A, B);
  __m256i HiLo = _mm256_mul_epu32(AHi, B);
  __m256i LoHi = _mm256_mul_epu32(A, BHi);
  __m256i HiHi = _mm256_mul_epu32(AHi, BHi);
  // mid = (lolo >> 32) + lo32(hilo) + lo32(lohi): at most 3 * (2^32 - 1),
  // fits well inside 64 bits, and its high word is the carry into hi.
  __m256i Mid = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_srli_epi64(LoLo, 32),
                       _mm256_and_si256(HiLo, MaskLo)),
      _mm256_and_si256(LoHi, MaskLo));
  return _mm256_add_epi64(
      _mm256_add_epi64(HiHi, _mm256_srli_epi64(Mid, 32)),
      _mm256_add_epi64(_mm256_srli_epi64(HiLo, 32),
                       _mm256_srli_epi64(LoHi, 32)));
}

/// Low 64 bits of the 64x64 products, per lane (mod-2^64 arithmetic).
inline __m256i mulLo64(__m256i A, __m256i B) {
  __m256i AHi = _mm256_srli_epi64(A, 32);
  __m256i BHi = _mm256_srli_epi64(B, 32);
  __m256i Cross =
      _mm256_add_epi64(_mm256_mul_epu32(AHi, B), _mm256_mul_epu32(A, BHi));
  return _mm256_add_epi64(_mm256_mul_epu32(A, B),
                          _mm256_slli_epi64(Cross, 32));
}

/// Lazy Shoup product X * WOp mod q with result in [0, 2q):
/// X * WOp - mulhi(X, WQuot) * q, all mod 2^64.
inline __m256i shoupMulLazy(__m256i X, __m256i WOp, __m256i WQuot,
                            __m256i Q) {
  __m256i Hi = mulHi64(X, WQuot);
  return _mm256_sub_epi64(mulLo64(X, WOp), mulLo64(Hi, Q));
}

/// V - Bound where V >= Bound, per lane. All values < 2^62, so the signed
/// compare is exact.
inline __m256i condSub(__m256i V, __m256i Bound) {
  __m256i Lt = _mm256_cmpgt_epi64(Bound, V);
  return _mm256_sub_epi64(V, _mm256_andnot_si256(Lt, Bound));
}

/// Broadcasts the root pair {W[0], W[0], W[1], W[1]} for the T == 2 stage.
inline __m256i loadRootPair(const uint64_t *W) {
  __m128i Two = _mm_loadu_si128(reinterpret_cast<const __m128i *>(W));
  return _mm256_permute4x64_epi64(_mm256_castsi128_si256(Two), 0x50);
}

/// Loads 4 roots reordered {W[0], W[2], W[1], W[3]} to match the
/// unpacklo/unpackhi lane order of the T == 1 stage.
inline __m256i loadRootQuad(const uint64_t *W) {
  return _mm256_permute4x64_epi64(loadu(W), 0xD8);
}

} // namespace

bool eva::avx2KernelsCompiled() { return true; }

bool eva::simd::nttForwardAvx2(uint64_t *X, uint64_t N,
                               const uint64_t *RootOp,
                               const uint64_t *RootQuot, uint64_t Q) {
  if (N < 16)
    return false;
  const __m256i Qv = _mm256_set1_epi64x(static_cast<long long>(Q));
  const __m256i TwoQ = _mm256_set1_epi64x(static_cast<long long>(2 * Q));
  uint64_t T = N;
  for (uint64_t M = 1; M < N; M <<= 1) {
    T >>= 1;
    if (T >= 4) {
      for (uint64_t I = 0; I < M; ++I) {
        uint64_t J1 = 2 * I * T;
        const __m256i WOp =
            _mm256_set1_epi64x(static_cast<long long>(RootOp[M + I]));
        const __m256i WQuot =
            _mm256_set1_epi64x(static_cast<long long>(RootQuot[M + I]));
        for (uint64_t J = J1; J < J1 + T; J += 4) {
          __m256i Xv = condSub(loadu(X + J), TwoQ);
          __m256i Tv = shoupMulLazy(loadu(X + J + T), WOp, WQuot, Qv);
          storeu(X + J, _mm256_add_epi64(Xv, Tv));
          storeu(X + J + T,
                 _mm256_add_epi64(_mm256_sub_epi64(Xv, Tv), TwoQ));
        }
      }
    } else if (T == 2) {
      // Two root groups per iteration over 8 consecutive values:
      // {e0 e1 | e2 e3} {e4 e5 | e6 e7} -> X = {e0 e1 e4 e5}, Y = rest.
      for (uint64_t I = 0; I < M; I += 2) {
        uint64_t J1 = 4 * I;
        __m256i V0 = loadu(X + J1);
        __m256i V1 = loadu(X + J1 + 4);
        __m256i Xv = condSub(_mm256_permute2x128_si256(V0, V1, 0x20), TwoQ);
        __m256i Yv = _mm256_permute2x128_si256(V0, V1, 0x31);
        __m256i Tv = shoupMulLazy(Yv, loadRootPair(RootOp + M + I),
                                  loadRootPair(RootQuot + M + I), Qv);
        __m256i NX = _mm256_add_epi64(Xv, Tv);
        __m256i NY = _mm256_add_epi64(_mm256_sub_epi64(Xv, Tv), TwoQ);
        storeu(X + J1, _mm256_permute2x128_si256(NX, NY, 0x20));
        storeu(X + J1 + 4, _mm256_permute2x128_si256(NX, NY, 0x31));
      }
    } else {
      // T == 1, M == N/2: four adjacent pairs; unpack puts pairs in the
      // lane order {p0 p2 p1 p3}, and loadRootQuad matches it.
      for (uint64_t I = 0; I < M; I += 4) {
        uint64_t J1 = 2 * I;
        __m256i V0 = loadu(X + J1);
        __m256i V1 = loadu(X + J1 + 4);
        __m256i Xv = condSub(_mm256_unpacklo_epi64(V0, V1), TwoQ);
        __m256i Yv = _mm256_unpackhi_epi64(V0, V1);
        __m256i Tv = shoupMulLazy(Yv, loadRootQuad(RootOp + M + I),
                                  loadRootQuad(RootQuot + M + I), Qv);
        __m256i NX = _mm256_add_epi64(Xv, Tv);
        __m256i NY = _mm256_add_epi64(_mm256_sub_epi64(Xv, Tv), TwoQ);
        storeu(X + J1, _mm256_unpacklo_epi64(NX, NY));
        storeu(X + J1 + 4, _mm256_unpackhi_epi64(NX, NY));
      }
    }
  }
  // Values sit in [0, 4q); reduce to the canonical representative so the
  // result is byte-equal to the scalar oracle.
  for (uint64_t J = 0; J < N; J += 4)
    storeu(X + J, condSub(condSub(loadu(X + J), TwoQ), Qv));
  return true;
}

bool eva::simd::nttInverseAvx2(uint64_t *X, uint64_t N,
                               const uint64_t *InvRootOp,
                               const uint64_t *InvRootQuot,
                               uint64_t InvDegreeOp, uint64_t InvDegreeQuot,
                               uint64_t Q) {
  if (N < 16)
    return false;
  const __m256i Qv = _mm256_set1_epi64x(static_cast<long long>(Q));
  const __m256i TwoQ = _mm256_set1_epi64x(static_cast<long long>(2 * Q));
  // Gentleman-Sande with inputs in [0, 2q): X' = condsub(X + Y),
  // Y' = shoupLazy(X - Y + 2q) — both back in [0, 2q).
  uint64_t T = 1;
  for (uint64_t M = N >> 1; M >= 1; M >>= 1) {
    if (T == 1) {
      for (uint64_t I = 0; I < M; I += 4) {
        uint64_t J1 = 2 * I;
        __m256i V0 = loadu(X + J1);
        __m256i V1 = loadu(X + J1 + 4);
        __m256i Xv = _mm256_unpacklo_epi64(V0, V1);
        __m256i Yv = _mm256_unpackhi_epi64(V0, V1);
        __m256i NX = condSub(_mm256_add_epi64(Xv, Yv), TwoQ);
        __m256i D =
            _mm256_add_epi64(_mm256_sub_epi64(Xv, Yv), TwoQ);
        __m256i NY = shoupMulLazy(D, loadRootQuad(InvRootOp + M + I),
                                  loadRootQuad(InvRootQuot + M + I), Qv);
        storeu(X + J1, _mm256_unpacklo_epi64(NX, NY));
        storeu(X + J1 + 4, _mm256_unpackhi_epi64(NX, NY));
      }
    } else if (T == 2) {
      for (uint64_t I = 0; I < M; I += 2) {
        uint64_t J1 = 4 * I;
        __m256i V0 = loadu(X + J1);
        __m256i V1 = loadu(X + J1 + 4);
        __m256i Xv = _mm256_permute2x128_si256(V0, V1, 0x20);
        __m256i Yv = _mm256_permute2x128_si256(V0, V1, 0x31);
        __m256i NX = condSub(_mm256_add_epi64(Xv, Yv), TwoQ);
        __m256i D =
            _mm256_add_epi64(_mm256_sub_epi64(Xv, Yv), TwoQ);
        __m256i NY = shoupMulLazy(D, loadRootPair(InvRootOp + M + I),
                                  loadRootPair(InvRootQuot + M + I), Qv);
        storeu(X + J1, _mm256_permute2x128_si256(NX, NY, 0x20));
        storeu(X + J1 + 4, _mm256_permute2x128_si256(NX, NY, 0x31));
      }
    } else {
      uint64_t J1 = 0;
      for (uint64_t I = 0; I < M; ++I) {
        const __m256i WOp =
            _mm256_set1_epi64x(static_cast<long long>(InvRootOp[M + I]));
        const __m256i WQuot =
            _mm256_set1_epi64x(static_cast<long long>(InvRootQuot[M + I]));
        for (uint64_t J = J1; J < J1 + T; J += 4) {
          __m256i Xv = loadu(X + J);
          __m256i Yv = loadu(X + J + T);
          storeu(X + J, condSub(_mm256_add_epi64(Xv, Yv), TwoQ));
          __m256i D =
              _mm256_add_epi64(_mm256_sub_epi64(Xv, Yv), TwoQ);
          storeu(X + J + T, shoupMulLazy(D, WOp, WQuot, Qv));
        }
        J1 += 2 * T;
      }
    }
    T <<= 1;
  }
  // Scale by N^{-1} and reduce [0, 2q) -> [0, q) — exactly the oracle's
  // final mulModShoup representative.
  const __m256i DOp = _mm256_set1_epi64x(static_cast<long long>(InvDegreeOp));
  const __m256i DQuot =
      _mm256_set1_epi64x(static_cast<long long>(InvDegreeQuot));
  for (uint64_t J = 0; J < N; J += 4)
    storeu(X + J, condSub(shoupMulLazy(loadu(X + J), DOp, DQuot, Qv), Qv));
  return true;
}

bool eva::simd::fusedMulAcc128Avx2(const uint64_t *X, const uint64_t *K0,
                                   const uint64_t *K1, uint64_t *Lo0,
                                   uint64_t *Hi0, uint64_t *Lo1,
                                   uint64_t *Hi1, uint64_t N) {
  if (N % 4 != 0)
    return false;
  const __m256i SignBias =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  for (uint64_t J = 0; J < N; J += 4) {
    __m256i Xv = loadu(X + J);
    __m256i K0v = loadu(K0 + J);
    __m256i K1v = loadu(K1 + J);

    __m256i P0Lo = mulLo64(Xv, K0v);
    __m256i P0Hi = mulHi64(Xv, K0v);
    __m256i Old0 = loadu(Lo0 + J);
    __m256i New0 = _mm256_add_epi64(Old0, P0Lo);
    // Unsigned carry: old > new after the add. Bias to signed range first.
    __m256i Carry0 = _mm256_cmpgt_epi64(_mm256_xor_si256(Old0, SignBias),
                                        _mm256_xor_si256(New0, SignBias));
    storeu(Lo0 + J, New0);
    storeu(Hi0 + J, _mm256_sub_epi64(
                        _mm256_add_epi64(loadu(Hi0 + J), P0Hi), Carry0));

    __m256i P1Lo = mulLo64(Xv, K1v);
    __m256i P1Hi = mulHi64(Xv, K1v);
    __m256i Old1 = loadu(Lo1 + J);
    __m256i New1 = _mm256_add_epi64(Old1, P1Lo);
    __m256i Carry1 = _mm256_cmpgt_epi64(_mm256_xor_si256(Old1, SignBias),
                                        _mm256_xor_si256(New1, SignBias));
    storeu(Lo1 + J, New1);
    storeu(Hi1 + J, _mm256_sub_epi64(
                        _mm256_add_epi64(loadu(Hi1 + J), P1Hi), Carry1));
  }
  return true;
}

bool eva::simd::centeredShiftAvx2(const uint64_t *In, uint64_t *Out,
                                  uint64_t N, uint64_t Half, uint64_t Shift) {
  if (N % 4 != 0)
    return false;
  // Inputs below 2^63 compare correctly as signed lanes.
  const __m256i HalfV = _mm256_set1_epi64x(static_cast<long long>(Half));
  const __m256i ShiftV = _mm256_set1_epi64x(static_cast<long long>(Shift));
  for (uint64_t J = 0; J < N; J += 4) {
    __m256i V = loadu(In + J);
    __m256i Above = _mm256_cmpgt_epi64(V, HalfV);
    storeu(Out + J, _mm256_add_epi64(V, _mm256_and_si256(Above, ShiftV)));
  }
  return true;
}

#else // !EVA_HAVE_AVX2

// Stubs for toolchains/targets without AVX2: dispatch sees "not available"
// and stays on the scalar oracle.

bool eva::avx2KernelsCompiled() { return false; }

bool eva::simd::nttForwardAvx2(uint64_t *, uint64_t, const uint64_t *,
                               const uint64_t *, uint64_t) {
  return false;
}

bool eva::simd::nttInverseAvx2(uint64_t *, uint64_t, const uint64_t *,
                               const uint64_t *, uint64_t, uint64_t,
                               uint64_t) {
  return false;
}

bool eva::simd::fusedMulAcc128Avx2(const uint64_t *, const uint64_t *,
                                   const uint64_t *, uint64_t *, uint64_t *,
                                   uint64_t *, uint64_t *, uint64_t) {
  return false;
}

bool eva::simd::centeredShiftAvx2(const uint64_t *, uint64_t *, uint64_t,
                                  uint64_t, uint64_t) {
  return false;
}

#endif // EVA_HAVE_AVX2
