//===- eva/math/Simd.h - Runtime SIMD dispatch for modular kernels -*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime CPU dispatch for the vectorized modular-arithmetic kernels (the
/// Harvey/Shoup lazy-reduction NTT butterflies, the fused key-switch
/// multiply-accumulate and the centered lift of key-switch digits). The scalar `mulModShoup` path in NTT.cpp stays the
/// bit-identical oracle: the lazy kernels defer reductions (values ride in
/// [0, 4q) through the butterflies) but reduce to the unique representative
/// in [0, q) before returning, so dispatched and scalar outputs are
/// byte-equal — the differential batteries assert exactly that.
///
/// Level selection: the AVX2 kernels are used when (a) the library was built
/// with an AVX2-capable compiler (EVA_ENABLE_AVX2, on by default on x86-64),
/// (b) the CPU reports AVX2 at runtime, and (c) the `EVA_SIMD` environment
/// variable does not say otherwise. `EVA_SIMD=scalar` forces the oracle;
/// `EVA_SIMD=avx2` demands the vector path and fails fast when it cannot be
/// honored (an explicit request that silently degraded would invalidate a
/// measurement).
///
//===----------------------------------------------------------------------===//

#ifndef EVA_MATH_SIMD_H
#define EVA_MATH_SIMD_H

#include "eva/math/Modulus.h"

#include <cstdint>

namespace eva {

enum class SimdLevel {
  Scalar, ///< the mulModShoup reference path (the oracle)
  Avx2,   ///< Harvey lazy-reduction butterflies over 4x64-bit lanes
};

/// Human-readable level name ("scalar" / "avx2").
const char *simdLevelName(SimdLevel L);

/// True when the AVX2 kernel translation unit was compiled with AVX2
/// support (independent of what the CPU reports).
bool avx2KernelsCompiled();

/// True when the AVX2 kernels are both compiled in and supported by the
/// CPU we are running on (ignores the EVA_SIMD override).
bool avx2Available();

/// Level selection from CPU features and the EVA_SIMD environment override.
/// Fatal error on EVA_SIMD values that cannot be honored or parsed.
SimdLevel detectSimdLevel();

/// The cached dispatch decision every hot-path kernel consults.
SimdLevel activeSimdLevel();

/// Overrides the cached level (the differential tests pin both paths in one
/// process). Passing Avx2 when avx2Available() is false is a fatal error.
void setSimdLevelForTesting(SimdLevel L);

namespace simd {

/// AVX2 forward negacyclic NTT with Harvey lazy reduction. \p X holds N
/// values in [0, q); on success they are replaced by the bit-reversed-order
/// transform, fully reduced to [0, q). \p RootOp / \p RootQuot are the
/// Shoup operand/quotient tables in bit-reversed order (NttTables precomputes
/// them once per context). Returns false when the binary lacks AVX2 kernels
/// (caller falls back to the scalar oracle). Requires N >= 16, a power of
/// two, and q < 2^60 (so 4q fits a signed 64-bit compare).
bool nttForwardAvx2(uint64_t *X, uint64_t N, const uint64_t *RootOp,
                    const uint64_t *RootQuot, uint64_t Q);

/// AVX2 inverse counterpart: input in bit-reversed evaluation order in
/// [0, q), output in standard coefficient order in [0, q). \p InvDegreeOp /
/// \p InvDegreeQuot are the Shoup pair for N^{-1} mod q.
bool nttInverseAvx2(uint64_t *X, uint64_t N, const uint64_t *InvRootOp,
                    const uint64_t *InvRootQuot, uint64_t InvDegreeOp,
                    uint64_t InvDegreeQuot, uint64_t Q);

/// AVX2 fused dual multiply-accumulate over split 128-bit accumulators:
///   (Hi0:Lo0)[i] += X[i] * K0[i];  (Hi1:Lo1)[i] += X[i] * K1[i]
/// for i in [0, N). One pass over X feeds both key components (the (k0, k1)
/// pair of one key-switch digit). Returns false when AVX2 is unavailable.
bool fusedMulAcc128Avx2(const uint64_t *X, const uint64_t *K0,
                        const uint64_t *K1, uint64_t *Lo0, uint64_t *Hi0,
                        uint64_t *Lo1, uint64_t *Hi1, uint64_t N);

/// Scalar reference for fusedMulAcc128Avx2 — exact same sums mod 2^128.
inline void fusedMulAcc128Scalar(const uint64_t *X, const uint64_t *K0,
                                 const uint64_t *K1, uint64_t *Lo0,
                                 uint64_t *Hi0, uint64_t *Lo1, uint64_t *Hi1,
                                 uint64_t N) {
  for (uint64_t I = 0; I < N; ++I) {
    Uint128 P0 = Uint128(X[I]) * K0[I];
    uint64_t Old0 = Lo0[I];
    Lo0[I] = Old0 + static_cast<uint64_t>(P0);
    Hi0[I] += static_cast<uint64_t>(P0 >> 64) + (Lo0[I] < Old0 ? 1 : 0);
    Uint128 P1 = Uint128(X[I]) * K1[I];
    uint64_t Old1 = Lo1[I];
    Lo1[I] = Old1 + static_cast<uint64_t>(P1);
    Hi1[I] += static_cast<uint64_t>(P1 >> 64) + (Lo1[I] < Old1 ? 1 : 0);
  }
}

/// Dispatched flavour: AVX2 when active, scalar otherwise. The two paths
/// compute identical sums, so key-switch results stay bit-identical.
void fusedMulAcc128(const uint64_t *X, const uint64_t *K0, const uint64_t *K1,
                    uint64_t *Lo0, uint64_t *Hi0, uint64_t *Lo1,
                    uint64_t *Hi1, uint64_t N);

/// AVX2 masked shift: Out[i] = In[i] + (In[i] > Half ? Shift : 0), mod
/// 2^64, for inputs below 2^63. With Half = q_i / 2 and Shift = q_r - q_i,
/// this is the centered lift of a digit mod q_i to a prime q_r above
/// q_i / 2 (Evaluator::extendDigit). Returns false when AVX2 is
/// unavailable.
bool centeredShiftAvx2(const uint64_t *In, uint64_t *Out, uint64_t N,
                       uint64_t Half, uint64_t Shift);

/// Scalar reference for centeredShiftAvx2: a mask, not a branch, since the
/// comparison is a coin flip.
inline void centeredShiftScalar(const uint64_t *In, uint64_t *Out, uint64_t N,
                                uint64_t Half, uint64_t Shift) {
  for (uint64_t I = 0; I < N; ++I)
    Out[I] = In[I] + (Shift & -static_cast<uint64_t>(In[I] > Half));
}

/// Dispatched flavour: AVX2 when active, scalar otherwise (identical words).
void centeredShift(const uint64_t *In, uint64_t *Out, uint64_t N,
                   uint64_t Half, uint64_t Shift);

} // namespace simd

} // namespace eva

#endif // EVA_MATH_SIMD_H
