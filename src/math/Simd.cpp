//===- Simd.cpp - Runtime SIMD dispatch for modular kernels ---------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/math/Simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace eva;

const char *eva::simdLevelName(SimdLevel L) {
  switch (L) {
  case SimdLevel::Scalar:
    return "scalar";
  case SimdLevel::Avx2:
    return "avx2";
  }
  fatalError("invalid SimdLevel");
}

bool eva::avx2Available() {
#if defined(__x86_64__) || defined(__i386__)
  return avx2KernelsCompiled() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SimdLevel eva::detectSimdLevel() {
  if (const char *Env = std::getenv("EVA_SIMD")) {
    if (std::strcmp(Env, "scalar") == 0)
      return SimdLevel::Scalar;
    if (std::strcmp(Env, "avx2") == 0) {
      // An explicit request that silently degraded would invalidate any
      // measurement taken under it — fail fast instead.
      if (!avx2Available())
        fatalError(std::string("EVA_SIMD=avx2 requested but AVX2 kernels ") +
                   (avx2KernelsCompiled()
                        ? "are not supported by this CPU"
                        : "were not compiled into this binary"));
      return SimdLevel::Avx2;
    }
    fatalError("unknown EVA_SIMD value '" + std::string(Env) +
               "' (expected 'scalar' or 'avx2')");
  }
  return avx2Available() ? SimdLevel::Avx2 : SimdLevel::Scalar;
}

namespace {

std::atomic<SimdLevel> &activeLevelStorage() {
  static std::atomic<SimdLevel> Level{detectSimdLevel()};
  return Level;
}

} // namespace

SimdLevel eva::activeSimdLevel() {
  return activeLevelStorage().load(std::memory_order_relaxed);
}

void eva::setSimdLevelForTesting(SimdLevel L) {
  if (L == SimdLevel::Avx2 && !avx2Available())
    fatalError("setSimdLevelForTesting(Avx2): AVX2 is not available");
  activeLevelStorage().store(L, std::memory_order_relaxed);
}

void eva::simd::fusedMulAcc128(const uint64_t *X, const uint64_t *K0,
                               const uint64_t *K1, uint64_t *Lo0,
                               uint64_t *Hi0, uint64_t *Lo1, uint64_t *Hi1,
                               uint64_t N) {
  if (activeSimdLevel() == SimdLevel::Avx2 &&
      fusedMulAcc128Avx2(X, K0, K1, Lo0, Hi0, Lo1, Hi1, N))
    return;
  fusedMulAcc128Scalar(X, K0, K1, Lo0, Hi0, Lo1, Hi1, N);
}

void eva::simd::centeredShift(const uint64_t *In, uint64_t *Out, uint64_t N,
                              uint64_t Half, uint64_t Shift) {
  if (activeSimdLevel() == SimdLevel::Avx2 &&
      centeredShiftAvx2(In, Out, N, Half, Shift))
    return;
  centeredShiftScalar(In, Out, N, Half, Shift);
}
