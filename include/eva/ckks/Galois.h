//===- eva/ckks/Galois.h - Galois automorphisms for rotation ----*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The automorphism X -> X^g of R = Z[X]/(X^N + 1) for odd g, which in the
/// encoder's slot ordering (index group generated by 5 mod 2N) realizes slot
/// rotation: g = 5^r mod 2N rotates all N/2 slots left by r. This is the
/// cryptographic mechanism behind the EVA language's ROTATELEFT /
/// ROTATERIGHT instructions.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CKKS_GALOIS_H
#define EVA_CKKS_GALOIS_H

#include "eva/ckks/Context.h"
#include "eva/ckks/Poly.h"

#include <cstdint>
#include <span>
#include <vector>

namespace eva {

class ThreadPool;

/// Galois element realizing a left rotation by \p Steps slots
/// (0 < Steps < N/2): 5^Steps mod 2N.
uint64_t galoisEltFromStep(uint64_t Steps, uint64_t PolyDegree);

/// Applies X -> X^g to one coefficient-domain component modulo \p Q.
void applyGaloisComp(std::span<const uint64_t> In, std::span<uint64_t> Out,
                     uint64_t GaloisElt, uint64_t PolyDegree,
                     const Modulus &Q);

/// Applies X -> X^g to limb \p PrimeIdx of an NTT-form polynomial: \p In
/// round-trips through coefficient form (inverse NTT, permute, forward NTT)
/// into \p Out. Both spans hold polyDegree() words.
void applyGaloisNttLimb(const CkksContext &Ctx, std::span<const uint64_t> In,
                        size_t PrimeIdx, uint64_t GaloisElt,
                        std::span<uint64_t> Out);

/// Applies X -> X^g to an NTT-form RNS polynomial over the first
/// poly.primeCount() primes of \p Ctx, with optional \p UseSpecial for key
/// material that spans the special prime. Round-trips through coefficient
/// form. A non-null \p Pool runs the per-limb inverse-NTT / permute /
/// forward-NTT pipeline in parallel across limbs.
RnsPoly applyGaloisNttPoly(const CkksContext &Ctx, const RnsPoly &Poly,
                           uint64_t GaloisElt, bool SpansSpecialPrime,
                           ThreadPool *Pool = nullptr);

} // namespace eva

#endif // EVA_CKKS_GALOIS_H
