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

#include "eva/math/Modulus.h"

#include <cstdint>
#include <span>

namespace eva {

/// Galois element realizing a left rotation by \p Steps slots
/// (0 < Steps < N/2): 5^Steps mod 2N.
uint64_t galoisEltFromStep(uint64_t Steps, uint64_t PolyDegree);

/// Applies X -> X^g to one coefficient-domain component modulo \p Q: the
/// reference the NTT-domain gather below is tested against.
void applyGaloisComp(std::span<const uint64_t> In, std::span<uint64_t> Out,
                     uint64_t GaloisElt, uint64_t PolyDegree,
                     const Modulus &Q);

/// Fills \p Perm (PolyDegree entries) with the NTT-domain form of X -> X^g:
/// NttTables::forward leaves slot i holding the evaluation at
/// psi^(2*bitrev(i)+1), so the automorphism moves slot
/// bitrev(((2*bitrev(i)+1)*g mod 2N - 1)/2) to slot i. The table depends on
/// g and N only, so one serves every prime of a polynomial.
void galoisNttPermutation(uint64_t GaloisElt, uint64_t PolyDegree,
                          std::span<uint64_t> Perm);

/// Applies X -> X^g to one NTT-form limb under any prime: Out[i] =
/// In[Perm[i]], with \p Perm from galoisNttPermutation. Bit-identical to
/// an inverse NTT, applyGaloisComp and a forward NTT, at no NTT cost.
void applyGaloisNtt(std::span<const uint64_t> In,
                    std::span<const uint64_t> Perm, std::span<uint64_t> Out);

} // namespace eva

#endif // EVA_CKKS_GALOIS_H
