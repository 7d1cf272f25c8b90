//===- eva/ckks/Keys.h - Secret and evaluation keys -------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Key material for the RNS-CKKS scheme: the client's secret key and the
/// evaluation keys it uploads. There is no public key: the client holds the
/// secret key and encrypts under it (Encryptor::encryptSymmetric), and no
/// wire message carries one. Evaluation keys (relinearization and
/// Galois/rotation keys) use the special-prime key-switching construction of
/// the full-RNS CKKS paper: each decomposition component i encrypts
/// P * w * (CRT basis_i) under the secret key modulo Q*P. The paper's
/// compiler emits exactly the set of rotation steps (DetermineRotationSteps
/// in Algorithm 1) for which Galois keys must be generated, since
/// "evaluating each rotation step count needs a distinct public key"
/// (Section 2.1; the paper's "public key" is an evaluation key here).
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CKKS_KEYS_H
#define EVA_CKKS_KEYS_H

#include "eva/ckks/Poly.h"

#include <array>
#include <map>

namespace eva {

struct SecretKey {
  RnsPoly S; // NTT form over all primes (data + special)
};

/// The shape of a key-switching key, in one rule: a key with L pairs
/// (digits 0..L-1) holds polynomials of L + 1 components, over data primes
/// 0..L-1 and then the special prime (context index \p SpecialIdx). Returns
/// the context prime of component \p Limb. A key with L pairs switches
/// ciphertexts of at most L data primes: digit i of a key switch reads pair
/// i, and every output prime reads one component of each pair read. A full
/// key (L = dataPrimeCount()) therefore spans the context primes in order;
/// a Galois key used only below the top level keeps just the L its
/// rotations read (CompiledProgram::RotationKeyPrimes).
inline size_t keyLimbPrime(size_t Pairs, size_t Limb, size_t SpecialIdx) {
  return Limb < Pairs ? Limb : SpecialIdx;
}

/// One key-switching key: per decomposition prime i < L, a pair
/// (k0_i, k1_i) over data primes 0..L-1 and the special prime P (the shape
/// of keyLimbPrime) with k0_i + k1_i * s = e_i + P * w * qtilde_i.
struct KSwitchKey {
  std::vector<std::array<RnsPoly, 2>> Keys;
  /// Parallel to Keys when non-empty: k1_i is the key-shaped expansion of
  /// C1Seeds[i] (expandUniformKeyNtt). The uniform components are expanded
  /// from PRNG seeds so the wire format can ship the 8-byte seed instead of
  /// the polynomial (roughly halving key upload size). A seed of 0 means
  /// "not seed-derived": the polynomial must be shipped in full.
  std::vector<uint64_t> C1Seeds;
  bool empty() const { return Keys.empty(); }
  /// Keeps the first \p Pairs digits, each over data primes 0..Pairs-1 and
  /// the special prime: the limbs a key switch at \p Pairs primes reads,
  /// with their values unchanged. No-op when the key has at most \p Pairs.
  void trimTo(size_t Pairs);
};

struct RelinKeys {
  KSwitchKey Key; // for w = s^2
  bool empty() const { return Key.empty(); }
};

struct GaloisKeys {
  std::map<uint64_t, KSwitchKey> Keys; // galois element -> key for s(X^g)
  bool has(uint64_t GaloisElt) const { return Keys.count(GaloisElt) != 0; }
  const KSwitchKey &at(uint64_t GaloisElt) const { return Keys.at(GaloisElt); }
};

} // namespace eva

#endif // EVA_CKKS_KEYS_H
