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

/// One key-switching key: per decomposition prime i, a pair (k0_i, k1_i)
/// over the full modulus Q*P with k0_i + k1_i * s = e_i + P * w * qtilde_i.
struct KSwitchKey {
  std::vector<std::array<RnsPoly, 2>> Keys;
  /// Parallel to Keys when non-empty: k1_i == expandUniformNtt(C1Seeds[i]).
  /// The uniform components are expanded from PRNG seeds so the wire format
  /// can ship the 8-byte seed instead of the polynomial (roughly halving key
  /// upload size). A seed of 0 means "not seed-derived": the polynomial must
  /// be shipped in full.
  std::vector<uint64_t> C1Seeds;
  bool empty() const { return Keys.empty(); }
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
