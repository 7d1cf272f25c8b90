//===- eva/ckks/Encryptor.h - Secret-key encryption -------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef EVA_CKKS_ENCRYPTOR_H
#define EVA_CKKS_ENCRYPTOR_H

#include "eva/ckks/Ciphertext.h"
#include "eva/ckks/Context.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/ckks/Keys.h"
#include "eva/ckks/Plaintext.h"

#include <memory>

namespace eva {

/// Encrypts encoded plaintexts under the client's secret key (the paper's
/// deployment, Section 2: the client encrypts its inputs and decrypts the
/// results, so no public key exists). Fresh ciphertexts have 2 polynomials,
/// carry the plaintext's scale and are created over the plaintext's prime
/// count (always the full data chain in compiled EVA programs, since
/// MODSWITCH instructions lower levels explicitly).
///
/// c1 is expanded from a PRNG seed, so serialization can ship (c0, seed)
/// instead of (c0, c1) — half the upload for fresh request ciphertexts.
/// Decryption and evaluation treat both forms identically.
class Encryptor {
public:
  /// \p ReproducibleSeeds forwards to the internal sampler's reproducible
  /// expansion-seed mode (see KeyGenerator): ciphertexts' c1 seeds become a
  /// pure function of \p Seed instead of OS entropy.
  Encryptor(std::shared_ptr<const CkksContext> Ctx, uint64_t Seed,
            bool ReproducibleSeeds = false);

  /// c0 = m + e - c1 * s with c1 = expandUniformNtt(Ctx, count, seed).
  /// \p C1SeedOut receives that seed.
  Ciphertext encryptSymmetric(const Plaintext &Pt, const SecretKey &Sk,
                              uint64_t &C1SeedOut);

private:
  std::shared_ptr<const CkksContext> Ctx;
  /// Error draws and c1 seeds. Its constructor also draws a secret key,
  /// which goes unused.
  KeyGenerator Sampler;
};

} // namespace eva

#endif // EVA_CKKS_ENCRYPTOR_H
