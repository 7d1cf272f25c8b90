//===- eva/ckks/KeyGenerator.h - Key generation -----------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the secret key (ternary), relinearization key (for s^2) and
/// Galois keys for a requested set of rotation steps — the "encryption
/// context" whose generation time Table 7 of the paper reports. No public
/// key is generated: the client that holds the secret key encrypts under it.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CKKS_KEYGENERATOR_H
#define EVA_CKKS_KEYGENERATOR_H

#include "eva/ckks/Context.h"
#include "eva/ckks/Keys.h"
#include "eva/support/Random.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

namespace eva {

class ThreadPool;

/// Deterministically expands \p Seed into a uniform polynomial in NTT form
/// over the first \p PrimeCount context primes. Uniformity in NTT form
/// equals uniformity in coefficient form (the NTT is a bijection), so the
/// result can stand in for any freshly sampled uniform polynomial. The
/// expansion uses raw mt19937_64 output with rejection sampling — fully
/// specified by the C++ standard, so client and server reproduce identical
/// polynomials from the same seed regardless of standard library.
RnsPoly expandUniformNtt(const CkksContext &Ctx, size_t PrimeCount,
                         uint64_t Seed);

/// The uniform polynomial of a key-switching pair with \p Pairs pairs:
/// \p Seed's stream runs over every context prime in order, as
/// expandUniformNtt(Ctx, totalPrimeCount(), Seed) draws it, and the result
/// keeps the Pairs + 1 components of keyLimbPrime (Keys.h). So a trimmed
/// key's components equal the full key's, whatever Pairs is.
RnsPoly expandUniformKeyNtt(const CkksContext &Ctx, size_t Pairs,
                            uint64_t Seed);

class KeyGenerator {
public:
  /// \p ReproducibleExpansionSeeds: by default, the expansion seeds
  /// published on the wire by seed compression come from OS entropy (see
  /// deriveSeed()). When true — requires a nonzero \p Seed — they are
  /// instead drawn from a dedicated engine derived from \p Seed, making
  /// every key and ciphertext bit a pure function of the seed. This is the
  /// reproducible mode behind cross-backend bit-identity goldens
  /// (`evac run`, ApiTest); production key generation keeps the default.
  explicit KeyGenerator(std::shared_ptr<const CkksContext> Ctx,
                        uint64_t Seed = 0,
                        bool ReproducibleExpansionSeeds = false);

  const SecretKey &secretKey() const { return Secret; }
  /// Key-switching keys are generated in two phases. The draw phase runs
  /// serially on the caller and consumes the random streams in a fixed
  /// order; the build phase (Galois map, c1 expansion, error NTT, c0) is a
  /// pure function of those draws and runs on \p Pool. Every key bit is
  /// therefore independent of the pool size. A null \p Pool uses a
  /// transient pool at hardware concurrency.
  RelinKeys createRelinKeys(ThreadPool *Pool = nullptr);
  /// One full Galois key per distinct left-rotation step in \p Steps:
  /// createGaloisKeysAtLevels with every step at dataPrimeCount() primes.
  GaloisKeys createGaloisKeys(const std::set<uint64_t> &Steps,
                              ThreadPool *Pool = nullptr);
  /// One Galois key per distinct left-rotation step in \p StepPrimes, with
  /// as many digits as the step's value: the most data primes a rotation by
  /// it runs at (CompiledProgram::RotationKeyPrimes), in [1,
  /// dataPrimeCount()]. A key with L digits holds the shape of keyLimbPrime
  /// (Keys.h). Steps are normalized modulo the slot count N/2 first (slot
  /// rotation is cyclic), so step 0 and any multiple of the slot count are
  /// identities that need no key, and steps that normalize alike share the
  /// larger count; an empty map yields an empty key map. Every key draws
  /// all dataPrimeCount() digits, so the streams, and each limb a trimmed
  /// key keeps, match the full keys' bit for bit. The caller draws key k+1
  /// while the pool builds key k.
  GaloisKeys
  createGaloisKeysAtLevels(const std::map<uint64_t, size_t> &StepPrimes,
                           ThreadPool *Pool = nullptr);

  /// Samples an error polynomial in NTT form over \p PrimeCount primes
  /// (exposed for the encryptor's fresh-ciphertext error).
  RnsPoly sampleErrorNtt(size_t PrimeCount);

  RandomSource &rng() { return Rng; }

  /// Draws a fresh nonzero expansion seed: from OS entropy by default, or
  /// from the dedicated deterministic seed engine in reproducible mode.
  uint64_t deriveSeed();

private:
  /// Samples a ternary polynomial in NTT form over \p PrimeCount context
  /// primes (the secret key).
  RnsPoly sampleTernaryNtt(size_t PrimeCount);
  /// Everything one key-switching key takes from the random streams.
  struct KSwitchDraws {
    std::vector<uint64_t> Seeds; ///< c1 expansion seed per digit
    /// N rounded-Gaussian error coefficients per digit, digit-major.
    std::vector<int8_t> Errors;
  };
  /// Draw phase: per digit, the c1 seed from deriveSeed() and N errors from
  /// Rng, in that order. Must run serially to keep seeded streams aligned.
  KSwitchDraws drawKSwitchKey();
  /// Build phase for digit \p I of a key for target w, given \p WI, limb I
  /// of w in NTT form: writes (k0_i, k1_i), which encrypts
  /// P * w * (CRT basis_i), into Key.Keys[I] in place, in the shape of a
  /// key with Key.Keys.size() pairs (keyLimbPrime). Reads only Ctx,
  /// Secret, \p WI and \p D, so digits of any keys may be built
  /// concurrently.
  void buildKSwitchDigit(std::span<const uint64_t> WI, const KSwitchDraws &D,
                         size_t I, KSwitchKey &Key) const;

  std::shared_ptr<const CkksContext> Ctx;
  RandomSource Rng;
  /// Reproducible mode's expansion-seed engine. Deliberately a separate
  /// engine from Rng: published seeds must never expose the stream that
  /// samples secret material (mt19937_64 state is recoverable from its
  /// outputs).
  std::optional<RandomSource> SeedRng;
  SecretKey Secret;
};

} // namespace eva

#endif // EVA_CKKS_KEYGENERATOR_H
