//===- KeyGenerator.cpp - Key generation ------------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/KeyGenerator.h"

#include "eva/ckks/Galois.h"
#include "eva/support/Arena.h"
#include "eva/support/ThreadPool.h"

#include <algorithm>

using namespace eva;

namespace {

/// Uniform value in [0, Bound) from raw engine output, bias-free via
/// rejection: values below 2^64 mod Bound are rejected, leaving an interval
/// whose length is a multiple of Bound.
uint64_t boundedUniform(RandomSource &Rng, uint64_t Bound) {
  uint64_t Threshold = (0 - Bound) % Bound; // 2^64 mod Bound
  for (;;) {
    uint64_t R = Rng.uniform64();
    if (R >= Threshold)
      return R % Bound;
  }
}

/// Keeps, of \p P's components over data primes 0, 1, ... and the special
/// prime last, the Pairs + 1 a key of \p Pairs pairs holds (keyLimbPrime):
/// the special prime's becomes component Pairs.
void keepKeyLimbs(RnsPoly &P, size_t Pairs) {
  if (P.Comps.size() <= Pairs + 1)
    return;
  P.Comps[Pairs] = std::move(P.Comps.back());
  P.Comps.resize(Pairs + 1);
}

} // namespace

RnsPoly eva::expandUniformNtt(const CkksContext &Ctx, size_t PrimeCount,
                              uint64_t Seed) {
  assert(Seed != 0 && "seed 0 is reserved for 'not seed-derived'");
  assert(PrimeCount >= 1 && PrimeCount <= Ctx.totalPrimeCount());
  RandomSource Rng(Seed);
  uint64_t N = Ctx.polyDegree();
  RnsPoly P(N, PrimeCount);
  for (size_t C = 0; C < PrimeCount; ++C) {
    uint64_t Q = Ctx.prime(C).value();
    for (uint64_t I = 0; I < N; ++I)
      P.Comps[C][I] = boundedUniform(Rng, Q);
  }
  return P;
}

RnsPoly eva::expandUniformKeyNtt(const CkksContext &Ctx, size_t Pairs,
                                 uint64_t Seed) {
  assert(Pairs >= 1 && Pairs <= Ctx.dataPrimeCount());
  // Rejection sampling draws a varying number of words per value, so each
  // limb's values depend on every limb drawn before it: the stream runs
  // over every prime, whichever the key keeps.
  RnsPoly P = expandUniformNtt(Ctx, Ctx.totalPrimeCount(), Seed);
  keepKeyLimbs(P, Pairs);
  return P;
}

void KSwitchKey::trimTo(size_t Pairs) {
  if (Keys.size() <= Pairs)
    return;
  Keys.resize(Pairs);
  if (C1Seeds.size() > Pairs)
    C1Seeds.resize(Pairs);
  for (std::array<RnsPoly, 2> &Pair : Keys)
    for (RnsPoly &P : Pair)
      keepKeyLimbs(P, Pairs);
}

namespace {

/// splitmix64 of \p X: decorrelates the reproducible seed engine's seed
/// from the secret sampler's without sharing any stream state.
uint64_t splitMix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

} // namespace

KeyGenerator::KeyGenerator(std::shared_ptr<const CkksContext> CtxIn,
                           uint64_t Seed, bool ReproducibleExpansionSeeds)
    : Ctx(std::move(CtxIn)), Rng(Seed == 0 ? 0x5EA1C0DEull : Seed) {
  if (ReproducibleExpansionSeeds) {
    // fatalError, not assert: in a Release build a compiled-out assert
    // would silently publish the fixed splitMix64(constant) seed stream.
    if (Seed == 0)
      fatalError("reproducible expansion seeds require a nonzero seed");
    SeedRng.emplace(splitMix64(Seed ^ 0x45564153454544ull)); // "EVASEED"
  }
  Secret.S = sampleTernaryNtt(Ctx->totalPrimeCount());
}

RnsPoly KeyGenerator::sampleTernaryNtt(size_t PrimeCount) {
  uint64_t N = Ctx->polyDegree();
  std::vector<int> Coeffs(N);
  for (uint64_t I = 0; I < N; ++I)
    Coeffs[I] = Rng.ternary();
  RnsPoly P(N, PrimeCount);
  for (size_t C = 0; C < PrimeCount; ++C) {
    const Modulus &Q = Ctx->prime(C);
    for (uint64_t I = 0; I < N; ++I) {
      int V = Coeffs[I];
      P.Comps[C][I] = V < 0 ? Q.value() - 1 : static_cast<uint64_t>(V);
    }
    Ctx->ntt(C).forward(P.Comps[C]);
  }
  return P;
}

RnsPoly KeyGenerator::sampleErrorNtt(size_t PrimeCount) {
  uint64_t N = Ctx->polyDegree();
  std::vector<int64_t> Coeffs(N);
  for (uint64_t I = 0; I < N; ++I)
    Coeffs[I] = Rng.gaussian();
  RnsPoly P(N, PrimeCount);
  for (size_t C = 0; C < PrimeCount; ++C) {
    const Modulus &Q = Ctx->prime(C);
    for (uint64_t I = 0; I < N; ++I) {
      int64_t V = Coeffs[I];
      P.Comps[C][I] = V < 0 ? Q.value() - static_cast<uint64_t>(-V)
                            : static_cast<uint64_t>(V);
    }
    Ctx->ntt(C).forward(P.Comps[C]);
  }
  return P;
}

uint64_t KeyGenerator::deriveSeed() {
  // Reproducible mode (opt-in, golden tests): a dedicated engine whose
  // stream is independent of the secret sampler's.
  if (SeedRng) {
    uint64_t S = SeedRng->uniform64();
    return S == 0 ? 0x9E3779B97F4A7C15ull : S;
  }
  // Expansion seeds are published on the wire (that is the point of seed
  // compression), so they must NOT be drawn from the engine that samples
  // secret material: mt19937_64 state is recoverable from its outputs, and
  // a server collecting enough key seeds could rewind the stream to the
  // secret-key coefficients. Draw from OS entropy instead — the seed only
  // needs to be reproducible by expandUniformNtt, not by this generator.
  std::random_device Rd;
  uint64_t S = (static_cast<uint64_t>(Rd()) << 32) | Rd();
  // 0 marks "not seed-derived" on the wire; remap it (probability 2^-64).
  return S == 0 ? 0x9E3779B97F4A7C15ull : S;
}

// gaussian() clamps to +-round(6 sigma), so an int8_t holds every draw.
static_assert(6.0 * ErrorStandardDeviation < 127.0,
              "key-switch error draws must fit in int8_t");

KeyGenerator::KSwitchDraws KeyGenerator::drawKSwitchKey() {
  size_t DecompCount = Ctx->dataPrimeCount();
  uint64_t N = Ctx->polyDegree();
  KSwitchDraws D;
  D.Seeds.resize(DecompCount);
  D.Errors.resize(DecompCount * N);
  // Per digit: the c1 seed, then N error coefficients. Every key bit
  // depends on this order (KeyGen.ParallelKeysBitIdenticalAtEveryPoolSize).
  for (size_t I = 0; I < DecompCount; ++I) {
    D.Seeds[I] = deriveSeed();
    for (uint64_t J = 0; J < N; ++J)
      D.Errors[I * N + J] = static_cast<int8_t>(Rng.gaussian());
  }
  return D;
}

void KeyGenerator::buildKSwitchDigit(std::span<const uint64_t> WI,
                                     const KSwitchDraws &D, size_t I,
                                     KSwitchKey &Key) const {
  uint64_t N = Ctx->polyDegree();
  assert(WI.size() == N && "target limb must hold N words");
  size_t Pairs = Key.Keys.size();
  assert(I < Pairs && Pairs <= Ctx->dataPrimeCount() && "digit out of shape");
  size_t SpecialIdx = Ctx->specialPrimeIndex();
  std::array<RnsPoly, 2> &Z = Key.Keys[I];
  Z[1] = expandUniformKeyNtt(*Ctx, Pairs, D.Seeds[I]);
  Z[0] = RnsPoly(N, Pairs + 1);
  const int8_t *E = D.Errors.data() + I * N;
  for (size_t Limb = 0; Limb <= Pairs; ++Limb) {
    size_t C = keyLimbPrime(Pairs, Limb, SpecialIdx);
    const Modulus &Q = Ctx->prime(C);
    std::vector<uint64_t> &C0 = Z[0].Comps[Limb];
    for (uint64_t J = 0; J < N; ++J)
      C0[J] = E[J] < 0 ? Q.value() - static_cast<uint64_t>(-E[J])
                       : static_cast<uint64_t>(E[J]);
    Ctx->ntt(C).forward(C0);
    // c0 = e - c1 * s, so that c0 + c1 * s = e.
    const std::vector<uint64_t> &C1 = Z[1].Comps[Limb];
    const std::vector<uint64_t> &S = Secret.S.Comps[C];
    for (uint64_t J = 0; J < N; ++J)
      C0[J] = subMod(C0[J], mulMod(C1[J], S[J], Q), Q);
  }
  // Add P * W on the i-th CRT component only (the CRT basis trick); limb
  // I < Pairs lies over data prime I.
  const Modulus &Qi = Ctx->prime(I);
  uint64_t SpecialPrime = Ctx->prime(SpecialIdx).value();
  ShoupMul FactorMul(Qi.reduce(SpecialPrime), Qi);
  std::vector<uint64_t> &Dst = Z[0].Comps[I];
  for (uint64_t J = 0; J < N; ++J)
    Dst[J] = addMod(Dst[J], mulModShoup(WI[J], FactorMul, Qi), Qi);
}

RelinKeys KeyGenerator::createRelinKeys(ThreadPool *Pool) {
  std::optional<ThreadPool> Transient;
  if (!Pool)
    Pool = &Transient.emplace(0);
  KSwitchDraws D = drawKSwitchKey();
  RelinKeys Rk;
  Rk.Key.Keys.resize(D.Seeds.size());
  Rk.Key.C1Seeds = D.Seeds;
  // One key, so the digits are the parallel unit. Digit i needs only limb
  // i of the target w = s^2.
  Pool->parallelFor(D.Seeds.size(), [&](size_t I) {
    LimbScratch S2 = acquireLimbScratch(Ctx->polyDegree());
    mulPolyComp(Secret.S.Comps[I], Secret.S.Comps[I], S2.span(),
                Ctx->prime(I));
    buildKSwitchDigit(S2.span(), D, I, Rk.Key);
  });
  return Rk;
}

GaloisKeys KeyGenerator::createGaloisKeys(const std::set<uint64_t> &Steps,
                                          ThreadPool *Pool) {
  std::map<uint64_t, size_t> Full;
  for (uint64_t Step : Steps)
    Full.emplace(Step, Ctx->dataPrimeCount());
  return createGaloisKeysAtLevels(Full, Pool);
}

GaloisKeys KeyGenerator::createGaloisKeysAtLevels(
    const std::map<uint64_t, size_t> &StepPrimes, ThreadPool *Pool) {
  std::optional<ThreadPool> Transient;
  if (!Pool)
    Pool = &Transient.emplace(0);
  uint64_t Slots = Ctx->slotCount();
  uint64_t N = Ctx->polyDegree();
  // Slot rotation is cyclic with period N/2, so normalize before mapping to
  // a Galois element: step 0 (and any multiple of the slot count, e.g. a
  // program vec_size that equals the slot count) is the identity and needs
  // no key. Steps that normalize alike share one key at their larger level.
  std::map<uint64_t, size_t> PairsOf;
  for (auto [Step, Primes] : StepPrimes) {
    if (Primes == 0 || Primes > Ctx->dataPrimeCount())
      fatalError("galois key for step " + std::to_string(Step) + " at " +
                 std::to_string(Primes) + " primes: the context has " +
                 std::to_string(Ctx->dataPrimeCount()) + " data primes");
    if (Step % Slots != 0) {
      size_t &Pairs = PairsOf[galoisEltFromStep(Step % Slots, N)];
      Pairs = std::max(Pairs, Primes);
    }
  }
  GaloisKeys Gk;
  for (const auto &Entry : StepPrimes) {
    uint64_t Step = Entry.first % Slots;
    if (Step == 0)
      continue;
    uint64_t G = galoisEltFromStep(Step, N);
    auto [It, Inserted] = Gk.Keys.try_emplace(G);
    if (!Inserted)
      continue;
    // Draw this key on the calling thread while workers build earlier
    // ones. Workers touch only their own map node's value, never the tree.
    // The draw covers every digit, kept or not, so later keys' streams do
    // not depend on this key's level.
    KSwitchKey &Key = It->second;
    size_t Pairs = PairsOf.at(G);
    KSwitchDraws D = drawKSwitchKey();
    Key.Keys.resize(Pairs);
    Key.C1Seeds.assign(D.Seeds.begin(), D.Seeds.begin() + Pairs);
    Pool->submit([this, G, &Key, D = std::move(D)] {
      // Digit i needs only limb i of the target s(X^G), gathered from the
      // NTT-form secret through one permutation table for every digit.
      uint64_t N = Ctx->polyDegree();
      LimbScratch Perm = acquireLimbScratch(N);
      galoisNttPermutation(G, N, Perm.span());
      LimbScratch SG = acquireLimbScratch(N);
      for (size_t I = 0; I < Key.Keys.size(); ++I) {
        applyGaloisNtt(Secret.S.Comps[I], Perm.span(), SG.span());
        buildKSwitchDigit(SG.span(), D, I, Key);
      }
    });
  }
  Pool->waitIdle();
  return Gk;
}
