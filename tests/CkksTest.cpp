//===- CkksTest.cpp - Unit tests for the RNS-CKKS substrate ----------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Context.h"
#include "eva/ckks/Decryptor.h"
#include "eva/ckks/Encoder.h"
#include "eva/ckks/Encryptor.h"
#include "eva/ckks/Evaluator.h"
#include "eva/ckks/Galois.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/math/Primes.h"
#include "eva/math/Simd.h"
#include "eva/service/Audit.h"
#include "eva/support/CostLedger.h"
#include "eva/support/Random.h"
#include "eva/support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <thread>

using namespace eva;

namespace {

std::shared_ptr<CkksContext> makeContext(uint64_t N,
                                         std::vector<int> BitSizes) {
  Expected<std::shared_ptr<CkksContext>> Ctx =
      CkksContext::createFromBitSizes(N, BitSizes, SecurityLevel::None);
  EXPECT_TRUE(Ctx.ok()) << (Ctx.ok() ? "" : Ctx.message());
  return Ctx.value();
}

std::vector<double> randomVector(size_t N, double Lo, double Hi,
                                 uint64_t Seed) {
  RandomSource Rng(Seed);
  std::vector<double> V(N);
  for (double &X : V)
    X = Rng.uniformReal(Lo, Hi);
  return V;
}

double maxAbsDiff(const std::vector<double> &A, const std::vector<double> &B) {
  EXPECT_EQ(A.size(), B.size());
  double M = 0;
  for (size_t I = 0; I < A.size(); ++I)
    M = std::max(M, std::abs(A[I] - B[I]));
  return M;
}

TEST(Context, ValidatesParameters) {
  // Good parameters.
  EXPECT_TRUE(
      CkksContext::createFromBitSizes(2048, {40, 40}, SecurityLevel::None)
          .ok());
  // Non-power-of-two degree.
  EncryptionParameters P;
  P.PolyDegree = 3000;
  P.CoeffModulus = {65537, 786433};
  EXPECT_FALSE(CkksContext::create(P, SecurityLevel::None).ok());
  // Not enough primes.
  EXPECT_FALSE(
      CkksContext::createFromBitSizes(2048, {40}, SecurityLevel::None).ok());
  // Security bound: 2048 allows only 54 bits total at TC128.
  EXPECT_FALSE(
      CkksContext::createFromBitSizes(2048, {40, 40}, SecurityLevel::TC128)
          .ok());
  EXPECT_TRUE(
      CkksContext::createFromBitSizes(2048, {27, 27}, SecurityLevel::TC128)
          .ok());
}

TEST(Context, RejectsNonNttPrime) {
  EncryptionParameters P;
  P.PolyDegree = 2048;
  // 1000003 is prime but not 1 mod 4096.
  P.CoeffModulus = {1000003, 1032193};
  EXPECT_FALSE(CkksContext::create(P, SecurityLevel::None).ok());
}

TEST(Context, RejectsDuplicatePrimes) {
  Expected<std::vector<uint64_t>> Ps = generateNttPrimes(2048, 40, 1);
  ASSERT_TRUE(Ps.ok());
  EncryptionParameters P;
  P.PolyDegree = 2048;
  P.CoeffModulus = {(*Ps)[0], (*Ps)[0]};
  EXPECT_FALSE(CkksContext::create(P, SecurityLevel::None).ok());
}

class EncoderRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncoderRoundTrip, EncodeDecodeIsNearIdentity) {
  uint64_t N = GetParam();
  auto Ctx = makeContext(N, {50, 50});
  CkksEncoder Enc(Ctx);
  std::vector<double> In = randomVector(N / 2, -2.0, 2.0, N);
  Plaintext Pt;
  Enc.encode(In, std::ldexp(1.0, 40), 1, Pt);
  std::vector<double> Out = Enc.decode(Pt);
  EXPECT_LT(maxAbsDiff(In, Out), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Degrees, EncoderRoundTrip,
                         ::testing::Values(32, 256, 2048, 8192));

TEST(Encoder, ReplicatesShortVectors) {
  auto Ctx = makeContext(2048, {50, 50});
  CkksEncoder Enc(Ctx);
  std::vector<double> In = {1.5, -2.25, 3.0, 0.125};
  Plaintext Pt;
  Enc.encode(In, std::ldexp(1.0, 40), 1, Pt);
  std::vector<double> Out = Enc.decode(Pt);
  ASSERT_EQ(Out.size(), 1024u);
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_NEAR(Out[I], In[I % 4], 1e-8);
}

TEST(Encoder, ScalarEncodingFillsAllSlots) {
  auto Ctx = makeContext(2048, {50, 50});
  CkksEncoder Enc(Ctx);
  Plaintext Pt;
  Enc.encodeScalar(0.7125, std::ldexp(1.0, 40), 1, Pt);
  std::vector<double> Out = Enc.decode(Pt);
  for (double V : Out)
    EXPECT_NEAR(V, 0.7125, 1e-9);
}

TEST(Encoder, MultiPrimeEncodeDecode) {
  auto Ctx = makeContext(2048, {50, 40, 40, 50});
  CkksEncoder Enc(Ctx);
  std::vector<double> In = randomVector(1024, -1.0, 1.0, 3);
  Plaintext Pt;
  Enc.encode(In, std::ldexp(1.0, 80), 3, Pt); // scale above one prime
  std::vector<double> Out = Enc.decode(Pt);
  EXPECT_LT(maxAbsDiff(In, Out), 1e-8);
}

struct CkksFixture : public ::testing::Test {
  void SetUp() override {
    Ctx = makeContext(4096, {50, 40, 40, 50});
    Enc = std::make_unique<CkksEncoder>(Ctx);
    Gen = std::make_unique<KeyGenerator>(Ctx, 1234);
    Encryptor_ = std::make_unique<Encryptor>(Ctx, 777);
    Dec = std::make_unique<Decryptor>(Ctx, Gen->secretKey());
    Eval = std::make_unique<Evaluator>(Ctx);
  }

  Ciphertext encryptVec(const std::vector<double> &V, double Scale,
                        size_t Primes) {
    Plaintext Pt;
    Enc->encode(V, Scale, Primes, Pt);
    uint64_t Seed = 0;
    return Encryptor_->encryptSymmetric(Pt, Gen->secretKey(), Seed);
  }

  std::vector<double> decryptVec(const Ciphertext &Ct) {
    return Enc->decode(Dec->decrypt(Ct));
  }

  std::shared_ptr<CkksContext> Ctx;
  std::unique_ptr<CkksEncoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  std::unique_ptr<Encryptor> Encryptor_;
  std::unique_ptr<Decryptor> Dec;
  std::unique_ptr<Evaluator> Eval;
};

TEST_F(CkksFixture, EncryptDecryptRoundTrip) {
  std::vector<double> In = randomVector(2048, -1.0, 1.0, 11);
  Ciphertext Ct = encryptVec(In, std::ldexp(1.0, 40), 3);
  std::vector<double> Out = decryptVec(Ct);
  EXPECT_LT(maxAbsDiff(In, Out), 1e-6);
}

TEST_F(CkksFixture, AddSubNegate) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 21);
  std::vector<double> B = randomVector(2048, -1.0, 1.0, 22);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Ciphertext CB = encryptVec(B, Scale, 3);

  std::vector<double> Sum = decryptVec(Eval->add(CA, CB));
  std::vector<double> Diff = decryptVec(Eval->sub(CA, CB));
  std::vector<double> Neg = decryptVec(Eval->negate(CA));
  for (size_t I = 0; I < 2048; ++I) {
    EXPECT_NEAR(Sum[I], A[I] + B[I], 1e-6);
    EXPECT_NEAR(Diff[I], A[I] - B[I], 1e-6);
    EXPECT_NEAR(Neg[I], -A[I], 1e-6);
  }
}

TEST_F(CkksFixture, AddPlainAndSubPlain) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 31);
  std::vector<double> B = randomVector(2048, -1.0, 1.0, 32);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Plaintext PB;
  Enc->encode(B, Scale, 3, PB);

  std::vector<double> Sum = decryptVec(Eval->addPlain(CA, PB));
  std::vector<double> Diff = decryptVec(Eval->subPlain(CA, PB));
  std::vector<double> RDiff = decryptVec(Eval->subFromPlain(PB, CA));
  for (size_t I = 0; I < 2048; ++I) {
    EXPECT_NEAR(Sum[I], A[I] + B[I], 1e-6);
    EXPECT_NEAR(Diff[I], A[I] - B[I], 1e-6);
    EXPECT_NEAR(RDiff[I], B[I] - A[I], 1e-6);
  }
}

TEST_F(CkksFixture, MultiplyPlain) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 41);
  std::vector<double> B = randomVector(2048, -1.0, 1.0, 42);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Plaintext PB;
  Enc->encode(B, Scale, 3, PB);
  Ciphertext Prod = Eval->multiplyPlain(CA, PB);
  EXPECT_NEAR(Prod.Scale, Scale * Scale, 1.0);
  std::vector<double> Out = decryptVec(Prod);
  for (size_t I = 0; I < 2048; ++I)
    EXPECT_NEAR(Out[I], A[I] * B[I], 1e-5);
}

TEST_F(CkksFixture, MultiplyGrowsSizeAndRelinearizeShrinks) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 51);
  std::vector<double> B = randomVector(2048, -1.0, 1.0, 52);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Ciphertext CB = encryptVec(B, Scale, 3);
  Ciphertext Prod = Eval->multiply(CA, CB);
  EXPECT_EQ(Prod.size(), 3u);
  std::vector<double> Out3 = decryptVec(Prod);
  for (size_t I = 0; I < 2048; ++I)
    EXPECT_NEAR(Out3[I], A[I] * B[I], 1e-5);

  RelinKeys Rk = Gen->createRelinKeys();
  Ciphertext Relin = Eval->relinearize(Prod, Rk);
  EXPECT_EQ(Relin.size(), 2u);
  std::vector<double> Out2 = decryptVec(Relin);
  for (size_t I = 0; I < 2048; ++I)
    EXPECT_NEAR(Out2[I], A[I] * B[I], 1e-5);
}

TEST_F(CkksFixture, RescaleDividesScaleByDroppedPrime) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 61);
  std::vector<double> B = randomVector(2048, -1.0, 1.0, 62);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Plaintext PB;
  Enc->encode(B, Scale, 3, PB);
  Ciphertext Prod = Eval->multiplyPlain(CA, PB);
  size_t CountBefore = Prod.primeCount();
  uint64_t Dropped = Ctx->prime(CountBefore - 1).value();
  Ciphertext Scaled = Eval->rescale(Prod);
  EXPECT_EQ(Scaled.primeCount(), CountBefore - 1);
  EXPECT_NEAR(Scaled.Scale, Scale * Scale / double(Dropped), 1e-3);
  std::vector<double> Out = decryptVec(Scaled);
  for (size_t I = 0; I < 2048; ++I)
    EXPECT_NEAR(Out[I], A[I] * B[I], 1e-5);
}

TEST_F(CkksFixture, ModSwitchPreservesValueAndScale) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 71);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Ciphertext Down = Eval->modSwitch(CA);
  EXPECT_EQ(Down.primeCount(), CA.primeCount() - 1);
  EXPECT_EQ(Down.Scale, CA.Scale);
  std::vector<double> Out = decryptVec(Down);
  EXPECT_LT(maxAbsDiff(A, Out), 1e-6);
}

TEST_F(CkksFixture, DepthTwoMultiplyChainWithRescale) {
  // x^2 * y with rescaling between: exercises the full pipeline the
  // compiler emits for Figure 2-style programs.
  std::vector<double> X = randomVector(2048, -1.0, 1.0, 81);
  std::vector<double> Y = randomVector(2048, -1.0, 1.0, 82);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CX = encryptVec(X, Scale, 3);
  Ciphertext CY = encryptVec(Y, Scale, 3);
  RelinKeys Rk = Gen->createRelinKeys();

  Ciphertext X2 = Eval->rescale(Eval->relinearize(Eval->multiply(CX, CX), Rk));
  // Bring y to x^2's level and scale: multiply by a constant 1 at the scale
  // quotient (the compiler's MATCH-SCALE trick), then rescale+modswitch.
  Ciphertext Y2 = Eval->modSwitch(CY);
  Plaintext One;
  std::vector<double> OneV = {1.0};
  Enc->encode(OneV, X2.Scale / Y2.Scale, 2, One);
  Ciphertext YM = Eval->multiplyPlain(Y2, One);
  Ciphertext Prod = Eval->relinearize(Eval->multiply(X2, YM), Rk);
  std::vector<double> Out = decryptVec(Prod);
  for (size_t I = 0; I < 2048; ++I)
    EXPECT_NEAR(Out[I], X[I] * X[I] * Y[I], 1e-4);
}

class RotationSteps : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RotationSteps, RotateLeftMatchesCyclicShift) {
  auto Ctx = makeContext(2048, {50, 40, 50});
  CkksEncoder Enc(Ctx);
  KeyGenerator Gen(Ctx, 55);
  Encryptor Encryptor_(Ctx, 56);
  Decryptor Dec(Ctx, Gen.secretKey());
  Evaluator Eval(Ctx);

  uint64_t Steps = GetParam();
  GaloisKeys Gk = Gen.createGaloisKeys({Steps});

  size_t Slots = Ctx->slotCount();
  std::vector<double> In = randomVector(Slots, -1.0, 1.0, Steps);
  Plaintext Pt;
  Enc.encode(In, std::ldexp(1.0, 40), 2, Pt);
  uint64_t Seed = 0;
  Ciphertext Ct = Encryptor_.encryptSymmetric(Pt, Gen.secretKey(), Seed);
  Ciphertext Rot = Eval.rotateLeft(Ct, Steps, Gk);
  std::vector<double> Out = Enc.decode(Dec.decrypt(Rot));
  for (size_t I = 0; I < Slots; ++I)
    EXPECT_NEAR(Out[I], In[(I + Steps) % Slots], 1e-5)
        << "slot " << I << " steps " << Steps;
}

INSTANTIATE_TEST_SUITE_P(Steps, RotationSteps,
                         ::testing::Values(1, 2, 3, 64, 512, 1023));

TEST_F(CkksFixture, RotateHoistedBitIdenticalToSerialRotations) {
  // The hoisted batch shares one key-switch decomposition; every output
  // must still be bit-for-bit the serial rotateLeft result — including a
  // duplicate step and an embedded identity (step 0).
  std::vector<uint64_t> Steps = {1, 5, 37, 5, 0, 2047};
  std::set<uint64_t> KeySteps(Steps.begin(), Steps.end());
  GaloisKeys Gk = Gen->createGaloisKeys(KeySteps);

  std::vector<double> In = randomVector(2048, -1.0, 1.0, 29);
  Ciphertext Ct = encryptVec(In, std::ldexp(1.0, 40), 3);

  ExecutionStats C;
  std::vector<Ciphertext> Hoisted;
  {
    LedgerScope Scope(&C);
    Hoisted = Eval->rotateHoisted(Ct, Steps, Gk);
  }
  EXPECT_EQ(C.KeySwitchDecompositions, 1u);
  EXPECT_EQ(C.HoistBatches, 1u);
  EXPECT_EQ(C.HoistedRotations, 5u); // step 0 is a copy, not a rotation

  ASSERT_EQ(Hoisted.size(), Steps.size());
  for (size_t K = 0; K < Steps.size(); ++K) {
    Ciphertext Want =
        Steps[K] == 0 ? Ct : Eval->rotateLeft(Ct, Steps[K], Gk);
    ASSERT_EQ(Hoisted[K].size(), Want.size()) << "step " << Steps[K];
    EXPECT_EQ(Hoisted[K].Scale, Want.Scale);
    for (size_t P = 0; P < Want.size(); ++P)
      EXPECT_EQ(Hoisted[K].Polys[P].Comps, Want.Polys[P].Comps)
          << "step " << Steps[K] << " poly " << P;
  }
}

TEST_F(CkksFixture, RotateDecomposedOnConcurrentThreadsMatchesRotateLeft) {
  // The executor's hoist batch: one decomposition, then members rotating
  // against the shared digits on different threads at once.
  const std::vector<uint64_t> Steps = {1, 5, 37, 2047};
  GaloisKeys Gk = Gen->createGaloisKeys({Steps.begin(), Steps.end()});
  std::vector<double> In = randomVector(2048, -1.0, 1.0, 41);
  Ciphertext Ct = encryptVec(In, std::ldexp(1.0, 40), 3);

  ExecutionStats C;
  std::vector<Ciphertext> Rotated(Steps.size());
  {
    LedgerScope Scope(&C);
    const Evaluator::KeySwitchDigits Digits = Eval->decomposeForRotation(Ct);
    std::vector<std::thread> Members;
    for (size_t K = 0; K < Steps.size(); ++K)
      Members.emplace_back([&, K] {
        LedgerScope MemberScope(&C);
        Rotated[K] = Eval->rotateDecomposed(Ct, Digits, Steps[K], Gk);
      });
    for (std::thread &T : Members)
      T.join();
  }
  EXPECT_EQ(C.KeySwitchDecompositions, 1u);
  EXPECT_EQ(C.HoistBatches, 1u);
  EXPECT_EQ(C.HoistedRotations, Steps.size());
  EXPECT_EQ(C.Rotations, Steps.size());

  for (size_t K = 0; K < Steps.size(); ++K) {
    Ciphertext Want = Eval->rotateLeft(Ct, Steps[K], Gk);
    ASSERT_EQ(Rotated[K].size(), Want.size()) << "step " << Steps[K];
    EXPECT_EQ(Rotated[K].Scale, Want.Scale);
    for (size_t P = 0; P < Want.size(); ++P)
      EXPECT_EQ(Rotated[K].Polys[P].Comps, Want.Polys[P].Comps)
          << "step " << Steps[K] << " poly " << P;
  }
}

TEST_F(CkksFixture, RotateHoistedMatchesCyclicShiftAtLowerLevel) {
  // Hoisting after rescale (fewer limbs) still decrypts to the rotation.
  GaloisKeys Gk = Gen->createGaloisKeys({3, 300});
  std::vector<double> In = randomVector(2048, -1.0, 1.0, 31);
  Ciphertext Ct = Eval->rescale(
      encryptVec(In, std::ldexp(1.0, 80), 3)); // drop one prime
  std::vector<Ciphertext> R = Eval->rotateHoisted(Ct, {3, 300}, Gk);
  std::vector<double> A = decryptVec(R[0]);
  std::vector<double> B = decryptVec(R[1]);
  for (size_t I = 0; I < 2048; ++I) {
    EXPECT_NEAR(A[I], In[(I + 3) % 2048], 1e-5) << "slot " << I;
    EXPECT_NEAR(B[I], In[(I + 300) % 2048], 1e-5) << "slot " << I;
  }
}

TEST(Galois, EltFromStepMatchesPowersOfFive) {
  EXPECT_EQ(galoisEltFromStep(1, 2048), 5u);
  EXPECT_EQ(galoisEltFromStep(2, 2048), 25u);
  EXPECT_EQ(galoisEltFromStep(3, 2048), 125u);
}

TEST(Galois, ApplyGaloisCompPermutesWithSign) {
  Modulus Q(97);
  uint64_t N = 8;
  std::vector<uint64_t> In = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint64_t> Out(N);
  applyGaloisComp(In, Out, /*GaloisElt=*/3, N, Q);
  // X^i -> X^{3i mod 16}; indices >= 8 negate: i=0->0, 1->3, 2->6, 3->9=>1
  // (neg), 4->12=>4 (neg), 5->15=>7 (neg), 6->18mod16=2, 7->21mod16=5.
  EXPECT_EQ(Out[0], 1u);
  EXPECT_EQ(Out[3], 2u);
  EXPECT_EQ(Out[6], 3u);
  EXPECT_EQ(Out[1], 97u - 4u);
  EXPECT_EQ(Out[4], 97u - 5u);
  EXPECT_EQ(Out[7], 97u - 6u);
  EXPECT_EQ(Out[2], 7u);
  EXPECT_EQ(Out[5], 8u);
}

/// Pins the SIMD dispatch level for a scope and restores the prior level.
class ScopedSimdLevel {
public:
  explicit ScopedSimdLevel(SimdLevel L) : Saved(activeSimdLevel()) {
    setSimdLevelForTesting(L);
  }
  ~ScopedSimdLevel() { setSimdLevelForTesting(Saved); }

private:
  SimdLevel Saved;
};

TEST(Galois, NttPermutationMatchesRoundTrip) {
  // The oracle for the NTT-domain automorphism: an inverse NTT, the
  // coefficient permutation and a forward NTT, built from public pieces.
  std::vector<SimdLevel> Levels = {SimdLevel::Scalar};
  if (avx2Available())
    Levels.push_back(SimdLevel::Avx2);
  size_t Limbs = 0;
  for (SimdLevel L : Levels) {
    ScopedSimdLevel Pin(L);
    for (uint64_t N : {4096u, 8192u, 16384u}) {
      auto Ctx = makeContext(N, {60, 40, 40, 60});
      std::vector<uint64_t> Perm(N), In(N), Want(N), Coeff(N), Got(N);
      for (uint64_t Step : {uint64_t(1), uint64_t(2), uint64_t(3),
                            uint64_t(7), uint64_t(100), N / 4, N / 2 - 1}) {
        uint64_t G = galoisEltFromStep(Step, N);
        galoisNttPermutation(G, N, Perm);
        for (size_t P = 0; P < Ctx->totalPrimeCount(); ++P) {
          const Modulus &Q = Ctx->prime(P);
          RandomSource Rng(N * 1000 + Step * 10 + P);
          for (uint64_t &V : In)
            V = Rng.uniformBelow(Q.value());
          Coeff = In;
          Ctx->ntt(P).inverse(Coeff);
          applyGaloisComp(Coeff, Want, G, N, Q);
          Ctx->ntt(P).forward(Want);
          applyGaloisNtt(In, Perm, Got);
          EXPECT_EQ(Got, Want) << simdLevelName(L) << " N=" << N
                               << " step=" << Step << " prime " << P;
          ++Limbs;
        }
      }
    }
  }
  EXPECT_EQ(Limbs, Levels.size() * 3 * 7 * 4);
}

TEST_F(CkksFixture, RotationNttChargesMatchTheCostModel) {
  // At L data primes: the automorphisms are gathers (no NTT), a
  // decomposition is L inverse NTTs, extending the digits transforms each
  // under the L other primes (L^2; under its own prime the target limb is
  // reused), and the two mod-downs are L + 1 NTTs each. A hoist batch
  // decomposes and extends once, so its members run only the mod-downs.
  GaloisKeys Gk = Gen->createGaloisKeys({1, 5});
  RelinKeys Rk = Gen->createRelinKeys();
  std::vector<double> In = randomVector(2048, -1.0, 1.0, 17);
  Ciphertext Ct = encryptVec(In, std::ldexp(1.0, 40), 3);
  for (uint64_t L = 3; L >= 2; --L) {
    SCOPED_TRACE("L=" + std::to_string(L));
    ASSERT_EQ(Ct.primeCount(), L);
    uint64_t Extension = L + L * L;
    uint64_t ModDown = 2 * (L + 1);
    ExecutionStats Rot, Decompose, Member, Relin;
    {
      LedgerScope Scope(&Rot);
      (void)Eval->rotateLeft(Ct, 1, Gk);
    }
    EXPECT_EQ(Rot.Ntts, Extension + ModDown);
    Evaluator::KeySwitchDigits Digits;
    {
      LedgerScope Scope(&Decompose);
      Digits = Eval->decomposeForRotation(Ct);
    }
    EXPECT_EQ(Decompose.Ntts, Extension);
    EXPECT_EQ(Decompose.KeySwitchDecompositions, 1u);
    EXPECT_EQ(Digits.bytes(), L * L * 4096 * sizeof(uint64_t));
    {
      LedgerScope Scope(&Member);
      (void)Eval->rotateDecomposed(Ct, Digits, 5, Gk);
    }
    EXPECT_EQ(Member.Ntts, ModDown);
    EXPECT_EQ(Member.KeySwitchDecompositions, 0u);
    Ciphertext Product = Eval->multiply(Ct, Ct);
    {
      LedgerScope Scope(&Relin);
      (void)Eval->relinearize(Product, Rk);
    }
    EXPECT_EQ(Relin.Ntts, Extension + ModDown);
    Ct = Eval->modSwitch(Ct);
  }
}

TEST(KeySwitchPrecision, OneRotationKeepsEverySlotWithin1e4) {
  // Key-switch digits lifted to [0, q_i) instead of (-q_i/2, q_i/2) pile
  // the key error up in the first slots of a rotation: 1.07e-3 over these
  // seeds. Centered digits keep every slot, slot 0 included, near 5e-5.
  auto Ctx = makeContext(8192, {60, 40, 60});
  CkksEncoder Enc(Ctx);
  Evaluator Eval(Ctx);
  const size_t Width = 64;
  double Worst = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    KeyGenerator Gen(Ctx, Seed);
    Encryptor Encryptor_(Ctx, 1000 + Seed);
    Decryptor Dec(Ctx, Gen.secretKey());
    GaloisKeys Gk = Gen.createGaloisKeys({1});
    std::vector<double> In = randomVector(Width, -1.0, 1.0, Seed);
    Plaintext Pt;
    Enc.encode(In, std::ldexp(1.0, 30), 2, Pt);
    uint64_t EncSeed = 0;
    Ciphertext Ct = Encryptor_.encryptSymmetric(Pt, Gen.secretKey(), EncSeed);
    std::vector<double> Out =
        Enc.decode(Dec.decrypt(Eval.rotateLeft(Ct, 1, Gk)));
    ASSERT_EQ(Out.size(), Ctx->slotCount());
    for (size_t I = 0; I < Out.size(); ++I)
      Worst = std::max(Worst, std::abs(Out[I] - In[(I + 1) % Width]));
  }
  EXPECT_LT(Worst, 1e-4);
}

/// FNV-1a over the little-endian bytes of \p V.
uint64_t hashWord(uint64_t V, uint64_t State) {
  char Bytes[8];
  for (int I = 0; I < 8; ++I)
    Bytes[I] = static_cast<char>((V >> (8 * I)) & 0xFF);
  return fnv1a64(std::string_view(Bytes, 8), State);
}

/// FNV-1a over every residue and every expansion seed of a key-switching
/// key, in digit order.
uint64_t hashKSwitchKey(const KSwitchKey &Key, uint64_t State) {
  for (const std::array<RnsPoly, 2> &Digit : Key.Keys)
    for (const RnsPoly &P : Digit)
      for (const std::vector<uint64_t> &Comp : P.Comps)
        for (uint64_t V : Comp)
          State = hashWord(V, State);
  for (uint64_t Seed : Key.C1Seeds)
    State = hashWord(Seed, State);
  return State;
}

struct KeyGenOutcome {
  uint64_t Hash = 0;
  uint64_t NextUniform = 0; ///< rng().uniform64() after key generation
  uint64_t NextSeed = 0;    ///< deriveSeed() after key generation
};

/// Relinearization key plus 24 Galois keys at N = 16384 in reproducible
/// mode, on a pool of \p PoolSize threads (0 = the default transient pool).
KeyGenOutcome generateKeys(size_t PoolSize) {
  auto Ctx = makeContext(16384, {50, 40, 40, 50});
  KeyGenerator Gen(Ctx, 4242, /*ReproducibleExpansionSeeds=*/true);
  std::set<uint64_t> Steps;
  for (uint64_t S = 1; S <= 20; ++S)
    Steps.insert(S);
  Steps.insert({64, 100, 1000, 4095});
  std::optional<ThreadPool> Pool;
  if (PoolSize != 0)
    Pool.emplace(PoolSize);
  ThreadPool *P = Pool ? &*Pool : nullptr;
  RelinKeys Rk = Gen.createRelinKeys(P);
  GaloisKeys Gk = Gen.createGaloisKeys(Steps, P);
  EXPECT_EQ(Gk.Keys.size(), 24u);
  KeyGenOutcome Out;
  Out.Hash = hashKSwitchKey(Rk.Key, fnv1a64({}));
  for (const auto &[G, Key] : Gk.Keys)
    Out.Hash = hashKSwitchKey(Key, hashWord(G, Out.Hash));
  Out.NextUniform = Gen.rng().uniform64();
  Out.NextSeed = Gen.deriveSeed();
  return Out;
}

TEST(KeyGen, ParallelKeysBitIdenticalAtEveryPoolSize) {
  // Pinned on the serial key generator that predates the pool: any change
  // to the draw order or to the build arithmetic moves this hash.
  constexpr uint64_t GoldenHash = 0x2dc71969fb5b71aeull;
  KeyGenOutcome Serial = generateKeys(1);
  EXPECT_EQ(Serial.Hash, GoldenHash);
  for (size_t PoolSize : {2, 4, 0}) {
    KeyGenOutcome Parallel = generateKeys(PoolSize);
    EXPECT_EQ(Parallel.Hash, GoldenHash) << "pool size " << PoolSize;
    // The secret-sampling and seed streams end where the serial run's do.
    EXPECT_EQ(Parallel.NextUniform, Serial.NextUniform)
        << "pool size " << PoolSize;
    EXPECT_EQ(Parallel.NextSeed, Serial.NextSeed) << "pool size " << PoolSize;
  }
}

TEST(KeyGen, TrimmedKeysAreTheFullKeysLimbs) {
  // A key at L primes keeps digits 0..L-1 of the full key, each over data
  // primes 0..L-1 and the special prime, with the full key's values: every
  // digit is drawn as for a full key and c1 is expanded over every prime.
  // So the streams also end where the full run's do, at every pool size.
  auto Ctx = makeContext(8192, {50, 40, 40, 50});
  const size_t DataPrimes = Ctx->dataPrimeCount(), Special = 3;
  ASSERT_EQ(DataPrimes, 3u);
  ASSERT_EQ(Ctx->specialPrimeIndex(), Special);
  std::set<uint64_t> Steps;
  std::map<uint64_t, size_t> Levels;
  for (uint64_t S : {1, 2, 3, 5, 8, 13, 21, 100, 1000, 4095}) {
    Steps.insert(S);
    Levels[S] = 1 + S % DataPrimes;
  }
  for (size_t PoolSize : {1, 2, 4}) {
    SCOPED_TRACE("pool size " + std::to_string(PoolSize));
    ThreadPool Pool(PoolSize);
    KeyGenerator FullGen(Ctx, 4242, /*ReproducibleExpansionSeeds=*/true);
    KeyGenerator TrimGen(Ctx, 4242, /*ReproducibleExpansionSeeds=*/true);
    GaloisKeys Full = FullGen.createGaloisKeys(Steps, &Pool);
    GaloisKeys Trim = TrimGen.createGaloisKeysAtLevels(Levels, &Pool);
    ASSERT_EQ(Trim.Keys.size(), Full.Keys.size());
    for (auto [Step, L] : Levels) {
      uint64_t G = galoisEltFromStep(Step, Ctx->polyDegree());
      const KSwitchKey &F = Full.at(G), &T = Trim.at(G);
      ASSERT_EQ(F.Keys.size(), DataPrimes);
      ASSERT_EQ(T.Keys.size(), L) << "step " << Step;
      EXPECT_EQ(T.C1Seeds, std::vector<uint64_t>(F.C1Seeds.begin(),
                                                 F.C1Seeds.begin() + L));
      for (size_t I = 0; I < L; ++I)
        for (size_t W = 0; W < 2; ++W) {
          ASSERT_EQ(T.Keys[I][W].primeCount(), L + 1);
          for (size_t Limb = 0; Limb <= L; ++Limb)
            EXPECT_EQ(T.Keys[I][W].Comps[Limb],
                      F.Keys[I][W].Comps[keyLimbPrime(L, Limb, Special)])
                << "step " << Step << " digit " << I << " poly " << W
                << " limb " << Limb;
        }
      // A full key cut to the same level is the same key.
      KSwitchKey Cut = F;
      Cut.trimTo(L);
      EXPECT_EQ(Cut.C1Seeds, T.C1Seeds);
      for (size_t I = 0; I < L; ++I)
        for (size_t W = 0; W < 2; ++W)
          EXPECT_EQ(Cut.Keys[I][W].Comps, T.Keys[I][W].Comps);
    }
    EXPECT_EQ(TrimGen.rng().uniform64(), FullGen.rng().uniform64());
    EXPECT_EQ(TrimGen.deriveSeed(), FullGen.deriveSeed());
  }
}

TEST_F(CkksFixture, NoiseStaysBoundedThroughDeepChain) {
  // Repeated plaintext multiplies and rescales: scale returns near the
  // waterline each level and error stays small.
  std::vector<double> X = randomVector(2048, 0.5, 1.0, 91);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext Ct = encryptVec(X, Scale, 3);
  std::vector<double> Want = X;
  for (int Level = 0; Level < 2; ++Level) {
    Plaintext P;
    std::vector<double> HalfV = {0.5};
    Enc->encode(HalfV, Scale, Ct.primeCount(), P);
    Ct = Eval->rescale(Eval->multiplyPlain(Ct, P));
    for (double &W : Want)
      W *= 0.5;
  }
  std::vector<double> Out = decryptVec(Ct);
  EXPECT_LT(maxAbsDiff(Want, Out), 1e-4);
}

} // namespace
