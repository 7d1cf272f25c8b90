//===- MathTest.cpp - Unit tests for the math substrate --------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/math/BigUInt.h"
#include "eva/math/CRT.h"
#include "eva/math/Modulus.h"
#include "eva/math/NTT.h"
#include "eva/math/Primes.h"
#include "eva/math/Simd.h"
#include "eva/support/BitOps.h"
#include "eva/support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

TEST(BitOps, PowerOfTwo) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(2));
  EXPECT_TRUE(isPowerOfTwo(1ull << 63));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(3));
  EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(BitOps, Log2Exact) {
  EXPECT_EQ(log2Exact(1), 0u);
  EXPECT_EQ(log2Exact(1024), 10u);
  EXPECT_EQ(log2Exact(1ull << 60), 60u);
}

TEST(BitOps, ReverseBits) {
  EXPECT_EQ(reverseBits(0b001, 3), 0b100u);
  EXPECT_EQ(reverseBits(0b110, 3), 0b011u);
  EXPECT_EQ(reverseBits(1, 10), 512u);
  for (uint64_t X = 0; X < 64; ++X)
    EXPECT_EQ(reverseBits(reverseBits(X, 6), 6), X);
  // Every width against a bit-by-bit reference; bits above the width are
  // ignored.
  RandomSource Rng(5);
  for (unsigned Bits = 0; Bits <= 64; ++Bits) {
    uint64_t X = Rng.uniform64();
    uint64_t Want = 0;
    for (unsigned I = 0; I < Bits; ++I)
      Want |= ((X >> I) & 1) << (Bits - 1 - I);
    EXPECT_EQ(reverseBits(X, Bits), Want) << "width " << Bits;
  }
}

TEST(BitOps, BitLength) {
  EXPECT_EQ(bitLength(0), 0u);
  EXPECT_EQ(bitLength(1), 1u);
  EXPECT_EQ(bitLength(255), 8u);
  EXPECT_EQ(bitLength(256), 9u);
}

TEST(Modulus, BarrettMatchesInt128) {
  RandomSource Rng(42);
  for (unsigned Bits : {20u, 30u, 40u, 50u, 59u, 60u}) {
    uint64_t Q = (uint64_t(1) << Bits) - 1;
    while (!isPrime(Q))
      --Q;
    Modulus M(Q);
    for (int I = 0; I < 2000; ++I) {
      uint64_t A = Rng.uniform64() % Q;
      uint64_t B = Rng.uniform64() % Q;
      uint64_t Expected = static_cast<uint64_t>(Uint128(A) * B % Q);
      EXPECT_EQ(mulMod(A, B, M), Expected);
    }
    // Full 128-bit reduction stress.
    for (int I = 0; I < 2000; ++I) {
      Uint128 X = (Uint128(Rng.uniform64()) << 64) | Rng.uniform64();
      EXPECT_EQ(M.reduce128(X), static_cast<uint64_t>(X % Q));
    }
  }
}

TEST(Modulus, ShoupMatchesBarrett) {
  RandomSource Rng(7);
  uint64_t Q = (uint64_t(1) << 50) - 27;
  ASSERT_TRUE(isPrime(Q));
  Modulus M(Q);
  for (int I = 0; I < 2000; ++I) {
    uint64_t W = Rng.uniform64() % Q;
    uint64_t X = Rng.uniform64() % Q;
    ShoupMul S(W, M);
    EXPECT_EQ(mulModShoup(X, S, M), mulMod(X, W, M));
  }
}

TEST(Modulus, AddSubNegate) {
  Modulus M(97);
  EXPECT_EQ(addMod(90, 10, M), 3u);
  EXPECT_EQ(subMod(3, 10, M), 90u);
  EXPECT_EQ(negateMod(0, M), 0u);
  EXPECT_EQ(negateMod(1, M), 96u);
}

TEST(Modulus, PowAndInverse) {
  Modulus M(1000000007ull);
  EXPECT_EQ(powMod(2, 10, M), 1024u);
  for (uint64_t A : {2ull, 3ull, 123456789ull}) {
    uint64_t Inv = invMod(A, M);
    EXPECT_EQ(mulMod(A, Inv, M), 1u);
  }
}

TEST(Primes, MillerRabinKnownValues) {
  EXPECT_TRUE(isPrime(2));
  EXPECT_TRUE(isPrime(3));
  EXPECT_TRUE(isPrime(97));
  EXPECT_TRUE(isPrime((uint64_t(1) << 61) - 1)); // Mersenne prime
  EXPECT_FALSE(isPrime(1));
  EXPECT_FALSE(isPrime(561));     // Carmichael number
  EXPECT_FALSE(isPrime(6601));    // Carmichael number
  EXPECT_FALSE(isPrime(1ull << 40));
}

TEST(Primes, GenerateNttPrimes) {
  Expected<std::vector<uint64_t>> Ps = generateNttPrimes(4096, 40, 5);
  ASSERT_TRUE(Ps.ok());
  ASSERT_EQ(Ps->size(), 5u);
  for (uint64_t P : *Ps) {
    EXPECT_TRUE(isPrime(P));
    EXPECT_EQ((P - 1) % 8192, 0u);
    EXPECT_EQ(bitLength(P), 40u);
  }
  // Distinctness.
  for (size_t I = 0; I < Ps->size(); ++I)
    for (size_t J = I + 1; J < Ps->size(); ++J)
      EXPECT_NE((*Ps)[I], (*Ps)[J]);
}

TEST(Primes, CreateCoeffModulusRespectsSizesAndExclusion) {
  Expected<std::vector<uint64_t>> Ps = createCoeffModulus(8192, {60, 40, 40, 60});
  ASSERT_TRUE(Ps.ok());
  ASSERT_EQ(Ps->size(), 4u);
  EXPECT_EQ(bitLength((*Ps)[0]), 60u);
  EXPECT_EQ(bitLength((*Ps)[1]), 40u);
  EXPECT_EQ(bitLength((*Ps)[2]), 40u);
  EXPECT_EQ(bitLength((*Ps)[3]), 60u);
  EXPECT_NE((*Ps)[1], (*Ps)[2]);
  EXPECT_NE((*Ps)[0], (*Ps)[3]);
}

TEST(Primes, RejectsOutOfRangeBitSizes) {
  EXPECT_FALSE(createCoeffModulus(8192, {61}).ok());
  EXPECT_FALSE(createCoeffModulus(8192, {0}).ok());
  EXPECT_FALSE(generateNttPrimes(8192, 10, 1).ok()); // smaller than 2N
}

class NttRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NttRoundTrip, ForwardInverseIsIdentity) {
  uint64_t N = GetParam();
  Expected<std::vector<uint64_t>> Ps = generateNttPrimes(N, 50, 1);
  ASSERT_TRUE(Ps.ok());
  Modulus Q((*Ps)[0]);
  NttTables T(N, Q);
  RandomSource Rng(N);
  std::vector<uint64_t> X(N), Orig(N);
  for (uint64_t I = 0; I < N; ++I)
    Orig[I] = X[I] = Rng.uniformBelow(Q.value());
  T.forward(X);
  T.inverse(X);
  EXPECT_EQ(X, Orig);
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttRoundTrip,
                         ::testing::Values(8, 16, 64, 256, 1024, 4096));

/// Naive negacyclic convolution for cross-checking the NTT.
static std::vector<uint64_t> naiveNegacyclic(const std::vector<uint64_t> &A,
                                             const std::vector<uint64_t> &B,
                                             const Modulus &Q) {
  size_t N = A.size();
  std::vector<uint64_t> C(N, 0);
  for (size_t I = 0; I < N; ++I) {
    for (size_t J = 0; J < N; ++J) {
      uint64_t P = mulMod(A[I], B[J], Q);
      size_t K = I + J;
      if (K < N)
        C[K] = addMod(C[K], P, Q);
      else
        C[K - N] = subMod(C[K - N], P, Q);
    }
  }
  return C;
}

TEST(Ntt, PointwiseProductIsNegacyclicConvolution) {
  uint64_t N = 128;
  Expected<std::vector<uint64_t>> Ps = generateNttPrimes(N, 40, 1);
  ASSERT_TRUE(Ps.ok());
  Modulus Q((*Ps)[0]);
  NttTables T(N, Q);
  RandomSource Rng(5);
  std::vector<uint64_t> A(N), B(N);
  for (uint64_t I = 0; I < N; ++I) {
    A[I] = Rng.uniformBelow(Q.value());
    B[I] = Rng.uniformBelow(Q.value());
  }
  std::vector<uint64_t> Want = naiveNegacyclic(A, B, Q);
  std::vector<uint64_t> FA = A, FB = B;
  T.forward(FA);
  T.forward(FB);
  std::vector<uint64_t> C(N);
  for (uint64_t I = 0; I < N; ++I)
    C[I] = mulMod(FA[I], FB[I], Q);
  T.inverse(C);
  EXPECT_EQ(C, Want);
}

//===----------------------------------------------------------------------===//
// SIMD differential battery: the dispatched AVX2 path must be byte-identical
// to the scalar oracle across every supported modulus size, including primes
// near 2^60 where the lazy [0, 4q) butterfly intermediates are closest to
// the signed-compare ceiling.
//===----------------------------------------------------------------------===//

/// Pins the dispatch level for a scope and restores the prior level on exit.
class ScopedSimdLevel {
public:
  explicit ScopedSimdLevel(SimdLevel L) : Saved(activeSimdLevel()) {
    setSimdLevelForTesting(L);
  }
  ~ScopedSimdLevel() { setSimdLevelForTesting(Saved); }

private:
  SimdLevel Saved;
};

TEST(NttSimd, DispatchedMatchesScalarAcrossModuli) {
  if (!avx2Available())
    GTEST_SKIP() << "AVX2 kernels not available on this host";
  RandomSource Rng(2026);
  for (unsigned Bits : {30u, 40u, 50u, 59u, 60u}) {
    for (uint64_t N : {uint64_t(16), uint64_t(64), uint64_t(1024),
                       uint64_t(8192)}) {
      Expected<std::vector<uint64_t>> Ps = generateNttPrimes(N, Bits, 1);
      ASSERT_TRUE(Ps.ok()) << "bits=" << Bits << " N=" << N;
      Modulus Q((*Ps)[0]);
      NttTables T(N, Q);
      // Two stress inputs: uniform random, and all-(q-1) — the saturation
      // pattern that maximizes every lazy-reduction intermediate.
      std::vector<std::vector<uint64_t>> Inputs(2, std::vector<uint64_t>(N));
      for (uint64_t I = 0; I < N; ++I)
        Inputs[0][I] = Rng.uniformBelow(Q.value());
      std::fill(Inputs[1].begin(), Inputs[1].end(), Q.value() - 1);
      for (const std::vector<uint64_t> &In : Inputs) {
        std::vector<uint64_t> Ref = In, Vec = In;
        T.forwardScalar(Ref);
        {
          ScopedSimdLevel Pin(SimdLevel::Avx2);
          T.forward(Vec);
        }
        ASSERT_EQ(Vec, Ref) << "forward bits=" << Bits << " N=" << N;
        T.inverseScalar(Ref);
        {
          ScopedSimdLevel Pin(SimdLevel::Avx2);
          T.inverse(Vec);
        }
        ASSERT_EQ(Vec, Ref) << "inverse bits=" << Bits << " N=" << N;
        EXPECT_EQ(Vec, In) << "round trip bits=" << Bits << " N=" << N;
      }
    }
  }
}

TEST(NttSimd, ScalarLevelUsesOracle) {
  // Whatever the host supports, pinning Scalar must reproduce the oracle
  // (i.e. the dispatcher honors the level, not just CPU capability).
  uint64_t N = 64;
  Expected<std::vector<uint64_t>> Ps = generateNttPrimes(N, 40, 1);
  ASSERT_TRUE(Ps.ok());
  Modulus Q((*Ps)[0]);
  NttTables T(N, Q);
  RandomSource Rng(11);
  std::vector<uint64_t> In(N);
  for (uint64_t I = 0; I < N; ++I)
    In[I] = Rng.uniformBelow(Q.value());
  std::vector<uint64_t> Ref = In, Vec = In;
  T.forwardScalar(Ref);
  {
    ScopedSimdLevel Pin(SimdLevel::Scalar);
    T.forward(Vec);
  }
  EXPECT_EQ(Vec, Ref);
}

TEST(NttSimd, FusedMulAccMatchesScalar) {
  if (!avx2Available())
    GTEST_SKIP() << "AVX2 kernels not available on this host";
  RandomSource Rng(7);
  const uint64_t N = 256;
  std::vector<uint64_t> X(N), K0(N), K1(N);
  std::vector<uint64_t> Lo0A(N), Hi0A(N), Lo1A(N), Hi1A(N);
  for (uint64_t I = 0; I < N; ++I) {
    // Full-width operands and near-saturated accumulators exercise both the
    // 128-bit product split and the carry propagation into the high word.
    X[I] = Rng.uniform64();
    K0[I] = Rng.uniform64();
    K1[I] = Rng.uniform64();
    Lo0A[I] = ~uint64_t(0) - Rng.uniformBelow(4);
    Hi0A[I] = Rng.uniform64();
    Lo1A[I] = Rng.uniform64();
    Hi1A[I] = Rng.uniform64();
  }
  std::vector<uint64_t> Lo0B = Lo0A, Hi0B = Hi0A, Lo1B = Lo1A, Hi1B = Hi1A;
  simd::fusedMulAcc128Scalar(X.data(), K0.data(), K1.data(), Lo0A.data(),
                             Hi0A.data(), Lo1A.data(), Hi1A.data(), N);
  ASSERT_TRUE(simd::fusedMulAcc128Avx2(X.data(), K0.data(), K1.data(),
                                       Lo0B.data(), Hi0B.data(), Lo1B.data(),
                                       Hi1B.data(), N));
  EXPECT_EQ(Lo0B, Lo0A);
  EXPECT_EQ(Hi0B, Hi0A);
  EXPECT_EQ(Lo1B, Lo1A);
  EXPECT_EQ(Hi1B, Hi1A);
}

TEST(NttSimd, CenteredShiftMatchesScalar) {
  if (!avx2Available())
    GTEST_SKIP() << "AVX2 kernels not available on this host";
  // Digits of a prime q_i shifted toward a prime q_r above and below it,
  // as key switching's centered lift does; both halves of the range hit.
  RandomSource Rng(11);
  const uint64_t N = 256;
  const uint64_t Pairs[][2] = {{1099511480321ull, 1152921504606830593ull},
                               {1099511480321ull, 1099510890497ull},
                               {1099510890497ull, 1099511480321ull}};
  for (const auto &[Qi, Qr] : Pairs) {
    std::vector<uint64_t> In(N), Want(N), Got(N);
    for (uint64_t &V : In)
      V = Rng.uniformBelow(Qi);
    In[0] = Qi / 2;
    In[1] = Qi / 2 + 1;
    simd::centeredShiftScalar(In.data(), Want.data(), N, Qi / 2, Qr - Qi);
    ASSERT_TRUE(simd::centeredShiftAvx2(In.data(), Got.data(), N, Qi / 2,
                                        Qr - Qi));
    EXPECT_EQ(Got, Want) << "q_i " << Qi << " q_r " << Qr;
    for (uint64_t V : Want)
      EXPECT_LT(V, Qr);
  }
}

TEST(Ntt, ConstantPolynomialIsConstantInEvaluationForm) {
  uint64_t N = 64;
  Expected<std::vector<uint64_t>> Ps = generateNttPrimes(N, 30, 1);
  ASSERT_TRUE(Ps.ok());
  Modulus Q((*Ps)[0]);
  NttTables T(N, Q);
  std::vector<uint64_t> X(N, 0);
  X[0] = 12345 % Q.value();
  T.forward(X);
  for (uint64_t I = 0; I < N; ++I)
    EXPECT_EQ(X[I], 12345 % Q.value());
}

TEST(BigUInt, MulAddWordAndCompare) {
  BigUInt A(7);
  A.mulAddWord(10, 3); // 73
  EXPECT_EQ(A.words().size(), 1u);
  EXPECT_EQ(A.words()[0], 73u);
  BigUInt B(0);
  B.mulAddWord(100, 73);
  EXPECT_EQ(A.compare(B), 0);
  A.mulAddWord(~uint64_t(0), 0); // grows beyond one word
  EXPECT_EQ(A.words().size(), 2u);
  EXPECT_GT(A.compare(B), 0);
}

TEST(BigUInt, RsubAndShift) {
  BigUInt Q(1);
  for (int I = 0; I < 3; ++I)
    Q.mulAddWord(uint64_t(1) << 60, 0); // 2^180
  BigUInt Half = Q;
  Half.shiftRightOne();
  BigUInt X = Half;
  X.rsubFrom(Q); // Q - Q/2 == Q/2 (Q even)
  EXPECT_EQ(X.compare(Half), 0);
}

TEST(BigUInt, ToLongDouble) {
  BigUInt A(1);
  A.mulAddWord(uint64_t(1) << 32, 0);
  A.mulAddWord(uint64_t(1) << 32, 0); // 2^64
  long double V = A.toLongDouble();
  EXPECT_NEAR(static_cast<double>(V / 18446744073709551616.0L), 1.0, 1e-15);
}

TEST(Crt, ComposeSmallKnownValues) {
  std::vector<Modulus> Ms = {Modulus(97), Modulus(101)};
  CrtComposer C(Ms);
  // Value 4000 (below Q/2 = 4898): residues mod 97 and 101.
  std::vector<uint64_t> R0 = {4000 % 97};
  std::vector<uint64_t> R1 = {4000 % 101};
  const uint64_t *Ptrs[2] = {R0.data(), R1.data()};
  EXPECT_NEAR(static_cast<double>(C.composeCentered(Ptrs, 0)), 4000.0, 1e-9);
  // A value above Q/2 is interpreted as negative: 5000 - 9797 = -4797.
  std::vector<uint64_t> H0 = {5000 % 97};
  std::vector<uint64_t> H1 = {5000 % 101};
  const uint64_t *HPtrs[2] = {H0.data(), H1.data()};
  EXPECT_NEAR(static_cast<double>(C.composeCentered(HPtrs, 0)), -4797.0,
              1e-9);
  // Negative value -123 mod 97*101 = 9797.
  std::vector<uint64_t> N0 = {static_cast<uint64_t>(((-123 % 97) + 97) % 97)};
  std::vector<uint64_t> N1 = {
      static_cast<uint64_t>(((-123 % 101) + 101) % 101)};
  const uint64_t *NPtrs[2] = {N0.data(), N1.data()};
  EXPECT_NEAR(static_cast<double>(C.composeCentered(NPtrs, 0)), -123.0, 1e-9);
}

TEST(Crt, ComposeRandomRoundTrip60BitPrimes) {
  Expected<std::vector<uint64_t>> Ps = generateNttPrimes(1024, 55, 4);
  ASSERT_TRUE(Ps.ok());
  std::vector<Modulus> Ms;
  for (uint64_t P : *Ps)
    Ms.emplace_back(P);
  CrtComposer C(Ms);
  RandomSource Rng(99);
  for (int Trial = 0; Trial < 50; ++Trial) {
    // Pick a signed double-magnitude value well inside Q.
    double Value = (Rng.uniformReal(-1.0, 1.0)) * std::ldexp(1.0, 90);
    long double LV = static_cast<long double>(Value);
    bool Neg = LV < 0;
    long double Mag = Neg ? -LV : LV;
    std::vector<std::vector<uint64_t>> Res(Ms.size());
    std::vector<const uint64_t *> Ptrs(Ms.size());
    for (size_t I = 0; I < Ms.size(); ++I) {
      long double Q = static_cast<long double>(Ms[I].value());
      uint64_t R = static_cast<uint64_t>(std::fmod(Mag, Q));
      if (Neg && R != 0)
        R = Ms[I].value() - R;
      Res[I] = {R};
      Ptrs[I] = Res[I].data();
    }
    long double Out = C.composeCentered(Ptrs.data(), 0);
    EXPECT_NEAR(static_cast<double>(Out / LV), 1.0, 1e-9);
  }
}

} // namespace
