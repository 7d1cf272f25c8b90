//===- NTT.cpp - Negacyclic number-theoretic transform --------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/math/NTT.h"

#include "eva/math/Simd.h"
#include "eva/support/BitOps.h"
#include "eva/support/CostLedger.h"
#include "eva/support/Random.h"

#include <string>

using namespace eva;

uint64_t eva::findPrimitiveRoot(uint64_t Order, const Modulus &Q) {
  assert(isPowerOfTwo(Order) && "order must be a power of two");
  uint64_t GroupOrder = Q.value() - 1;
  assert(GroupOrder % Order == 0 && "order does not divide q - 1");
  uint64_t Quotient = GroupOrder / Order;
  // Random candidates raised to (q-1)/Order give Order-th roots; check
  // primitivity by squaring up to Order/2.
  RandomSource Rng(0xEFA5EED5u + Q.value());
  for (int Attempt = 0; Attempt < 1000; ++Attempt) {
    uint64_t Candidate =
        powMod(2 + Rng.uniformBelow(Q.value() - 3), Quotient, Q);
    if (Candidate == 0 || Candidate == 1)
      continue;
    if (powMod(Candidate, Order / 2, Q) == Q.value() - 1)
      return Candidate;
  }
  fatalError("failed to find primitive root for modulus " +
             std::to_string(Q.value()));
}

NttTables::NttTables(uint64_t Degree, const Modulus &Modul)
    : N(Degree), Q(Modul) {
  if (!isPowerOfTwo(N))
    fatalError("NTT degree must be a power of two");
  if ((Q.value() - 1) % (2 * N) != 0)
    fatalError("modulus " + std::to_string(Q.value()) +
               " is not NTT-friendly for degree " + std::to_string(N));
  unsigned LogN = log2Exact(N);
  uint64_t Psi = findPrimitiveRoot(2 * N, Q);
  uint64_t PsiInv = invMod(Psi, Q);

  RootPowers.resize(N);
  InvRootPowers.resize(N);
  uint64_t Power = 1;
  uint64_t InvPower = 1;
  std::vector<uint64_t> Fwd(N), Inv(N);
  for (uint64_t I = 0; I < N; ++I) {
    Fwd[I] = Power;
    Inv[I] = InvPower;
    Power = mulMod(Power, Psi, Q);
    InvPower = mulMod(InvPower, PsiInv, Q);
  }
  for (uint64_t I = 0; I < N; ++I) {
    RootPowers[I] = ShoupMul(Fwd[reverseBits(I, LogN)], Q);
    InvRootPowers[I] = ShoupMul(Inv[reverseBits(I, LogN)], Q);
  }
  InvDegree = ShoupMul(invMod(N, Q), Q);

  // Structure-of-arrays mirrors for the AVX2 kernels, built once here so the
  // hot path never touches ShoupMul's interleaved layout.
  RootOp.resize(N);
  RootQuot.resize(N);
  InvRootOp.resize(N);
  InvRootQuot.resize(N);
  for (uint64_t I = 0; I < N; ++I) {
    RootOp[I] = RootPowers[I].Operand;
    RootQuot[I] = RootPowers[I].Quotient;
    InvRootOp[I] = InvRootPowers[I].Operand;
    InvRootQuot[I] = InvRootPowers[I].Quotient;
  }
}

void NttTables::forward(std::span<uint64_t> Values) const {
  assert(Values.size() == N && "value count mismatch");
  charge(&ExecutionStats::Ntts);
  charge(&ExecutionStats::MulMods, (N / 2) * log2Exact(N));
  if (activeSimdLevel() == SimdLevel::Avx2 &&
      simd::nttForwardAvx2(Values.data(), N, RootOp.data(), RootQuot.data(),
                           Q.value()))
    return;
  forwardScalar(Values);
}

void NttTables::inverse(std::span<uint64_t> Values) const {
  assert(Values.size() == N && "value count mismatch");
  charge(&ExecutionStats::Ntts);
  charge(&ExecutionStats::MulMods, (N / 2) * log2Exact(N) + N);
  if (activeSimdLevel() == SimdLevel::Avx2 &&
      simd::nttInverseAvx2(Values.data(), N, InvRootOp.data(),
                           InvRootQuot.data(), InvDegree.Operand,
                           InvDegree.Quotient, Q.value()))
    return;
  inverseScalar(Values);
}

void NttTables::forwardScalar(std::span<uint64_t> Values) const {
  assert(Values.size() == N && "value count mismatch");
  uint64_t *X = Values.data();
  uint64_t T = N;
  for (uint64_t M = 1; M < N; M <<= 1) {
    T >>= 1;
    for (uint64_t I = 0; I < M; ++I) {
      uint64_t J1 = 2 * I * T;
      uint64_t J2 = J1 + T;
      const ShoupMul &S = RootPowers[M + I];
      for (uint64_t J = J1; J < J2; ++J) {
        uint64_t U = X[J];
        uint64_t V = mulModShoup(X[J + T], S, Q);
        X[J] = addMod(U, V, Q);
        X[J + T] = subMod(U, V, Q);
      }
    }
  }
}

void NttTables::inverseScalar(std::span<uint64_t> Values) const {
  assert(Values.size() == N && "value count mismatch");
  uint64_t *X = Values.data();
  uint64_t T = 1;
  for (uint64_t M = N >> 1; M >= 1; M >>= 1) {
    uint64_t J1 = 0;
    for (uint64_t I = 0; I < M; ++I) {
      uint64_t J2 = J1 + T;
      const ShoupMul &S = InvRootPowers[M + I];
      for (uint64_t J = J1; J < J2; ++J) {
        uint64_t U = X[J];
        uint64_t V = X[J + T];
        X[J] = addMod(U, V, Q);
        X[J + T] = mulModShoup(subMod(U, V, Q), S, Q);
      }
      J1 += 2 * T;
    }
    T <<= 1;
  }
  for (uint64_t J = 0; J < N; ++J)
    X[J] = mulModShoup(X[J], InvDegree, Q);
}
