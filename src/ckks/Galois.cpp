//===- Galois.cpp - Galois automorphisms for rotation ----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Galois.h"

#include "eva/support/Arena.h"
#include "eva/support/ThreadPool.h"

#include <algorithm>

using namespace eva;

uint64_t eva::galoisEltFromStep(uint64_t Steps, uint64_t PolyDegree) {
  uint64_t M = 2 * PolyDegree;
  uint64_t Slots = PolyDegree / 2;
  assert(Steps > 0 && Steps < Slots && "steps out of range");
  (void)Slots;
  uint64_t G = 1;
  for (uint64_t I = 0; I < Steps; ++I)
    G = (G * 5) % M;
  return G;
}

void eva::applyGaloisComp(std::span<const uint64_t> In,
                          std::span<uint64_t> Out, uint64_t GaloisElt,
                          uint64_t PolyDegree, const Modulus &Q) {
  assert(In.size() == PolyDegree && Out.size() == PolyDegree);
  assert((GaloisElt & 1) != 0 && "galois element must be odd");
  uint64_t M = 2 * PolyDegree;
  // X^i -> X^{i*g mod 2N}; X^N == -1 folds indices >= N with a sign flip.
  for (uint64_t I = 0; I < PolyDegree; ++I) {
    uint64_t J = (I * GaloisElt) % M;
    uint64_t V = In[I];
    if (J >= PolyDegree)
      Out[J - PolyDegree] = negateMod(V, Q);
    else
      Out[J] = V;
  }
}

void eva::applyGaloisNttLimb(const CkksContext &Ctx,
                             std::span<const uint64_t> In, size_t PrimeIdx,
                             uint64_t GaloisElt, std::span<uint64_t> Out) {
  const NttTables &Tables = Ctx.ntt(PrimeIdx);
  // Arena scratch: limb bodies run on whichever pool thread claims them,
  // and a fresh 8N-byte heap allocation per limb is measurable.
  LimbScratch Tmp = acquireLimbScratch(In.size());
  std::copy(In.begin(), In.end(), Tmp.data());
  Tables.inverse(Tmp.span());
  applyGaloisComp(Tmp.span(), Out, GaloisElt, In.size(), Ctx.prime(PrimeIdx));
  Tables.forward(Out);
}

RnsPoly eva::applyGaloisNttPoly(const CkksContext &Ctx, const RnsPoly &Poly,
                                uint64_t GaloisElt, bool SpansSpecialPrime,
                                ThreadPool *Pool) {
  size_t Count = Poly.primeCount();
  if (SpansSpecialPrime) {
    assert(Count == Ctx.totalPrimeCount() &&
           "key polynomials must span all primes");
  } else {
    assert(Count <= Ctx.dataPrimeCount() && "too many components");
  }
  RnsPoly Out(Poly.Degree, Count);
  // Each limb round-trips through coefficient form independently.
  auto OneLimb = [&](size_t I) {
    applyGaloisNttLimb(Ctx, Poly.Comps[I], I, GaloisElt, Out.Comps[I]);
  };
  if (Pool) {
    Pool->parallelFor(Count, OneLimb);
  } else {
    for (size_t I = 0; I < Count; ++I)
      OneLimb(I);
  }
  return Out;
}
