//===- Galois.cpp - Galois automorphisms for rotation ----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Galois.h"

#include "eva/support/BitOps.h"

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

void eva::galoisNttPermutation(uint64_t GaloisElt, uint64_t PolyDegree,
                               std::span<uint64_t> Perm) {
  assert(Perm.size() == PolyDegree && "table must hold N entries");
  assert((GaloisElt & 1) != 0 && "galois element must be odd");
  unsigned LogN = log2Exact(PolyDegree);
  uint64_t Mask = 2 * PolyDegree - 1;
  for (uint64_t I = 0; I < PolyDegree; ++I) {
    // Slot I evaluates at psi^E with E = 2*bitrev(I)+1; X -> X^g reads the
    // evaluation at psi^(E*g), which sits in slot bitrev((E*g mod 2N - 1)/2).
    uint64_t E = 2 * reverseBits(I, LogN) + 1;
    Perm[I] = reverseBits(((E * GaloisElt) & Mask) >> 1, LogN);
  }
}

void eva::applyGaloisNtt(std::span<const uint64_t> In,
                         std::span<const uint64_t> Perm,
                         std::span<uint64_t> Out) {
  assert(In.size() == Perm.size() && Out.size() == Perm.size());
  assert(In.data() != Out.data() && "the gather cannot run in place");
  for (size_t I = 0; I < Perm.size(); ++I)
    Out[I] = In[Perm[I]];
}
