//===- Encryptor.cpp - Secret-key encryption -------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Encryptor.h"

using namespace eva;

Encryptor::Encryptor(std::shared_ptr<const CkksContext> CtxIn, uint64_t Seed,
                     bool ReproducibleSeeds)
    : Ctx(CtxIn), Sampler(CtxIn, Seed == 0 ? 0xE4C947ull : Seed,
                          ReproducibleSeeds) {}

Ciphertext Encryptor::encryptSymmetric(const Plaintext &Pt,
                                       const SecretKey &Sk,
                                       uint64_t &C1SeedOut) {
  size_t Count = Pt.primeCount();
  assert(Count >= 1 && Count <= Ctx->dataPrimeCount() &&
         "plaintext level out of range");
  uint64_t N = Ctx->polyDegree();

  C1SeedOut = Sampler.deriveSeed();
  RnsPoly C1 = expandUniformNtt(*Ctx, Count, C1SeedOut);
  RnsPoly E = Sampler.sampleErrorNtt(Count);

  Ciphertext Ct;
  Ct.Scale = Pt.Scale;
  Ct.Polys.assign(2, RnsPoly(N, Count));
  for (size_t C = 0; C < Count; ++C) {
    const Modulus &Q = Ctx->prime(C);
    // c0 = e + m - c1 * s, so c0 + c1*s = m + e.
    mulPolyComp(C1.Comps[C], Sk.S.Comps[C], Ct.Polys[0].Comps[C], Q);
    subPolyComp(E.Comps[C], Ct.Polys[0].Comps[C], Ct.Polys[0].Comps[C], Q);
    addPolyComp(Ct.Polys[0].Comps[C], Pt.Poly.Comps[C], Ct.Polys[0].Comps[C],
                Q);
  }
  Ct.Polys[1] = std::move(C1);
  return Ct;
}
