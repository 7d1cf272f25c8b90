//===- Poly.cpp - RNS polynomial elementwise helpers ----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Poly.h"

#include "eva/support/CostLedger.h"

using namespace eva;

void eva::addPolyComp(std::span<const uint64_t> A, std::span<const uint64_t> B,
                      std::span<uint64_t> Out, const Modulus &Q) {
  assert(A.size() == B.size() && A.size() == Out.size());
  for (size_t I = 0, E = A.size(); I < E; ++I)
    Out[I] = addMod(A[I], B[I], Q);
}

void eva::subPolyComp(std::span<const uint64_t> A, std::span<const uint64_t> B,
                      std::span<uint64_t> Out, const Modulus &Q) {
  assert(A.size() == B.size() && A.size() == Out.size());
  for (size_t I = 0, E = A.size(); I < E; ++I)
    Out[I] = subMod(A[I], B[I], Q);
}

void eva::negatePolyComp(std::span<const uint64_t> A, std::span<uint64_t> Out,
                         const Modulus &Q) {
  assert(A.size() == Out.size());
  for (size_t I = 0, E = A.size(); I < E; ++I)
    Out[I] = negateMod(A[I], Q);
}

void eva::mulPolyComp(std::span<const uint64_t> A, std::span<const uint64_t> B,
                      std::span<uint64_t> Out, const Modulus &Q) {
  assert(A.size() == B.size() && A.size() == Out.size());
  charge(&ExecutionStats::MulMods, A.size());
  for (size_t I = 0, E = A.size(); I < E; ++I)
    Out[I] = mulMod(A[I], B[I], Q);
}

void eva::mulAccPolyComp(std::span<const uint64_t> A,
                         std::span<const uint64_t> B, std::span<uint64_t> Out,
                         const Modulus &Q) {
  assert(A.size() == B.size() && A.size() == Out.size());
  charge(&ExecutionStats::MulMods, A.size());
  for (size_t I = 0, E = A.size(); I < E; ++I)
    Out[I] = addMod(Out[I], mulMod(A[I], B[I], Q), Q);
}

void eva::reducePolyComp(std::span<const uint64_t> A, std::span<uint64_t> Out,
                         const Modulus &Q) {
  assert(A.size() == Out.size());
  for (size_t I = 0, E = A.size(); I < E; ++I)
    Out[I] = Q.reduce(A[I]);
}
