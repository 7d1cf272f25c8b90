//===- CkksIO.cpp - Runtime object serialization ------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/serialize/CkksIO.h"

#include "eva/ckks/KeyGenerator.h"
#include "eva/serialize/Wire.h"

#include <cmath>

using namespace eva;

namespace {

void writePoly(WireWriter &W, uint32_t Field, const RnsPoly &P) {
  W.bytesField(Field, serializeRnsPoly(P));
}

/// Parses one RnsPoly message body into \p P and validates it against the
/// context. A ciphertext polynomial has 1..D components over data primes
/// 0, 1, ...; a key polynomial (\p KeyShaped) has L + 1 components for some
/// L in [1, D], over the primes keyLimbPrime (Keys.h) gives a key of L
/// pairs. D is the context's data prime count.
Status parsePoly(const CkksContext &Ctx, std::string_view Data,
                 bool KeyShaped, RnsPoly &P) {
  uint64_t Degree = 0, PrimeCount = 0;
  std::vector<std::string_view> RawComps;
  FieldReader R(Data, "poly");
  while (R.next()) {
    R.take(1, Degree);
    R.take(2, PrimeCount);
    R.take(3, RawComps);
  }
  if (!R.ok())
    return R.status();
  if (Degree != Ctx.polyDegree())
    return Status::error("poly degree " + std::to_string(Degree) +
                         " does not match context degree " +
                         std::to_string(Ctx.polyDegree()));
  if (PrimeCount != RawComps.size())
    return Status::error("poly declares " + std::to_string(PrimeCount) +
                         " components but carries " +
                         std::to_string(RawComps.size()));
  size_t MinPrimes = KeyShaped ? 2 : 1;
  size_t MaxPrimes =
      KeyShaped ? Ctx.totalPrimeCount() : Ctx.dataPrimeCount();
  if (RawComps.size() < MinPrimes || RawComps.size() > MaxPrimes)
    return Status::error("poly component count " +
                         std::to_string(RawComps.size()) + " outside [" +
                         std::to_string(MinPrimes) + ", " +
                         std::to_string(MaxPrimes) + "]");

  P = RnsPoly(Degree, RawComps.size());
  for (size_t C = 0; C < RawComps.size(); ++C) {
    if (RawComps[C].size() != Degree * 8)
      return Status::error("poly component " + std::to_string(C) +
                           " has wrong size");
    size_t Prime = KeyShaped ? keyLimbPrime(RawComps.size() - 1, C,
                                            Ctx.specialPrimeIndex())
                             : C;
    uint64_t Q = Ctx.prime(Prime).value();
    const char *Raw = RawComps[C].data();
    for (uint64_t I = 0; I < Degree; ++I) {
      uint64_t V = getLE64(Raw + I * 8);
      // Arithmetic kernels assume reduced residues; an out-of-range value
      // from a hostile client must be rejected, not computed with.
      if (V >= Q)
        return Status::error("poly residue exceeds its prime modulus");
      P.Comps[C][I] = V;
    }
  }
  return Status::success();
}

/// KSwitchPair: 1=k0, 2=k1 (omitted when seeded), 3=c1_seed.
void writeKSwitchKey(WireWriter &W, uint32_t Field, const KSwitchKey &K) {
  WireWriter KW;
  for (size_t I = 0; I < K.Keys.size(); ++I) {
    WireWriter PairW;
    writePoly(PairW, 1, K.Keys[I][0]);
    uint64_t Seed = I < K.C1Seeds.size() ? K.C1Seeds[I] : 0;
    if (Seed != 0)
      PairW.varintField(3, Seed);
    else
      writePoly(PairW, 2, K.Keys[I][1]);
    KW.bytesField(1, PairW.str());
  }
  W.bytesField(Field, KW.str());
}

Status parseKSwitchPair(const CkksContext &Ctx, std::string_view Data,
                        KSwitchKey &Key) {
  // Refused before the pair is decoded: no key holds more digits than the
  // context has data primes.
  if (Key.Keys.size() >= Ctx.dataPrimeCount())
    return Status::error("key-switch key has more than " +
                         std::to_string(Ctx.dataPrimeCount()) +
                         " decomposition components");
  std::array<RnsPoly, 2> Pair;
  auto PolyInto = [&](RnsPoly &P) {
    return [&](std::string_view B) { return parsePoly(Ctx, B, true, P); };
  };
  uint64_t Seed = 0;
  bool HaveK0 = false, HaveK1 = false;
  FieldReader R(Data, "key-switch pair");
  while (R.next()) {
    HaveK0 |= R.takeMessage(1, PolyInto(Pair[0]));
    HaveK1 |= R.takeMessage(2, PolyInto(Pair[1]));
    R.take(3, Seed);
  }
  if (!R.ok())
    return R.status();
  if (!HaveK0)
    return Status::error("key-switch pair missing k0");
  if (Seed != 0) {
    if (HaveK1)
      return Status::error("key-switch pair has both k1 and a seed");
    Pair[1] = expandUniformKeyNtt(Ctx, Pair[0].primeCount() - 1, Seed);
  } else if (!HaveK1) {
    return Status::error("key-switch pair missing k1 and seed");
  }
  Key.Keys.push_back(std::move(Pair));
  Key.C1Seeds.push_back(Seed);
  return Status::success();
}

/// Parses a KSwitchKey into \p Key, replacing what it held, and checks its
/// shape (keyLimbPrime): L pairs in [1, D] whose polynomials all hold L + 1
/// components. \p Full demands L = D (relinearization keys).
Status parseKSwitchKey(const CkksContext &Ctx, std::string_view Data,
                       bool Full, KSwitchKey &Key) {
  Key = KSwitchKey();
  FieldReader R(Data, "key-switch key");
  while (R.next())
    R.takeMessage(
        1, [&](std::string_view B) { return parseKSwitchPair(Ctx, B, Key); });
  if (!R.ok())
    return R.status();
  size_t Pairs = Key.Keys.size();
  if (Pairs == 0 || (Full && Pairs != Ctx.dataPrimeCount()))
    return Status::error("key-switch key has " + std::to_string(Pairs) +
                         " decomposition components, context needs " +
                         (Full ? "" : "1 to ") +
                         std::to_string(Ctx.dataPrimeCount()));
  for (const std::array<RnsPoly, 2> &Pair : Key.Keys)
    for (const RnsPoly &P : Pair)
      if (P.primeCount() != Pairs + 1)
        return Status::error(
            "key-switch key of " + std::to_string(Pairs) +
            " pairs holds a polynomial of " + std::to_string(P.primeCount()) +
            " components, not " + std::to_string(Pairs + 1));
  return Status::success();
}

Status parseGaloisEntry(const CkksContext &Ctx, std::string_view Data,
                        GaloisKeys &Gk) {
  uint64_t Elt = 0;
  KSwitchKey Key;
  bool HaveKey = false;
  FieldReader R(Data, "galois entry");
  while (R.next()) {
    R.take(1, Elt);
    HaveKey |= R.takeMessage(2, [&](std::string_view B) {
      return parseKSwitchKey(Ctx, B, false, Key);
    });
  }
  if (!R.ok())
    return R.status();
  // Valid Galois elements are odd and in (1, 2N).
  if (Elt < 3 || Elt >= 2 * Ctx.polyDegree() || Elt % 2 == 0)
    return Status::error("galois element " + std::to_string(Elt) +
                         " out of range");
  if (!HaveKey)
    return Status::error("galois entry missing key");
  if (!Gk.Keys.emplace(Elt, std::move(Key)).second)
    return Status::error("duplicate galois element " + std::to_string(Elt));
  return Status::success();
}

} // namespace

std::string eva::serializeRnsPoly(const RnsPoly &P) {
  WireWriter PW;
  PW.varintField(1, P.Degree);
  PW.varintField(2, P.primeCount());
  for (const std::vector<uint64_t> &Comp : P.Comps) {
    std::string Raw(Comp.size() * 8, '\0');
    for (size_t I = 0; I < Comp.size(); ++I)
      putLE64(Raw.data() + I * 8, Comp[I]);
    PW.bytesField(3, Raw);
  }
  return PW.take();
}

std::string eva::serializeCiphertext(const Ciphertext &Ct, uint64_t C1Seed) {
  assert((C1Seed == 0 || Ct.size() == 2) &&
         "seed compression applies to fresh 2-polynomial ciphertexts only");
  WireWriter W;
  size_t StoredPolys = C1Seed != 0 ? 1 : Ct.size();
  for (size_t I = 0; I < StoredPolys; ++I)
    writePoly(W, 1, Ct.Polys[I]);
  W.doubleField(2, Ct.Scale);
  if (C1Seed != 0)
    W.varintField(3, C1Seed);
  return W.take();
}

Expected<Ciphertext> eva::deserializeCiphertext(const CkksContext &Ctx,
                                                std::string_view Data) {
  using Result = Expected<Ciphertext>;
  Ciphertext Ct;
  uint64_t C1Seed = 0;
  FieldReader R(Data, "ciphertext");
  while (R.next()) {
    R.takeMessage(1, Ct.Polys, [&](std::string_view B, RnsPoly &P) {
      // A ciphertext grown by unrelinearized multiplies stays small; cap
      // the polynomial count so hostile input cannot balloon memory.
      if (Ct.Polys.size() > 8)
        return Status::error("ciphertext has too many polynomials");
      return parsePoly(Ctx, B, false, P);
    });
    R.take(2, Ct.Scale);
    R.take(3, C1Seed);
  }
  if (!R.ok())
    return R.status();
  if (C1Seed != 0) {
    if (Ct.Polys.size() != 1)
      return Result::error("seed-compressed ciphertext must store exactly "
                           "one polynomial");
    Ct.Polys.push_back(
        expandUniformNtt(Ctx, Ct.Polys[0].primeCount(), C1Seed));
  }
  if (Ct.Polys.size() < 2)
    return Result::error("ciphertext needs at least two polynomials");
  for (const RnsPoly &P : Ct.Polys)
    if (P.primeCount() != Ct.Polys.front().primeCount())
      return Result::error("ciphertext polynomials disagree on level");
  if (!(Ct.Scale > 0) || !std::isfinite(Ct.Scale))
    return Result::error("ciphertext scale must be finite and positive");
  return Ct;
}

std::string eva::serializeRelinKeys(const RelinKeys &Rk) {
  WireWriter W;
  writeKSwitchKey(W, 1, Rk.Key);
  return W.take();
}

Expected<RelinKeys> eva::deserializeRelinKeys(const CkksContext &Ctx,
                                              std::string_view Data) {
  RelinKeys Rk;
  bool HaveKey = false;
  FieldReader R(Data, "relin keys");
  while (R.next())
    HaveKey |= R.takeMessage(1, [&](std::string_view B) {
      return parseKSwitchKey(Ctx, B, true, Rk.Key);
    });
  if (!R.ok())
    return R.status();
  if (!HaveKey)
    return Expected<RelinKeys>::error("relin keys missing key");
  return Rk;
}

std::string eva::serializeGaloisKeys(const GaloisKeys &Gk) {
  WireWriter W;
  for (const auto &[Elt, Key] : Gk.Keys) {
    WireWriter EW;
    EW.varintField(1, Elt);
    writeKSwitchKey(EW, 2, Key);
    W.bytesField(1, EW.str());
  }
  return W.take();
}

Expected<GaloisKeys> eva::deserializeGaloisKeys(const CkksContext &Ctx,
                                                std::string_view Data) {
  GaloisKeys Gk;
  FieldReader R(Data, "galois keys");
  while (R.next())
    R.takeMessage(
        1, [&](std::string_view B) { return parseGaloisEntry(Ctx, B, Gk); });
  if (!R.ok())
    return R.status();
  return Gk;
}
