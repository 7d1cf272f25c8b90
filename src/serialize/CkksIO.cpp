//===- CkksIO.cpp - Runtime object serialization ------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/serialize/CkksIO.h"

#include "eva/ckks/KeyGenerator.h"
#include "eva/serialize/Wire.h"

#include <cmath>
#include <cstring>

using namespace eva;

namespace {

void appendRawU64(std::string &Out, const std::vector<uint64_t> &Vals) {
  size_t Base = Out.size();
  Out.resize(Base + Vals.size() * 8);
  for (size_t I = 0; I < Vals.size(); ++I) {
    uint64_t V = Vals[I];
    for (int B = 0; B < 8; ++B)
      Out[Base + I * 8 + B] = static_cast<char>((V >> (8 * B)) & 0xFF);
  }
}

uint64_t readRawU64(std::string_view Raw, size_t I) {
  uint64_t V = 0;
  for (int B = 0; B < 8; ++B)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(Raw[I * 8 + B]))
         << (8 * B);
  return V;
}

void writePoly(WireWriter &W, uint32_t Field, const RnsPoly &P) {
  W.bytesField(Field, serializeRnsPoly(P));
}

/// Parses one RnsPoly message body and validates it against the context.
Expected<RnsPoly> parsePoly(const CkksContext &Ctx, std::string_view Data,
                            size_t MaxPrimes) {
  using Result = Expected<RnsPoly>;
  uint64_t Degree = 0, PrimeCount = 0;
  std::vector<std::string_view> RawComps;

  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::Varint) {
      if (!R.readVarint(Degree))
        return Result::error("malformed poly degree");
    } else if (Field == 2 && Type == WireType::Varint) {
      if (!R.readVarint(PrimeCount))
        return Result::error("malformed poly prime count");
    } else if (Field == 3 && Type == WireType::LengthDelimited) {
      std::string_view Raw;
      if (!R.readBytes(Raw))
        return Result::error("malformed poly component");
      RawComps.push_back(Raw);
    } else if (!R.skip(Type)) {
      return Result::error("malformed poly field");
    }
  }
  if (R.failed())
    return Result::error("truncated poly");
  if (Degree != Ctx.polyDegree())
    return Result::error("poly degree " + std::to_string(Degree) +
                         " does not match context degree " +
                         std::to_string(Ctx.polyDegree()));
  if (PrimeCount != RawComps.size())
    return Result::error("poly declares " + std::to_string(PrimeCount) +
                         " components but carries " +
                         std::to_string(RawComps.size()));
  if (RawComps.empty() || RawComps.size() > MaxPrimes)
    return Result::error("poly component count " +
                         std::to_string(RawComps.size()) +
                         " outside [1, " + std::to_string(MaxPrimes) + "]");

  RnsPoly P(Degree, RawComps.size());
  for (size_t C = 0; C < RawComps.size(); ++C) {
    if (RawComps[C].size() != Degree * 8)
      return Result::error("poly component " + std::to_string(C) +
                           " has wrong size");
    uint64_t Q = Ctx.prime(C).value();
    for (uint64_t I = 0; I < Degree; ++I) {
      uint64_t V = readRawU64(RawComps[C], I);
      // Arithmetic kernels assume reduced residues; an out-of-range value
      // from a hostile client must be rejected, not computed with.
      if (V >= Q)
        return Result::error("poly residue exceeds its prime modulus");
      P.Comps[C][I] = V;
    }
  }
  return P;
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

Expected<KSwitchKey> parseKSwitchKey(const CkksContext &Ctx,
                                     std::string_view Data) {
  using Result = Expected<KSwitchKey>;
  KSwitchKey Key;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::LengthDelimited) {
      std::string_view PairBytes;
      if (!R.readBytes(PairBytes))
        return Result::error("malformed key-switch pair");
      std::array<RnsPoly, 2> Pair;
      uint64_t Seed = 0;
      bool HaveK0 = false, HaveK1 = false;
      WireReader PR(PairBytes);
      uint32_t F;
      WireType T;
      while (PR.nextField(F, T)) {
        if ((F == 1 || F == 2) && T == WireType::LengthDelimited) {
          std::string_view PolyBytes;
          if (!PR.readBytes(PolyBytes))
            return Result::error("malformed key-switch polynomial");
          Expected<RnsPoly> P =
              parsePoly(Ctx, PolyBytes, Ctx.totalPrimeCount());
          if (!P)
            return P.takeStatus();
          // Key-switch components span the full modulus chain.
          if (P->primeCount() != Ctx.totalPrimeCount())
            return Result::error("key-switch polynomial must span all primes");
          Pair[F - 1] = std::move(*P);
          (F == 1 ? HaveK0 : HaveK1) = true;
        } else if (F == 3 && T == WireType::Varint) {
          if (!PR.readVarint(Seed))
            return Result::error("malformed key-switch seed");
        } else if (!PR.skip(T)) {
          return Result::error("malformed key-switch field");
        }
      }
      if (PR.failed())
        return Result::error("truncated key-switch pair");
      if (!HaveK0)
        return Result::error("key-switch pair missing k0");
      if (Seed != 0) {
        if (HaveK1)
          return Result::error("key-switch pair has both k1 and a seed");
        Pair[1] = expandUniformNtt(Ctx, Ctx.totalPrimeCount(), Seed);
      } else if (!HaveK1) {
        return Result::error("key-switch pair missing k1 and seed");
      }
      Key.Keys.push_back(std::move(Pair));
      Key.C1Seeds.push_back(Seed);
    } else if (!R.skip(Type)) {
      return Result::error("malformed key-switch key field");
    }
  }
  if (R.failed())
    return Result::error("truncated key-switch key");
  if (Key.Keys.size() != Ctx.dataPrimeCount())
    return Result::error("key-switch key has " +
                         std::to_string(Key.Keys.size()) +
                         " decomposition components, context needs " +
                         std::to_string(Ctx.dataPrimeCount()));
  return Key;
}

} // namespace

std::string eva::serializeRnsPoly(const RnsPoly &P) {
  WireWriter PW;
  PW.varintField(1, P.Degree);
  PW.varintField(2, P.primeCount());
  for (const std::vector<uint64_t> &Comp : P.Comps) {
    std::string Raw;
    appendRawU64(Raw, Comp);
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
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::LengthDelimited) {
      std::string_view PolyBytes;
      if (!R.readBytes(PolyBytes))
        return Result::error("malformed ciphertext poly");
      // A ciphertext grown by unrelinearized multiplies stays small; cap the
      // polynomial count defensively so hostile input cannot balloon memory.
      if (Ct.Polys.size() >= 8)
        return Result::error("ciphertext has too many polynomials");
      Expected<RnsPoly> P = parsePoly(Ctx, PolyBytes, Ctx.dataPrimeCount());
      if (!P)
        return P.takeStatus();
      Ct.Polys.push_back(std::move(*P));
    } else if (Field == 2 && Type == WireType::Fixed64) {
      if (!R.readDouble(Ct.Scale))
        return Result::error("malformed ciphertext scale");
    } else if (Field == 3 && Type == WireType::Varint) {
      if (!R.readVarint(C1Seed))
        return Result::error("malformed ciphertext seed");
    } else if (!R.skip(Type)) {
      return Result::error("malformed ciphertext field");
    }
  }
  if (R.failed())
    return Result::error("truncated ciphertext");
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
  using Result = Expected<RelinKeys>;
  RelinKeys Rk;
  bool HaveKey = false;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::LengthDelimited) {
      std::string_view KeyBytes;
      if (!R.readBytes(KeyBytes))
        return Result::error("malformed relin key");
      Expected<KSwitchKey> K = parseKSwitchKey(Ctx, KeyBytes);
      if (!K)
        return K.takeStatus();
      Rk.Key = std::move(*K);
      HaveKey = true;
    } else if (!R.skip(Type)) {
      return Result::error("malformed relin keys field");
    }
  }
  if (R.failed())
    return Result::error("truncated relin keys");
  if (!HaveKey)
    return Result::error("relin keys missing key");
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
  using Result = Expected<GaloisKeys>;
  GaloisKeys Gk;
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::LengthDelimited) {
      std::string_view EntryBytes;
      if (!R.readBytes(EntryBytes))
        return Result::error("malformed galois entry");
      uint64_t Elt = 0;
      KSwitchKey Key;
      bool HaveKey = false;
      WireReader ER(EntryBytes);
      uint32_t F;
      WireType T;
      while (ER.nextField(F, T)) {
        if (F == 1 && T == WireType::Varint) {
          if (!ER.readVarint(Elt))
            return Result::error("malformed galois element");
        } else if (F == 2 && T == WireType::LengthDelimited) {
          std::string_view KeyBytes;
          if (!ER.readBytes(KeyBytes))
            return Result::error("malformed galois key");
          Expected<KSwitchKey> K = parseKSwitchKey(Ctx, KeyBytes);
          if (!K)
            return K.takeStatus();
          Key = std::move(*K);
          HaveKey = true;
        } else if (!ER.skip(T)) {
          return Result::error("malformed galois entry field");
        }
      }
      if (ER.failed())
        return Result::error("truncated galois entry");
      // Valid Galois elements are odd and in (1, 2N).
      if (Elt < 3 || Elt >= 2 * Ctx.polyDegree() || Elt % 2 == 0)
        return Result::error("galois element " + std::to_string(Elt) +
                             " out of range");
      if (!HaveKey)
        return Result::error("galois entry missing key");
      if (!Gk.Keys.emplace(Elt, std::move(Key)).second)
        return Result::error("duplicate galois element " +
                             std::to_string(Elt));
    } else if (!R.skip(Type)) {
      return Result::error("malformed galois keys field");
    }
  }
  if (R.failed())
    return Result::error("truncated galois keys");
  return Gk;
}
