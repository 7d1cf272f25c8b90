//===- eva/serialize/CkksIO.h - Runtime object serialization ----*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Proto3 wire-format (de)serialization for the CKKS runtime objects that
/// cross the client/server boundary of an encrypted-compute deployment
/// (paper Section 2): ciphertexts (request inputs and results) and the
/// evaluation keys a client uploads. Nothing else crosses it: there is no
/// public key, and the secret key never leaves the client. Extends the
/// hand-rolled wire layer of serialize/Wire.h with the following schema:
///
/// \code
///   message RnsPoly    { uint64 degree = 1; uint64 prime_count = 2;
///                        repeated bytes comps = 3; } // raw LE u64 * degree
///   message Ciphertext { repeated RnsPoly polys = 1; double scale = 2;
///                        uint64 c1_seed = 3; } // seed-compressed form
///   message KSwitchPair{ RnsPoly k0 = 1; RnsPoly k1 = 2;
///                        uint64 c1_seed = 3; }
///   message KSwitchKey { repeated KSwitchPair pairs = 1; }
///   message RelinKeys  { KSwitchKey key = 1; }
///   message GaloisEntry{ uint64 galois_elt = 1; KSwitchKey key = 2; }
///   message GaloisKeys { repeated GaloisEntry entries = 1; }
/// \endcode
///
/// Key shape: a KSwitchKey with L pairs, 1 <= L <= D (the context's data
/// primes), holds polynomials of exactly L + 1 components, over data
/// primes 0..L-1 and then the special prime (keyLimbPrime in Keys.h).
/// Relinearization keys are full (L = D). A Galois key may be trimmed to
/// the L its rotations read; the shape needs no field of its own, and a
/// full key is byte for byte the encoding that predates trimming. Whether
/// L covers the program is the server's check (CkksWorkspace::createServer),
/// not the loader's.
///
/// Seed compression: a nonzero `c1_seed` replaces the uniform polynomial of
/// a freshly sampled key or ciphertext — the loader re-expands it with
/// expandUniformNtt (expandUniformKeyNtt for a key's shape), roughly
/// halving key upload size. When a seed is present the corresponding
/// polynomial field is omitted.
///
/// Loaders are defensive like the program reader in ProtoIO.h: they read
/// through FieldReader (Wire.h), so a known field sent with another wire
/// type or bytes that end inside a field are refused, and every polynomial
/// is validated against the supplied context (degree, component counts and
/// key shape, residues reduced modulo their primes). Malformed or hostile
/// input yields a diagnostic, never undefined behaviour — a requirement
/// for a server deserializing ciphertexts and keys from untrusted clients.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERIALIZE_CKKSIO_H
#define EVA_SERIALIZE_CKKSIO_H

#include "eva/ckks/Ciphertext.h"
#include "eva/ckks/Context.h"
#include "eva/ckks/Keys.h"
#include "eva/support/Error.h"

#include <string>
#include <string_view>

namespace eva {

/// The RnsPoly message every other message embeds.
std::string serializeRnsPoly(const RnsPoly &P);

/// \p C1Seed, when nonzero, must be the expansion seed of Ct.Polys[1] (a
/// fresh symmetric ciphertext): the second polynomial is then replaced by
/// the 8-byte seed on the wire.
std::string serializeCiphertext(const Ciphertext &Ct, uint64_t C1Seed = 0);
Expected<Ciphertext> deserializeCiphertext(const CkksContext &Ctx,
                                           std::string_view Data);

/// Evaluation keys apply seed compression automatically whenever the
/// in-memory key carries its expansion seeds (keys made by KeyGenerator
/// always do; keys loaded from the wire keep theirs).
std::string serializeRelinKeys(const RelinKeys &Rk);
Expected<RelinKeys> deserializeRelinKeys(const CkksContext &Ctx,
                                         std::string_view Data);

std::string serializeGaloisKeys(const GaloisKeys &Gk);
Expected<GaloisKeys> deserializeGaloisKeys(const CkksContext &Ctx,
                                           std::string_view Data);

} // namespace eva

#endif // EVA_SERIALIZE_CKKSIO_H
