//===- eva/serialize/Wire.h - Protocol Buffers wire format ------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal hand-rolled implementation of the proto3 wire format (varints,
/// fixed64, and length-delimited fields; fixed32 fields are only skipped) —
/// enough to serialize the EVA program schema of Figure 1 in the paper
/// without an external Protocol Buffers dependency. Readers are defensive:
/// malformed input yields an error, never undefined behaviour.
///
/// Every decoder of the format (programs in ProtoIO.h, ciphertexts and keys
/// in CkksIO.h, the service messages in service/Messages.h) runs through
/// FieldReader, so one rule covers unknown, mistyped and truncated fields
/// everywhere; WireReader holds the primitives it is built on. Fixed-width
/// values (fixed64 fields, packed doubles, key residues) go through the one
/// little-endian pair putLE64/getLE64.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERIALIZE_WIRE_H
#define EVA_SERIALIZE_WIRE_H

#include "eva/support/Error.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace eva {

enum class WireType : uint8_t {
  Varint = 0,
  Fixed64 = 1,
  LengthDelimited = 2,
  /// No field of the EVA schemas has this type: it is read only to skip a
  /// peer's unknown fixed32/float field.
  Fixed32 = 5,
};

/// Stores \p V at \p Out as 8 little-endian bytes.
inline void putLE64(char *Out, uint64_t V) {
  if constexpr (std::endian::native == std::endian::big)
    V = __builtin_bswap64(V);
  std::memcpy(Out, &V, 8);
}

/// Loads 8 little-endian bytes at \p In: one 8-byte load on a
/// little-endian host, which the key loader's per-coefficient loop relies on.
inline uint64_t getLE64(const char *In) {
  uint64_t V;
  std::memcpy(&V, In, 8);
  if constexpr (std::endian::native == std::endian::big)
    V = __builtin_bswap64(V);
  return V;
}

/// Packed doubles as they travel in a program's constant vectors and the
/// service's plain inputs: raw little-endian 8-byte values, no framing.
inline std::string packDoubles(const std::vector<double> &Vals) {
  std::string Raw(Vals.size() * 8, '\0');
  for (size_t I = 0; I < Vals.size(); ++I)
    putLE64(Raw.data() + I * 8, std::bit_cast<uint64_t>(Vals[I]));
  return Raw;
}

/// Appends the doubles packed in \p Raw to \p Out; false when \p Raw is not
/// a whole number of 8-byte values.
inline bool unpackDoubles(std::string_view Raw, std::vector<double> &Out) {
  if (Raw.size() % 8 != 0)
    return false;
  Out.reserve(Out.size() + Raw.size() / 8);
  for (size_t I = 0; I < Raw.size(); I += 8)
    Out.push_back(std::bit_cast<double>(getLE64(Raw.data() + I)));
  return true;
}

class WireWriter {
public:
  void varint(uint64_t V) {
    while (V >= 0x80) {
      Buffer.push_back(static_cast<char>((V & 0x7F) | 0x80));
      V >>= 7;
    }
    Buffer.push_back(static_cast<char>(V));
  }

  void tag(uint32_t Field, WireType Type) {
    varint((static_cast<uint64_t>(Field) << 3) |
           static_cast<uint64_t>(Type));
  }

  void varintField(uint32_t Field, uint64_t V) {
    tag(Field, WireType::Varint);
    varint(V);
  }

  void doubleField(uint32_t Field, double V) {
    tag(Field, WireType::Fixed64);
    char Bytes[8];
    putLE64(Bytes, std::bit_cast<uint64_t>(V));
    Buffer.append(Bytes, 8);
  }

  void bytesField(uint32_t Field, std::string_view Bytes) {
    tag(Field, WireType::LengthDelimited);
    varint(Bytes.size());
    Buffer.append(Bytes);
  }

  const std::string &str() const { return Buffer; }
  std::string take() { return std::move(Buffer); }

private:
  std::string Buffer;
};

class WireReader {
public:
  explicit WireReader(std::string_view Data) : Data(Data) {}

  bool atEnd() const { return Pos >= Data.size() || Failed; }
  bool failed() const { return Failed; }

  /// Reads the next field header; returns false at end or on error. A
  /// field number past proto's 2^29 - 1 is an error, not a value to
  /// truncate into another field's number.
  bool nextField(uint32_t &Field, WireType &Type) {
    if (atEnd())
      return false;
    uint64_t Key;
    if (!readVarint(Key))
      return false;
    uint8_t T = Key & 7;
    if ((Key >> 3) > MaxField || (T != 0 && T != 1 && T != 2 && T != 5)) {
      Failed = true;
      return false;
    }
    Field = static_cast<uint32_t>(Key >> 3);
    Type = static_cast<WireType>(T);
    return true;
  }

  bool readVarint(uint64_t &V) {
    V = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      if (Pos >= Data.size()) {
        Failed = true;
        return false;
      }
      uint8_t B = static_cast<uint8_t>(Data[Pos++]);
      // The 10th byte (Shift == 63) may only contribute its lowest payload
      // bit; anything above would shift past bit 63 and be silently lost,
      // so a value with those bits set does not fit in 64 bits.
      if (Shift == 63 && (B & 0x7E) != 0) {
        Failed = true;
        return false;
      }
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if ((B & 0x80) == 0)
        return true;
    }
    // Continuation bit still set after 10 bytes: the varint is overlong.
    Failed = true;
    return false;
  }

  bool readDouble(double &V) {
    if (Data.size() - Pos < 8) {
      Failed = true;
      return false;
    }
    V = std::bit_cast<double>(getLE64(Data.data() + Pos));
    Pos += 8;
    return true;
  }

  bool readBytes(std::string_view &Out) {
    uint64_t Len;
    if (!readVarint(Len))
      return false;
    if (Len > Data.size() - Pos) {
      Failed = true;
      return false;
    }
    Out = Data.substr(Pos, Len);
    Pos += Len;
    return true;
  }

  /// Skips a field of the given wire type (unknown-field tolerance).
  bool skip(WireType Type) {
    switch (Type) {
    case WireType::Varint: {
      uint64_t V;
      return readVarint(V);
    }
    case WireType::Fixed64: {
      double D;
      return readDouble(D);
    }
    case WireType::LengthDelimited: {
      std::string_view B;
      return readBytes(B);
    }
    case WireType::Fixed32:
      if (Data.size() - Pos < 4) {
        Failed = true;
        return false;
      }
      Pos += 4;
      return true;
    }
    Failed = true;
    return false;
  }

private:
  static constexpr uint64_t MaxField = (1u << 29) - 1;
  std::string_view Data;
  size_t Pos = 0;
  bool Failed = false;
};

/// Decodes one message: the loop over its fields, and the rules every
/// decoder of the format shares.
///  - A field no take() names is skipped, whatever its wire type, so
///    unknown fields (a newer peer's extensions) are tolerated.
///  - A repeated scalar (a std::vector of uint64_t or double) reads both
///    encodings proto3 allows: one field per value, or a packed run, one
///    length-delimited field of values back to back (protoc's default).
///    Encoders here write one field per value.
///  - A named field that arrived with another wire type is refused
///    ("malformed ciphertext field 2: wire type 0, expected 1"): it means
///    another schema or a hostile peer, and no value can be read from it.
///  - Bytes that end inside a field, and headers or varints the format
///    cannot hold, are refused ("truncated or malformed ciphertext").
/// After the first failure next() returns false, so a decoder names its
/// fields, keeps its semantic checks, and looks at ok() once:
///
/// \code
///   FieldReader R(Data, "ciphertext");
///   while (R.next()) {
///     R.take(2, Ct.Scale);
///     R.take(3, Seed);
///   }
///   if (!R.ok())
///     return R.status();
/// \endcode
class FieldReader {
public:
  /// \p Message names the message in diagnostics (a string literal).
  FieldReader(std::string_view Data, const char *Message)
      : R(Data), Message(Message) {}

  /// Moves to the next field, skipping the current one if no take() read
  /// it. False at the end of the message and after a failure.
  bool next() {
    if (!ok())
      return false;
    if (Pending && !R.skip(Type))
      return truncated();
    Pending = false;
    if (R.atEnd())
      return false;
    if (!R.nextField(Field, Type))
      return truncated();
    Pending = true;
    return true;
  }

  /// Reads the current field into \p V if it is field \p F; true when it
  /// did. A varint reads into uint64_t, a fixed64 into double, and a
  /// length-delimited field into std::string_view (a view of the input) or
  /// std::string; a std::vector of those appends (a repeated field, packed
  /// or not for the scalars).
  bool take(uint32_t F, uint64_t &V) {
    return expect(F, WireType::Varint) && read(R.readVarint(V));
  }
  bool take(uint32_t F, double &V) {
    return expect(F, WireType::Fixed64) && read(R.readDouble(V));
  }
  bool take(uint32_t F, std::string_view &V) {
    return expect(F, WireType::LengthDelimited) && read(R.readBytes(V));
  }
  bool take(uint32_t F, std::string &V) {
    std::string_view B;
    if (!take(F, B))
      return false;
    V.assign(B);
    return true;
  }
  template <typename T> bool take(uint32_t F, std::vector<T> &V) {
    T Value{};
    if (!take(F, Value))
      return false;
    V.push_back(std::move(Value));
    return true;
  }
  bool take(uint32_t F, std::vector<uint64_t> &V) {
    return takeScalars(F, V, &WireReader::readVarint);
  }
  bool take(uint32_t F, std::vector<double> &V) {
    return takeScalars(F, V, &WireReader::readDouble);
  }

  /// Decodes field \p F as an embedded message with \p Decode, a callable
  /// (std::string_view) -> Status; its failure becomes this reader's.
  template <typename DecodeFn> bool takeMessage(uint32_t F, DecodeFn &&Decode) {
    std::string_view B;
    if (!take(F, B))
      return false;
    Failure = Decode(B);
    return ok();
  }
  /// A repeated embedded message: decodes field \p F into a new element of
  /// \p Out with \p Decode, a callable (std::string_view, T &) -> Status.
  template <typename T, typename DecodeFn>
  bool takeMessage(uint32_t F, std::vector<T> &Out, DecodeFn &&Decode) {
    return takeMessage(
        F, [&](std::string_view B) { return Decode(B, Out.emplace_back()); });
  }

  bool ok() const { return Failure.ok(); }
  /// The first failure's diagnostic (success while ok()).
  Status status() const { return Failure; }

private:
  /// A repeated scalar field: one value, or a packed run of them that must
  /// end on a value boundary.
  template <typename T>
  bool takeScalars(uint32_t F, std::vector<T> &V,
                   bool (WireReader::*ReadOne)(T &)) {
    if (!Pending || Field != F || Type != WireType::LengthDelimited) {
      T Value{};
      if (!take(F, Value))
        return false;
      V.push_back(Value);
      return true;
    }
    Pending = false;
    std::string_view Run;
    if (!read(R.readBytes(Run)))
      return false;
    WireReader Values(Run);
    while (!Values.atEnd()) {
      T Value{};
      if (!(Values.*ReadOne)(Value))
        return truncated();
      V.push_back(Value);
    }
    return true;
  }

  bool expect(uint32_t F, WireType Want) {
    if (!Pending || Field != F)
      return false;
    Pending = false;
    if (Type == Want)
      return true;
    Failure = Status::error(std::string("malformed ") + Message + " field " +
                            std::to_string(Field) + ": wire type " +
                            std::to_string(static_cast<int>(Type)) +
                            ", expected " +
                            std::to_string(static_cast<int>(Want)));
    return false;
  }

  bool read(bool Read) { return Read || truncated(); }

  bool truncated() {
    Failure =
        Status::error(std::string("truncated or malformed ") + Message);
    return false;
  }

  WireReader R;
  const char *Message;
  uint32_t Field = 0;
  WireType Type = WireType::Varint;
  /// The current field has not been read yet.
  bool Pending = false;
  Status Failure;
};

} // namespace eva

#endif // EVA_SERIALIZE_WIRE_H
