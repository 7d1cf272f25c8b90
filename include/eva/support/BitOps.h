//===- eva/support/BitOps.h - Bit manipulation helpers ----------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Power-of-two and bit-reversal utilities shared by the NTT, the encoder's
/// special FFT and the EVA language's vector-size checks.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SUPPORT_BITOPS_H
#define EVA_SUPPORT_BITOPS_H

#include <cassert>
#include <cstdint>

namespace eva {

inline bool isPowerOfTwo(uint64_t X) { return X != 0 && (X & (X - 1)) == 0; }

/// Exact log2 of a power of two.
inline unsigned log2Exact(uint64_t X) {
  assert(isPowerOfTwo(X) && "log2Exact requires a power of two");
  unsigned R = 0;
  while (X > 1) {
    X >>= 1;
    ++R;
  }
  return R;
}

/// Number of significant bits (bit length) of \p X; 0 for X == 0.
inline unsigned bitLength(uint64_t X) {
  unsigned R = 0;
  while (X != 0) {
    X >>= 1;
    ++R;
  }
  return R;
}

/// Reverses the low \p BitCount bits of \p X; higher bits are ignored.
inline uint64_t reverseBits(uint64_t X, unsigned BitCount) {
  assert(BitCount <= 64 && "bit count out of range");
  if (BitCount == 0)
    return 0;
  // Reverse all 64 bits by swapping ever larger halves (six steps, not one
  // per bit: Galois permutation tables take two reversals per slot), then
  // keep the top BitCount bits, which were the low ones.
  X = ((X >> 1) & 0x5555555555555555ull) | ((X & 0x5555555555555555ull) << 1);
  X = ((X >> 2) & 0x3333333333333333ull) | ((X & 0x3333333333333333ull) << 2);
  X = ((X >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((X & 0x0F0F0F0F0F0F0F0Full) << 4);
  X = ((X >> 8) & 0x00FF00FF00FF00FFull) | ((X & 0x00FF00FF00FF00FFull) << 8);
  X = ((X >> 16) & 0x0000FFFF0000FFFFull) | ((X & 0x0000FFFF0000FFFFull) << 16);
  X = (X >> 32) | (X << 32);
  return X >> (64 - BitCount);
}

} // namespace eva

#endif // EVA_SUPPORT_BITOPS_H
