//===- eva/support/Arena.h - Free-list arena for limb scratch ---*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-local free-list arena for the RNS limb scratch buffers the
/// evaluator hot paths churn through (one N-word buffer per limb per
/// key-switch digit, Galois automorphism, multiply, ...). PR 2 introduced
/// ad-hoc `thread_local std::vector` scratch at two call sites; this grows
/// it into one subsystem: every hot path acquires a recycled buffer and the
/// arena keeps a bounded per-size cache, so steady-state evaluation performs
/// zero heap allocations for limb scratch.
///
/// Buffers are bucketed by power-of-two capacity and handed out through the
/// RAII LimbScratch handle, which returns its buffer to the arena of the
/// destroying thread (buffers may migrate between pool threads; each
/// bucket's cache is bounded, so migration cannot grow memory without
/// bound). Contents of an acquired buffer are unspecified — callers either
/// overwrite fully or use the zeroed variant. Acquisitions and the bytes the
/// arena had to heap-allocate are charged to the current run's cost ledger
/// (CostLedger.h).
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SUPPORT_ARENA_H
#define EVA_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace eva {

class LimbScratch;

/// Acquires a \p Words-element uint64_t scratch buffer; contents are
/// unspecified (typically a recycled buffer's previous contents).
LimbScratch acquireLimbScratch(size_t Words);

/// Acquires a zero-filled \p Words-element scratch buffer.
LimbScratch acquireLimbScratchZeroed(size_t Words);

/// RAII handle to an arena buffer. Move-only; the destructor recycles the
/// buffer into the destroying thread's free list.
class LimbScratch {
public:
  LimbScratch() = default;
  LimbScratch(LimbScratch &&O) noexcept
      : Buf(std::move(O.Buf)), Words(O.Words) {
    O.Words = 0;
  }
  LimbScratch &operator=(LimbScratch &&O) noexcept {
    if (this != &O) {
      release();
      Buf = std::move(O.Buf);
      Words = O.Words;
      O.Words = 0;
    }
    return *this;
  }
  LimbScratch(const LimbScratch &) = delete;
  LimbScratch &operator=(const LimbScratch &) = delete;
  ~LimbScratch() { release(); }

  uint64_t *data() { return Buf.data(); }
  const uint64_t *data() const { return Buf.data(); }
  /// Number of usable words (the acquired size, not the bucket capacity).
  size_t size() const { return Words; }
  bool empty() const { return Words == 0; }
  uint64_t &operator[](size_t I) { return Buf[I]; }
  uint64_t operator[](size_t I) const { return Buf[I]; }
  std::span<uint64_t> span() { return {Buf.data(), Words}; }
  std::span<const uint64_t> span() const { return {Buf.data(), Words}; }

private:
  friend LimbScratch acquireLimbScratch(size_t);
  LimbScratch(std::vector<uint64_t> Buffer, size_t UsableWords)
      : Buf(std::move(Buffer)), Words(UsableWords) {}
  void release();

  // Kept at full bucket capacity; the handle exposes only the first Words.
  std::vector<uint64_t> Buf;
  size_t Words = 0;
};

} // namespace eva

#endif // EVA_SUPPORT_ARENA_H
