//===- Arena.cpp - Free-list arena for limb scratch -----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/support/Arena.h"

#include "eva/support/CostLedger.h"

#include <algorithm>
#include <array>
#include <bit>

using namespace eva;

namespace {

// Buckets by ceil(log2(words)); CKKS degrees are powers of two, so in
// practice every buffer lands exactly on its class size. Bound each bucket
// so buffers migrating between pool threads cannot grow memory unboundedly.
constexpr size_t MaxBucket = 33; // up to 2^32 words (32 GiB) per buffer
constexpr size_t MaxCachedPerBucket = 32;

using FreeLists = std::array<std::vector<std::vector<uint64_t>>, MaxBucket>;

FreeLists &freeLists() {
  thread_local FreeLists Lists;
  return Lists;
}

size_t bucketFor(size_t Words) {
  return std::bit_width(std::bit_ceil(std::max<size_t>(Words, 1)) - 1);
}

} // namespace

LimbScratch eva::acquireLimbScratch(size_t Words) {
  charge(&ExecutionStats::ArenaAcquires);
  size_t B = bucketFor(Words);
  size_t ClassWords = size_t(1) << B;
  auto &Bucket = freeLists()[B];
  if (!Bucket.empty()) {
    std::vector<uint64_t> Buf = std::move(Bucket.back());
    Bucket.pop_back();
    return LimbScratch(std::move(Buf), Words);
  }
  charge(&ExecutionStats::ArenaHeapBytes, ClassWords * sizeof(uint64_t));
  return LimbScratch(std::vector<uint64_t>(ClassWords), Words);
}

LimbScratch eva::acquireLimbScratchZeroed(size_t Words) {
  LimbScratch Scratch = acquireLimbScratch(Words);
  std::fill_n(Scratch.data(), Words, uint64_t(0));
  return Scratch;
}

void LimbScratch::release() {
  if (Buf.capacity() == 0) {
    Words = 0;
    return;
  }
  // Buffers are created at their class size; a moved-from or shrunken vector
  // is simply dropped rather than resized back (never happens on the normal
  // path).
  size_t B = bucketFor(Buf.size());
  auto &Bucket = freeLists()[B];
  if (Buf.size() == (size_t(1) << B) && Bucket.size() < MaxCachedPerBucket)
    Bucket.push_back(std::move(Buf));
  Buf = {};
  Words = 0;
}
