//===- OptimizePass.cpp - CSE and algebraic simplification --------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Optimization passes the open-source EVA ships beyond the paper's core
/// pipeline: common-subexpression elimination over the term graph (pure
/// vector ops hash-cons safely) plus local simplifications — zero-step
/// rotations and double negations vanish, and identical constants merge.
/// They run on the frontend-op subset before any FHE-specific insertion,
/// so every eliminated multiply or rotation saves a (very expensive)
/// homomorphic operation downstream.
///
//===----------------------------------------------------------------------===//

#include "eva/core/Passes.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>

using namespace eva;

namespace {

/// Structural key for hash-consing instructions. Operand ids reflect prior
/// merges because the pass rewires uses eagerly in forward order.
using InstKey = std::tuple<OpCode, std::vector<uint64_t>, int64_t>;

InstKey keyOf(const Node *N) {
  std::vector<uint64_t> Parms;
  Parms.reserve(N->parmCount());
  for (const Node *P : N->parms())
    Parms.push_back(P->id());
  // Commutative ops: canonical operand order widens the match set.
  if ((N->op() == OpCode::Add || N->op() == OpCode::Multiply) &&
      Parms.size() == 2 && Parms[0] > Parms[1])
    std::swap(Parms[0], Parms[1]);
  int64_t Attr = 0;
  if (isRotation(N->op()))
    Attr = N->rotation();
  return {N->op(), std::move(Parms), Attr};
}

} // namespace

size_t eva::cseAndSimplifyPass(Program &P) {
  size_t Eliminated = 0;

  // Merge identical constants first (same scale, elementwise-equal payload;
  // a NaN element equals nothing). Candidates are found by the payload's
  // precomputed hash and confirmed by comparison, and the survivor is the
  // first match in constants() order.
  std::unordered_map<uint64_t, std::vector<Node *>> ByHash;
  for (Node *C : P.constants()) {
    std::vector<Node *> &Bucket = ByHash[C->constPayload().Hash];
    auto Match = std::find_if(Bucket.begin(), Bucket.end(), [&](Node *S) {
      return S->logScale() == C->logScale() &&
             S->constValue() == C->constValue();
    });
    if (Match == Bucket.end()) {
      Bucket.push_back(C);
      continue;
    }
    P.replaceAllUses(C, *Match);
    ++Eliminated;
  }

  std::map<InstKey, Node *> Seen;
  int64_t M = static_cast<int64_t>(P.vecSize());
  for (Node *N : P.forwardOrder()) {
    switch (N->op()) {
    case OpCode::Input:
    case OpCode::Constant:
    case OpCode::Output:
      continue;
    case OpCode::RotateLeft:
    case OpCode::RotateRight: {
      // Fold chains: rotate(rotate(x, a), b) == rotate(x, (a+b) mod M), so
      // walk to the chain root and retarget N there. Intermediate links with
      // other uses survive; orphaned ones are erased at the end. Parents
      // were visited first (forward order), so each chain collapses in one
      // visit.
      int64_t Steps =
          static_cast<int64_t>(normalizedLeftSteps(N, P.vecSize()));
      Node *Root = N->parm(0);
      bool Folded = false;
      while (isRotation(Root->op())) {
        Steps = (Steps +
                 static_cast<int64_t>(normalizedLeftSteps(Root, P.vecSize()))) %
                M;
        Root = Root->parm(0);
        Folded = true;
      }
      if (Steps == 0) {
        P.replaceAllUses(N, Root);
        ++Eliminated;
        continue;
      }
      if (Folded) {
        P.setParm(N, 0, Root);
        N->setRotation(static_cast<int32_t>(
            N->op() == OpCode::RotateLeft ? Steps : M - Steps));
        ++Eliminated;
      }
      // Canonicalize every surviving rotation to ROTATELEFT with a step in
      // [0, M): equivalent rotations written in different directions (or
      // with congruent steps) then hash-cons to the same key below, and the
      // normalized-rotations invariant the verifier checks after this pass
      // is established here.
      P.canonicalizeRotation(N);
      break;
    }
    case OpCode::Negate:
      if (N->parm(0)->op() == OpCode::Negate) {
        P.replaceAllUses(N, N->parm(0)->parm(0));
        ++Eliminated;
        continue;
      }
      break;
    case OpCode::Copy:
      P.replaceAllUses(N, N->parm(0));
      ++Eliminated;
      continue;
    default:
      break;
    }
    auto [It, Inserted] = Seen.emplace(keyOf(N), N);
    if (!Inserted && It->second != N) {
      P.replaceAllUses(N, It->second);
      ++Eliminated;
    }
  }
  if (Eliminated > 0)
    P.eraseUnreachable();
  return Eliminated;
}
