//===- RotationPlanPass.cpp - Rotation hoisting & Galois-key budgeting --------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rotation-cost subsystem's compiler half.
///
/// planRotationHoisting groups the rotations of each source ciphertext into
/// hoist batches: vectorized workloads (matvec diagonals, convolution taps,
/// reduction trees fanning out of one value) emit many rotations of the
/// same ciphertext, and the runtime can share one key-switch decomposition
/// and its extension to every prime across the whole batch
/// (Evaluator::decomposeForRotation): a member's L + L^2 digit NTTs drop
/// to a permutation.
///
/// galoisBudgetPass trades rotations for keys in the other direction: every
/// distinct step needs its own Galois key ("evaluating each rotation step
/// count needs a distinct public key", Section 2.1), and in the service
/// deployment each session's client uploads all of them. When the distinct
/// step set exceeds the configured budget, rotations are rewritten into
/// compositions over the power-of-two basis — at most log2(vec_size) keys —
/// shrinking the upload at the price of extra (hoistable) rotations.
///
//===----------------------------------------------------------------------===//

#include "eva/core/Passes.h"

#include <algorithm>

using namespace eva;

RotationPlan eva::planRotationHoisting(const Program &P) {
  RotationPlan Plan;
  // Source node id -> member rotation nodes, in forward order so the group
  // layout is deterministic.
  std::map<uint64_t, RotationPlan::HoistGroup> BySource;
  for (const Node *N : P.forwardOrder()) {
    if (!isRotation(N->op()) || !N->isCipher() || !N->parm(0)->isCipher())
      continue;
    if (normalizedLeftSteps(N, P.vecSize()) == 0)
      continue; // identity: the executor forwards the operand, no key switch
    RotationPlan::HoistGroup &G = BySource[N->parm(0)->id()];
    G.Source = N->parm(0);
    G.Members.push_back(N);
  }
  for (auto &[SourceId, G] : BySource) {
    (void)SourceId;
    if (G.Members.size() < 2)
      continue; // a lone rotation gains nothing from a shared decomposition
    size_t Idx = Plan.Groups.size();
    for (const Node *M : G.Members)
      Plan.GroupOf.emplace(M->id(), Idx);
    Plan.Groups.push_back(std::move(G));
  }
  return Plan;
}

size_t eva::galoisBudgetPass(Program &P, size_t Budget) {
  if (Budget == 0)
    return 0;
  uint64_t M = P.vecSize();

  // Distinct normalized steps currently in use.
  std::set<uint64_t> Steps;
  for (const Node *N : P.nodes()) {
    if (!isRotation(N->op()) || !N->isCipher())
      continue;
    uint64_t S = normalizedLeftSteps(N, M);
    if (S != 0)
      Steps.insert(S);
  }
  if (Steps.size() <= Budget)
    return 0;

  // Chain cache: (original source id, cumulative left step) -> the node
  // realizing that prefix. Ascending-power emission makes prefixes of
  // different steps of the same source coincide, so rotations by 3 and 7
  // share the rotate-by-1 and rotate-by-3 links. Existing single-power
  // rotations seed the cache so the rewrite reuses them instead of
  // duplicating.
  std::map<std::pair<uint64_t, uint64_t>, Node *> Chains;
  std::vector<Node *> Order = P.forwardOrder();
  for (Node *N : Order) {
    if (!isRotation(N->op()) || !N->isCipher())
      continue;
    uint64_t S = normalizedLeftSteps(N, M);
    // Only canonical basis rotations seed the cache (same predicate as the
    // skip below), so a rewritten node can never look itself up.
    if (N->op() == OpCode::RotateLeft && S != 0 && (S & (S - 1)) == 0 &&
        static_cast<uint64_t>(N->rotation()) == S)
      Chains.emplace(std::make_pair(N->parm(0)->id(), S), N);
  }

  size_t Rewritten = 0;
  bool Changed = false;
  for (Node *N : Order) {
    if (!isRotation(N->op()) || !N->isCipher())
      continue;
    uint64_t S = normalizedLeftSteps(N, M);
    if (S == 0) {
      // Identity rotation: forward the operand. This must still count as a
      // graph change — if nothing else is rewritten, skipping the erase
      // below would leave the detached rotation node orphaned in the graph
      // (caught by the pass-sandwich verifier's no-orphans invariant).
      P.replaceAllUses(N, N->parm(0));
      Changed = true;
      continue;
    }
    // Already a basis rotation (a left rotation by one power of two).
    if (N->op() == OpCode::RotateLeft && (S & (S - 1)) == 0 &&
        static_cast<uint64_t>(N->rotation()) == S)
      continue;
    Node *Source = N->parm(0);
    Node *Cur = Source;
    uint64_t Cum = 0;
    for (uint64_t Bit = 1; Bit < M; Bit <<= 1) {
      if (!(S & Bit))
        continue;
      Cum += Bit;
      auto [It, Inserted] =
          Chains.try_emplace(std::make_pair(Source->id(), Cum), nullptr);
      if (Inserted)
        It->second = P.makeRotation(OpCode::RotateLeft, Cur,
                                    static_cast<int32_t>(Bit));
      Cur = It->second;
    }
    P.replaceAllUses(N, Cur);
    ++Rewritten;
    Changed = true;
  }
  if (Changed)
    P.eraseUnreachable();
  return Rewritten;
}
