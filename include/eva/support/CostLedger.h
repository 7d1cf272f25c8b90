//===- eva/support/CostLedger.h - Per-run cost ledger -----------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one record of what a program run cost: per-op invocation counts,
/// key-switch decompositions, NTTs, modular multiplies and limb-arena
/// traffic, next to the executor's memory-reuse peaks. Work is charged where
/// it happens (the NTT, the polynomial kernels, the evaluator, the arena) to
/// the ledger of the run that caused it:
///
///  * every thread has a current ledger, null by default, so key
///    generation, encryption outside a run and direct kernel calls charge
///    nothing;
///  * LedgerScope installs a ledger for a scope and restores the previous
///    one; each executor's run() installs its own ExecutionStats;
///  * ThreadPool records the submitter's ledger with each task and runs the
///    task under it, so limb chunks and DAG nodes that execute on workers
///    charge the run that submitted them, even when runs share a pool.
///
/// Concurrent runs therefore never fold into each other, and every count
/// except ArenaHeapBytes (which depends on per-thread arena caches) is the
/// same at any thread count. Charges are relaxed atomic adds through
/// std::atomic_ref, so the struct stays plain and copyable; read it once the
/// run has returned.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SUPPORT_COSTLEDGER_H
#define EVA_SUPPORT_COSTLEDGER_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace eva {

/// The cost ledger of one program run (Runner::executionStats()).
struct ExecutionStats {
  /// Memory reuse (Section 6.1), written by the executor itself.
  size_t PeakLiveBytes = 0;
  size_t TotalNodeCount = 0;
  size_t PeakLiveNodes = 0;
  /// Key-switch decompositions performed (relinearize + rotations; a
  /// hoisted batch counts once).
  size_t KeySwitchDecompositions = 0;
  /// Non-identity rotations evaluated (serial + hoisted).
  size_t Rotations = 0;
  /// Rotations served from a shared (hoisted) decomposition.
  size_t HoistedRotations = 0;
  /// Hoist batches executed.
  size_t HoistBatches = 0;
  /// Per-op invocation counts.
  size_t Adds = 0;             ///< add + addPlain
  size_t Subs = 0;             ///< sub + subPlain
  size_t Negates = 0;          ///< negate
  size_t Multiplies = 0;       ///< ciphertext-ciphertext multiplies
  size_t PlainMultiplies = 0;  ///< ciphertext-plaintext multiplies
  size_t Relinearizations = 0; ///< relinearize calls that key-switched
  size_t Rescales = 0;         ///< rescale invocations
  size_t ModSwitches = 0;      ///< modSwitch invocations
  /// The modular-arithmetic hot path.
  uint64_t Ntts = 0;           ///< forward + inverse NTT invocations
  uint64_t MulMods = 0;        ///< modular multiplies in the hot kernels
  uint64_t ArenaAcquires = 0;  ///< limb-scratch buffers handed out
  uint64_t ArenaHeapBytes = 0; ///< bytes the arena had to heap-allocate
};

/// The calling thread's current ledger, or null when no run is charged.
ExecutionStats *currentLedger();

/// Installs \p Ledger (null allowed) as the calling thread's current ledger
/// for the scope's lifetime and restores the previous one on destruction.
class [[nodiscard]] LedgerScope {
public:
  explicit LedgerScope(ExecutionStats *Ledger);
  ~LedgerScope();
  LedgerScope(const LedgerScope &) = delete;
  LedgerScope &operator=(const LedgerScope &) = delete;

private:
  ExecutionStats *Prev;
};

/// Adds \p N to \p Field of the current ledger; does nothing without one.
/// Charge once per kernel call, not per element.
template <typename T> void charge(T ExecutionStats::*Field, uint64_t N = 1) {
  if (ExecutionStats *Ledger = currentLedger())
    std::atomic_ref<T>(Ledger->*Field)
        .fetch_add(static_cast<T>(N), std::memory_order_relaxed);
}

} // namespace eva

#endif // EVA_SUPPORT_COSTLEDGER_H
