//===- ThreadPoolTest.cpp - Worker pool correctness ---------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// The pool underpins both executors (ParallelCkksExecutor's DAG scheduler and
// KernelBulkCkksExecutor's per-kernel parallelFor) and the Evaluator's
// limb-level parallelism, so its barrier and idle-tracking semantics must
// hold under oversubscription, nested submission, parallelFor called from
// inside worker tasks (node-level × limb-level composition), and the
// zero-thread (hardware concurrency) fallback. Every task must also charge
// the cost ledger of the run that submitted it, wherever it executes.
//
//===----------------------------------------------------------------------===//

#include "eva/support/ThreadPool.h"

#include "eva/support/CostLedger.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <set>
#include <vector>

using namespace eva;

namespace {

TEST(ThreadPool, ZeroThreadsFallsBackToHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_GE(Pool.size(), 1u);
  std::atomic<int> Ran(0);
  Pool.submit([&] { Ran.fetch_add(1); });
  Pool.waitIdle();
  EXPECT_EQ(Ran.load(), 1);
}

TEST(ThreadPool, SizeOnePoolRunsEveryTaskOnTheCaller) {
  // A pool of size 1 spawns no workers: queued tasks run on whichever
  // thread cooperates (here, the waitIdle caller).
  ThreadPool Pool(1);
  ASSERT_EQ(Pool.size(), 1u);
  std::atomic<int> Sum(0);
  for (int I = 1; I <= 100; ++I)
    Pool.submit([&Sum, I] { Sum.fetch_add(I); });
  Pool.waitIdle();
  EXPECT_EQ(Sum.load(), 5050);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  constexpr size_t Count = 10000; // Count >> workers: oversubscribed
  std::vector<std::atomic<int>> Hits(Count);
  for (auto &H : Hits)
    H.store(0);
  Pool.parallelFor(Count, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < Count; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ParallelForIsABarrier) {
  // Every iteration's side effect must be visible when parallelFor returns.
  ThreadPool Pool(3);
  std::vector<int> Out(4096, 0);
  Pool.parallelFor(Out.size(), [&](size_t I) { Out[I] = static_cast<int>(I); });
  long long Sum = std::accumulate(Out.begin(), Out.end(), 0ll);
  EXPECT_EQ(Sum, 4095ll * 4096 / 2);
}

TEST(ThreadPool, ParallelForZeroCountReturnsImmediately) {
  ThreadPool Pool(2);
  bool Ran = false;
  Pool.parallelFor(0, [&](size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPool, ParallelForCountBelowWorkersRunsInline) {
  // Count == 1 degenerates to the caller's thread, which must still execute
  // the body.
  ThreadPool Pool(8);
  std::atomic<int> Hits(0);
  Pool.parallelFor(1, [&](size_t I) {
    EXPECT_EQ(I, 0u);
    Hits.fetch_add(1);
  });
  EXPECT_EQ(Hits.load(), 1);
}

TEST(ThreadPool, WaitIdleBlocksUntilAllTasksFinish) {
  ThreadPool Pool(2);
  constexpr int Tasks = 64;
  std::atomic<int> Done(0);
  for (int I = 0; I < Tasks; ++I)
    Pool.submit([&Done] { Done.fetch_add(1); });
  Pool.waitIdle();
  EXPECT_EQ(Done.load(), Tasks);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool Pool(2);
  Pool.waitIdle(); // nothing submitted: must not hang
  SUCCEED();
}

TEST(ThreadPool, NestedSubmitChainsAreDrainedByWaitIdle) {
  // A task that submits follow-up work: waitIdle must observe the whole
  // chain, not just the first generation (the DAG scheduler relies on this).
  ThreadPool Pool(2);
  constexpr int Depth = 50;
  std::atomic<int> Ran(0);
  std::function<void(int)> Chain = [&](int Remaining) {
    Ran.fetch_add(1);
    if (Remaining > 0)
      Pool.submit([&Chain, Remaining] { Chain(Remaining - 1); });
  };
  Pool.submit([&Chain] { Chain(Depth - 1); });
  Pool.waitIdle();
  EXPECT_EQ(Ran.load(), Depth);
}

TEST(ThreadPool, NestedFanOutRunsEverything) {
  ThreadPool Pool(3);
  constexpr int Parents = 16, Children = 16;
  std::atomic<int> Ran(0);
  for (int P = 0; P < Parents; ++P)
    Pool.submit([&] {
      for (int C = 0; C < Children; ++C)
        Pool.submit([&Ran] { Ran.fetch_add(1); });
    });
  Pool.waitIdle();
  EXPECT_EQ(Ran.load(), Parents * Children);
}

TEST(ThreadPool, OversubscribedSubmitBurst) {
  // Far more tasks than workers; every task must run exactly once.
  ThreadPool Pool(2);
  constexpr int Tasks = 5000;
  std::vector<std::atomic<int>> Hits(Tasks);
  for (auto &H : Hits)
    H.store(0);
  for (int I = 0; I < Tasks; ++I)
    Pool.submit([&Hits, I] { Hits[I].fetch_add(1); });
  Pool.waitIdle();
  for (int I = 0; I < Tasks; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "task " << I;
}

TEST(ThreadPool, ParallelForDistributesAcrossWorkers) {
  // More than one thread may participate (the caller always does); on a
  // single-core host this still passes because participation is
  // opportunistic, never required.
  ThreadPool Pool(4);
  std::mutex M;
  std::set<std::thread::id> Seen;
  Pool.parallelFor(256, [&](size_t) {
    std::lock_guard<std::mutex> Lock(M);
    Seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(Seen.size(), 1u);
  EXPECT_LE(Seen.size(), 4u);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> Ran(0);
  {
    ThreadPool Pool(1);
    for (int I = 0; I < 32; ++I)
      Pool.submit([&Ran] { Ran.fetch_add(1); });
    // No waitIdle: the destructor joins workers only after the queue empties.
  }
  EXPECT_EQ(Ran.load(), 32);
}

TEST(ThreadPool, SequentialParallelForCallsReuseThePool) {
  ThreadPool Pool(2);
  std::atomic<long long> Sum(0);
  for (int Round = 0; Round < 20; ++Round)
    Pool.parallelFor(100, [&](size_t I) { Sum.fetch_add(static_cast<long long>(I)); });
  EXPECT_EQ(Sum.load(), 20ll * (99 * 100 / 2));
}

//===----------------------------------------------------------------------===//
// Nested parallelism: parallelFor called from inside a worker task. The old
// caller-blocks design serialized this (the worker slept while other workers
// ran its loop) and deadlocked once every worker was blocked inside a nested
// loop; the cooperative design must run all of it to completion.
//===----------------------------------------------------------------------===//

TEST(ThreadPool, NestedParallelForFromWorkerTask) {
  ThreadPool Pool(2);
  constexpr size_t Inner = 256;
  std::atomic<long long> Sum(0);
  Pool.submit([&] {
    Pool.parallelFor(Inner, [&](size_t I) {
      Sum.fetch_add(static_cast<long long>(I));
    });
    // The barrier must hold inside a worker too: every iteration's side
    // effect is visible here.
    EXPECT_EQ(Sum.load(), static_cast<long long>(Inner * (Inner - 1) / 2));
  });
  Pool.waitIdle();
  EXPECT_EQ(Sum.load(), static_cast<long long>(Inner * (Inner - 1) / 2));
}

TEST(ThreadPool, EveryWorkerNestingConcurrentlyDoesNotDeadlock) {
  // The executor composition: all execution contexts run node tasks that
  // each open a limb-level parallelFor. With the caller-blocks design this
  // deadlocks as soon as every worker sleeps in its own nested loop.
  ThreadPool Pool(4);
  constexpr int Tasks = 16;
  constexpr size_t Inner = 128;
  std::vector<std::atomic<int>> Hits(Tasks * Inner);
  for (auto &H : Hits)
    H.store(0);
  for (int T = 0; T < Tasks; ++T)
    Pool.submit([&, T] {
      Pool.parallelFor(Inner, [&, T](size_t I) {
        Hits[T * Inner + I].fetch_add(1);
      });
    });
  Pool.waitIdle();
  for (size_t I = 0; I < Hits.size(); ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "slot " << I;
}

TEST(ThreadPool, DoublyNestedParallelFor) {
  ThreadPool Pool(3);
  constexpr size_t Outer = 8, Inner = 64;
  std::vector<std::atomic<int>> Hits(Outer * Inner);
  for (auto &H : Hits)
    H.store(0);
  Pool.parallelFor(Outer, [&](size_t O) {
    Pool.parallelFor(Inner, [&, O](size_t I) {
      Hits[O * Inner + I].fetch_add(1);
    });
  });
  for (size_t I = 0; I < Hits.size(); ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "slot " << I;
}

TEST(ThreadPool, ParallelForChunksCoversRangeWithDisjointChunks) {
  ThreadPool Pool(4);
  constexpr size_t Count = 10000, Grain = 64;
  std::vector<std::atomic<int>> Hits(Count);
  for (auto &H : Hits)
    H.store(0);
  std::atomic<size_t> Chunks(0);
  std::atomic<size_t> BelowGrain(0);
  Pool.parallelForChunks(Count, Grain, [&](size_t Begin, size_t End) {
    ASSERT_LT(Begin, End);
    ASSERT_LE(End, Count);
    Chunks.fetch_add(1);
    // Only the chunk containing the tail may be shorter than the grain.
    if (End - Begin < Grain)
      BelowGrain.fetch_add(1);
    for (size_t I = Begin; I < End; ++I)
      Hits[I].fetch_add(1);
  });
  for (size_t I = 0; I < Count; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "index " << I;
  EXPECT_GE(Chunks.load(), 1u);
  EXPECT_LE(Chunks.load(), Count / Grain + 1);
  EXPECT_LE(BelowGrain.load(), 1u);
}

TEST(ThreadPool, ParallelForChunksZeroGrainIsTreatedAsOne) {
  ThreadPool Pool(2);
  std::atomic<long long> Sum(0);
  Pool.parallelForChunks(100, 0, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      Sum.fetch_add(static_cast<long long>(I));
  });
  EXPECT_EQ(Sum.load(), 99ll * 100 / 2);
}

TEST(ThreadPool, ParallelForChunksGrainAboveCountRunsInline) {
  ThreadPool Pool(4);
  std::atomic<int> Calls(0);
  Pool.parallelForChunks(10, 100, [&](size_t Begin, size_t End) {
    EXPECT_EQ(Begin, 0u);
    EXPECT_EQ(End, 10u);
    Calls.fetch_add(1);
  });
  EXPECT_EQ(Calls.load(), 1);
}

TEST(ThreadPool, HelpUntilRunsQueuedTasksOnTheCaller) {
  ThreadPool Pool(1); // no workers: only the helping caller makes progress
  std::atomic<int> Done(0);
  constexpr int Tasks = 32;
  // Tasks submit follow-up work, like the DAG scheduler readying children.
  for (int I = 0; I < Tasks; ++I)
    Pool.submit([&] {
      if (Done.fetch_add(1) + 1 == Tasks)
        Pool.poke();
    });
  Pool.helpUntil([&] { return Done.load() == Tasks; });
  EXPECT_EQ(Done.load(), Tasks);
}

TEST(ThreadPool, WorkerTaskChargesTheSubmittersLedger) {
  ThreadPool Pool(2);
  ExecutionStats Ledger;
  std::promise<ExecutionStats *> Seen;
  {
    LedgerScope Scope(&Ledger);
    Pool.submit([&] {
      charge(&ExecutionStats::Ntts, 3);
      Seen.set_value(currentLedger());
    });
  }
  // The caller never cooperates here, so the worker runs the task after
  // the submitting scope has closed.
  EXPECT_EQ(Seen.get_future().get(), &Ledger);
  EXPECT_EQ(Ledger.Ntts, 3u);
  EXPECT_EQ(currentLedger(), nullptr);
  Pool.waitIdle();
}

TEST(ThreadPool, NestedSubmitAndParallelForHelpersInheritTheLedger) {
  ThreadPool Pool(4);
  ExecutionStats Ledger;
  std::atomic<int> Foreign(0);
  auto Check = [&] {
    if (currentLedger() != &Ledger)
      Foreign.fetch_add(1);
  };
  {
    LedgerScope Scope(&Ledger);
    Pool.submit([&] {
      Check();
      Pool.submit([&] {
        Check();
        charge(&ExecutionStats::Ntts);
      });
      Pool.parallelFor(64, [&](size_t) {
        Check();
        charge(&ExecutionStats::MulMods);
      });
    });
  }
  // The draining caller has no ledger of its own; whatever it runs must
  // still charge the submitter's.
  Pool.waitIdle();
  EXPECT_EQ(Foreign.load(), 0);
  EXPECT_EQ(Ledger.Ntts, 1u);
  EXPECT_EQ(Ledger.MulMods, 64u);
}

TEST(ThreadPool, HelperGetsItsOwnLedgerBackAfterAnotherRunsTask) {
  ThreadPool Pool(1); // no workers: the helping caller runs every task
  ExecutionStats Mine, Theirs;
  std::atomic<bool> Done(false);
  auto Submit = [&] {
    LedgerScope Scope(&Theirs);
    Pool.submit([&] {
      charge(&ExecutionStats::Rotations);
      Done.store(true);
    });
  };
  LedgerScope Scope(&Mine);
  Submit();
  Pool.waitIdle();
  EXPECT_EQ(currentLedger(), &Mine);
  Done.store(false);
  Submit();
  Pool.helpUntil([&] { return Done.load(); });
  EXPECT_EQ(currentLedger(), &Mine);
  EXPECT_EQ(Theirs.Rotations, 2u);
  EXPECT_EQ(Mine.Rotations, 0u);
}

TEST(ThreadPool, TasksSubmittedWithoutALedgerChargeNothing) {
  ThreadPool Pool(1);
  ExecutionStats Mine;
  ExecutionStats *Seen = &Mine;
  Pool.submit([&] {
    Seen = currentLedger();
    charge(&ExecutionStats::Ntts);
  });
  // Even a caller with a ledger runs the task under the submitter's none.
  LedgerScope Scope(&Mine);
  Pool.waitIdle();
  EXPECT_EQ(Seen, nullptr);
  EXPECT_EQ(Mine.Ntts, 0u);
}

} // namespace
