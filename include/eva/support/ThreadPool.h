//===- eva/support/ThreadPool.h - Cooperative worker pool -------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size cooperative worker pool. The paper's executor uses the
/// Galois parallel library to schedule the instruction DAG asynchronously;
/// this pool plus the dependency-counting DAG schedule in
/// eva/runtime/CkksExecutor.cpp plays that role. parallelFor /
/// parallelForChunks provide the bulk-synchronous (OpenMP-like) wavefronts
/// of the executor's CHET-style kernel schedule, and the limb-level
/// parallelism the Evaluator uses inside a single CKKS operation.
///
/// Threading model: a pool of size N owns N-1 background workers; the Nth
/// execution context is whichever thread calls parallelFor, helpUntil, or
/// waitIdle — the caller *participates* in the work instead of blocking on a
/// condition variable. This makes nested data parallelism safe: a worker
/// that reaches a parallelFor inside a task executes loop chunks itself, so
/// the loop makes progress even when every other worker is busy (or when
/// there are no other workers at all). The old design, where the caller
/// enqueued tasks and slept, serialized nested loops and deadlocked once all
/// workers were blocked inside one.
///
/// Every task runs under the cost ledger (CostLedger.h) that was current on
/// the thread that submitted it, wherever and whenever it executes, and the
/// executing thread's own ledger is restored afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SUPPORT_THREADPOOL_H
#define EVA_SUPPORT_THREADPOOL_H

#include "eva/support/ThreadAnnotations.h"

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

namespace eva {

struct ExecutionStats;

class ThreadPool {
public:
  /// Creates a pool whose total parallelism is \p NumThreads: NumThreads - 1
  /// background workers plus the cooperating caller (0 means hardware
  /// concurrency). ThreadPool(1) therefore spawns no threads and runs
  /// everything inline on the caller: an executor over it is the serial
  /// executor, and thread-count accounting in the scaling benchmarks stays
  /// honest.
  explicit ThreadPool(size_t NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total parallelism: background workers + the cooperating caller.
  size_t size() const { return Workers.size() + 1; }

  /// Enqueues \p Task for asynchronous execution. With a pool of size 1 the
  /// task stays queued until the caller drains it via waitIdle or helpUntil.
  void submit(std::function<void()> Task) EVA_EXCLUDES(PoolMutex);

  /// Cooperatively drains the pool: the caller runs queued tasks (so a pool
  /// of size 1 still makes progress) and returns once the queue is empty and
  /// no task is in flight.
  void waitIdle() EVA_EXCLUDES(PoolMutex);

  /// Runs queued tasks on the calling thread until \p Done() returns true,
  /// sleeping when the queue is empty. A thread that flips the condition
  /// from another thread must call poke() afterwards.
  void helpUntil(const std::function<bool()> &Done) EVA_EXCLUDES(PoolMutex);

  /// Wakes threads sleeping in helpUntil so they re-check their condition.
  void poke() EVA_EXCLUDES(PoolMutex);

  /// Runs Body(I) for I in [0, Count) across the pool and waits for all
  /// iterations (a barrier), mimicking an OpenMP parallel-for. The caller
  /// executes chunks itself; safe to call from inside a worker task.
  void parallelFor(size_t Count, const std::function<void(size_t)> &Body);

  /// Chunked variant for fine-grained loops: Body(Begin, End) is invoked on
  /// disjoint ranges covering [0, Count), each at least \p Grain iterations
  /// (except possibly the last), so per-element dispatch overhead is paid
  /// once per chunk instead of once per index.
  void parallelForChunks(size_t Count, size_t Grain,
                         const std::function<void(size_t, size_t)> &Body);

private:
  /// Shared state of one parallel loop. Heap-allocated so helper tasks that
  /// run after the loop completed (the caller has already returned) find an
  /// exhausted iteration space and exit without touching the dead Body.
  struct LoopState {
    std::atomic<size_t> Next{0};
    std::atomic<size_t> DoneIters{0};
    size_t Count = 0;
    size_t Chunk = 1;
    const std::function<void(size_t, size_t)> *Body = nullptr;
    /// Pure signalling pair: AllDone wakes the loop's caller once the
    /// atomic DoneIters reaches Count; M only orders notify vs. wait.
    Mutex M;
    CondVar AllDone;
  };

  void workerLoop() EVA_EXCLUDES(PoolMutex);
  /// Claims and runs chunks of \p LS until the iteration space is exhausted.
  void runLoopChunks(LoopState &LS);
  /// Pops and runs one task. Runs the task itself with the pool mutex
  /// dropped, re-acquiring before returning (the caller's lock object
  /// observes no net change).
  void runOneTask() EVA_REQUIRES(PoolMutex);

  /// A queued task and the submitter's ledger it charges.
  struct QueuedTask {
    std::function<void()> Fn;
    ExecutionStats *Ledger = nullptr;
  };

  std::vector<std::thread> Workers;
  Mutex PoolMutex;
  CondVar TaskAvailable;
  CondVar Idle;
  std::queue<QueuedTask> Tasks EVA_GUARDED_BY(PoolMutex);
  size_t ActiveTasks EVA_GUARDED_BY(PoolMutex) = 0;
  bool Stopping EVA_GUARDED_BY(PoolMutex) = false;
};

} // namespace eva

#endif // EVA_SUPPORT_THREADPOOL_H
