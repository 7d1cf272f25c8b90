//===- ThreadPool.cpp - Cooperative worker pool ---------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/support/ThreadPool.h"

#include "eva/support/CostLedger.h"

#include <algorithm>

using namespace eva;

ThreadPool::ThreadPool(size_t NumThreads) {
  if (NumThreads == 0)
    NumThreads = std::max<size_t>(1, std::thread::hardware_concurrency());
  // The caller is the Nth execution context; spawn N - 1 workers.
  Workers.reserve(NumThreads - 1);
  for (size_t I = 0; I + 1 < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  // Drain remaining tasks on the destructing thread first: with no workers
  // (pool of size 1) queued tasks would otherwise be dropped, and with
  // workers it speeds shutdown. Submitting from a task during destruction is
  // still honored because runOneTask re-checks the queue.
  {
    UniqueLock Lock(PoolMutex);
    while (!Tasks.empty())
      runOneTask();
    Stopping = true;
  }
  TaskAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  ExecutionStats *Ledger = currentLedger();
  {
    LockGuard Lock(PoolMutex);
    Tasks.push({std::move(Task), Ledger});
  }
  TaskAvailable.notify_one();
  // A size-1 pool has no workers: wake cooperating threads in waitIdle.
  if (Workers.empty())
    Idle.notify_all();
}

void ThreadPool::runOneTask() {
  QueuedTask Task = std::move(Tasks.front());
  Tasks.pop();
  ++ActiveTasks;
  // Run the task itself unlocked; the caller's UniqueLock wraps the same
  // underlying mutex and observes it re-held on return.
  PoolMutex.unlock();
  {
    LedgerScope Scope(Task.Ledger);
    Task.Fn();
  }
  PoolMutex.lock();
  --ActiveTasks;
  if (Tasks.empty() && ActiveTasks == 0)
    Idle.notify_all();
}

void ThreadPool::waitIdle() {
  UniqueLock Lock(PoolMutex);
  for (;;) {
    if (!Tasks.empty()) {
      runOneTask();
      continue;
    }
    if (ActiveTasks == 0)
      return;
    while (Tasks.empty() && ActiveTasks != 0)
      Idle.wait(Lock);
  }
}

void ThreadPool::helpUntil(const std::function<bool()> &Done) {
  UniqueLock Lock(PoolMutex);
  for (;;) {
    if (Done())
      return;
    if (!Tasks.empty()) {
      runOneTask();
      continue;
    }
    while (!Stopping && Tasks.empty() && !Done())
      TaskAvailable.wait(Lock);
    if (Stopping && Tasks.empty())
      return;
  }
}

void ThreadPool::poke() {
  LockGuard Lock(PoolMutex);
  TaskAvailable.notify_all();
  Idle.notify_all();
}

void ThreadPool::runLoopChunks(LoopState &LS) {
  for (;;) {
    size_t Begin = LS.Next.fetch_add(LS.Chunk);
    if (Begin >= LS.Count)
      return;
    size_t End = std::min(Begin + LS.Chunk, LS.Count);
    (*LS.Body)(Begin, End);
    size_t Iters = End - Begin;
    if (LS.DoneIters.fetch_add(Iters) + Iters == LS.Count) {
      // Last chunk: wake the loop's caller. Taking the lock orders the
      // notification after the caller's predicate check.
      LockGuard Lock(LS.M);
      LS.AllDone.notify_all();
    }
  }
}

void ThreadPool::parallelForChunks(
    size_t Count, size_t Grain,
    const std::function<void(size_t, size_t)> &Body) {
  if (Count == 0)
    return;
  if (Grain == 0)
    Grain = 1;
  size_t MaxChunks = (Count + Grain - 1) / Grain;
  if (Workers.empty() || MaxChunks <= 1) {
    Body(0, Count);
    return;
  }

  std::shared_ptr<LoopState> LS = std::make_shared<LoopState>();
  LS->Count = Count;
  LS->Body = &Body;
  // A few chunks per participant balances load without paying dispatch
  // overhead per index; never split below the caller's grain.
  size_t Participants = std::min(size(), MaxChunks);
  LS->Chunk = std::max(Grain, (Count + Participants * 4 - 1) /
                                  (Participants * 4));
  size_t NumChunks = (Count + LS->Chunk - 1) / LS->Chunk;

  // One helper per worker, unconditionally. Gating on currently-idle
  // workers looks cheaper but a worker unwinding between tasks is counted
  // as busy for a few microseconds, and a stale zero here would serialize
  // back-to-back wavefront loops; a helper that arrives after the loop
  // drained costs only one fetch_add before exiting.
  size_t Helpers = std::min(Workers.size(), NumChunks - 1);
  for (size_t I = 0; I < Helpers; ++I)
    submit([this, LS] { runLoopChunks(*LS); });

  // The caller participates: nested calls from inside a worker task make
  // progress even when every other worker is occupied.
  runLoopChunks(*LS);

  // Wait only for straggler chunks already claimed by helpers. Helpers that
  // run after this returns see an exhausted iteration space and exit without
  // dereferencing Body.
  UniqueLock Lock(LS->M);
  while (LS->DoneIters.load() != LS->Count)
    LS->AllDone.wait(Lock);
}

void ThreadPool::parallelFor(size_t Count,
                             const std::function<void(size_t)> &Body) {
  if (Count == 0)
    return;
  if (Workers.empty() || Count == 1) {
    for (size_t I = 0; I < Count; ++I)
      Body(I);
    return;
  }
  parallelForChunks(Count, 1, [&Body](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      Body(I);
  });
}

void ThreadPool::workerLoop() {
  UniqueLock Lock(PoolMutex);
  for (;;) {
    while (!Stopping && Tasks.empty())
      TaskAvailable.wait(Lock);
    if (Stopping && Tasks.empty())
      return;
    runOneTask();
  }
}
