//===- RequestScheduler.cpp - Request admission gate ----------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/service/RequestScheduler.h"

#include <algorithm>
#include <chrono>

using namespace eva;

RequestScheduler::RequestScheduler(size_t MaxQueueDepthIn,
                                   MetricsRegistry *Metrics,
                                   size_t MaxRunningIn)
    : MaxQueueDepth(MaxQueueDepthIn),
      MaxRunning(std::max<size_t>(1, MaxRunningIn)) {
  if (Metrics) {
    SubmittedTotal = &Metrics->counter("eva_scheduler_submitted_total");
    RejectedTotal = &Metrics->counter("eva_scheduler_rejected_total");
    QueueDepth = &Metrics->gauge("eva_queue_depth");
    QueueSeconds = &Metrics->latencyHistogram("eva_request_queue_seconds");
  }
}

Expected<RequestScheduler::Result>
RequestScheduler::run(const std::function<Result()> &Work,
                      TraceContext *Trace) {
  auto Arrival = std::chrono::steady_clock::now();
  {
    UniqueLock Lock(M);
    if (Running == MaxRunning && Waiting >= MaxQueueDepth) {
      ++Stats.Rejected;
      if (RejectedTotal)
        RejectedTotal->add();
      return Expected<Result>::error("request queue full (" +
                                     std::to_string(MaxQueueDepth) +
                                     " deep): retry later");
    }
    ++Stats.Submitted;
    if (SubmittedTotal)
      SubmittedTotal->add();
    if (Running == MaxRunning) {
      ++Waiting;
      if (QueueDepth)
        QueueDepth->set(static_cast<int64_t>(Waiting));
      while (Running == MaxRunning)
        SlotFreed.wait(Lock);
      --Waiting;
      if (QueueDepth)
        QueueDepth->set(static_cast<int64_t>(Waiting));
    }
    ++Running;
    ++Stats.Batches;
  }
  double QueueWait = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Arrival)
                         .count();
  if (Trace)
    Trace->QueueSeconds = QueueWait;
  if (QueueSeconds)
    QueueSeconds->observe(QueueWait);

  Result R = [&]() -> Result {
    try {
      return Work();
    } catch (const std::exception &E) {
      return Result::error(std::string("execution failed: ") + E.what());
    } catch (...) {
      return Result::error("execution failed with unknown exception");
    }
  }();
  {
    LockGuard Lock(M);
    --Running;
    ++(R.ok() ? Stats.Completed : Stats.Failed);
  }
  SlotFreed.notify_one();
  return R;
}

SchedulerStats RequestScheduler::stats() const {
  LockGuard Lock(M);
  return Stats;
}
