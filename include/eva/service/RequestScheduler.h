//===- eva/service/RequestScheduler.h - Request admission gate --*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's admission gate. An EXECUTE request runs on the thread that
/// received it (a ServiceServer connection thread, or the caller of an
/// InProcessTransport) once it holds one of a fixed number of execution
/// slots, by default one per hardware thread, so the cores are not
/// oversubscribed however many connections or sessions are open. A request
/// that finds every slot taken waits for one; at most MaxQueueDepth requests
/// wait, and any beyond that are refused at once ("queue full") instead of
/// piling into an unbounded backlog. The gate starts no thread and hands no
/// request to another one.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERVICE_REQUESTSCHEDULER_H
#define EVA_SERVICE_REQUESTSCHEDULER_H

#include "eva/ckks/Ciphertext.h"
#include "eva/support/Error.h"
#include "eva/support/Telemetry.h"
#include "eva/support/ThreadAnnotations.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace eva {

struct SchedulerStats {
  uint64_t Submitted = 0; ///< requests not refused (admitted or waiting)
  uint64_t Completed = 0; ///< admitted requests that produced outputs
  uint64_t Failed = 0;    ///< admitted requests whose execution failed
  uint64_t Rejected = 0;  ///< refused: MaxQueueDepth requests were waiting
  uint64_t Batches = 0;   ///< requests admitted to an execution slot
};

class RequestScheduler {
public:
  using Result = Expected<std::map<std::string, Ciphertext>>;

  /// At most \p MaxRunning requests execute at once (0 counts as 1) and at
  /// most \p MaxQueueDepth wait for a slot. \p Metrics, when non-null,
  /// receives the submitted/rejected counts, the queue depth and the
  /// queue-wait latency; the instruments are resolved here, once.
  explicit RequestScheduler(
      size_t MaxQueueDepth, MetricsRegistry *Metrics = nullptr,
      size_t MaxRunning = std::thread::hardware_concurrency());

  RequestScheduler(const RequestScheduler &) = delete;
  RequestScheduler &operator=(const RequestScheduler &) = delete;

  /// Runs \p Work on the calling thread once it holds an execution slot and
  /// returns what it returned; an exception it throws comes back as an
  /// error. Fails without running Work when MaxQueueDepth requests already
  /// wait. \p Trace, when non-null, receives the queue-wait span.
  Expected<Result> run(const std::function<Result()> &Work,
                       TraceContext *Trace = nullptr) EVA_EXCLUDES(M);

  SchedulerStats stats() const EVA_EXCLUDES(M);

private:
  const size_t MaxQueueDepth;
  const size_t MaxRunning;
  Counter *SubmittedTotal = nullptr;
  Counter *RejectedTotal = nullptr;
  Gauge *QueueDepth = nullptr;
  Histogram *QueueSeconds = nullptr;
  /// Leaf lock: guards the slot counts and the stats. Work runs with it
  /// released.
  mutable Mutex M;
  CondVar SlotFreed;
  size_t Running EVA_GUARDED_BY(M) = 0;
  size_t Waiting EVA_GUARDED_BY(M) = 0;
  SchedulerStats Stats EVA_GUARDED_BY(M);
};

} // namespace eva

#endif // EVA_SERVICE_REQUESTSCHEDULER_H
