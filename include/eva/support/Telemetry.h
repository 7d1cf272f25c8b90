//===- eva/support/Telemetry.h - Metrics registry and tracing ---*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Always-on operational telemetry for the encrypted-compute service: the
/// server computes on opaque ciphertexts (paper Section 2), so this layer
/// is the only window an operator has into a running fleet.
///
/// Three instrument kinds, all lock-free on the hot path (relaxed atomics;
/// instrument handles are stable for the registry's lifetime):
///
///  * Counter   — monotone uint64 (requests, errors, evaluator-op totals).
///  * Gauge     — settable int64 (queue depth, open sessions, pinned key
///                bytes).
///  * Histogram — fixed-boundary latency/size distribution with
///                count/sum and post-hoc quantile extraction (p50/p95/p99)
///                from a snapshot; one relaxed increment + one CAS-add per
///                observation.
///
/// Reads never block writers: snapshot() copies every instrument's current
/// values into a plain MetricsSnapshot, which serializes over the wire
/// (MessageType::GetMetrics), renders Prometheus-style text exposition, and
/// answers quantile queries. Metric names follow the Prometheus convention
/// including labels baked into the registered name:
/// `eva_requests_total{program="svc_bench"}`.
///
/// TraceContext is the per-request companion: a server-assigned request id
/// plus span timings (decode, queue wait, execute, encode) carried through
/// dispatch -> admission gate -> session, landing both in the histograms
/// above and (at -v) in one structured log line per request.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SUPPORT_TELEMETRY_H
#define EVA_SUPPORT_TELEMETRY_H

#include "eva/support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace eva {

//===----------------------------------------------------------------------===//
// Instruments
//===----------------------------------------------------------------------===//

class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

class Gauge {
public:
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  void add(int64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  void sub(int64_t N) { V.fetch_sub(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Fixed-boundary histogram: observations land in the first bucket whose
/// upper bound is >= the value (the last bucket is implicit +Inf). Bounds
/// are fixed at registration so concurrent observation needs no
/// coordination beyond per-bucket relaxed increments.
class Histogram {
public:
  explicit Histogram(std::vector<double> UpperBounds);

  void observe(double Value);

  const std::vector<double> &bounds() const { return UpperBounds; }
  uint64_t count() const { return Count.load(std::memory_order_relaxed); }

  /// Copies buckets/count/sum. The copy is a consistent-enough view for
  /// monitoring: each field is individually atomic, and Count is read last
  /// so `sum(buckets) >= count` never underreports a bucket.
  void read(std::vector<uint64_t> &BucketsOut, uint64_t &CountOut,
            double &SumOut) const;

private:
  std::vector<double> UpperBounds;               ///< ascending, finite
  std::vector<std::atomic<uint64_t>> Buckets;    ///< UpperBounds.size() + 1
  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0}; // CAS-add (atomic<double>::fetch_add is C++20
                              // but spotty in libstdc++ 12)
};

//===----------------------------------------------------------------------===//
// Snapshots
//===----------------------------------------------------------------------===//

struct CounterSnapshot {
  std::string Name;
  uint64_t Value = 0;
};

struct GaugeSnapshot {
  std::string Name;
  int64_t Value = 0;
};

struct HistogramSnapshot {
  std::string Name;
  std::vector<double> UpperBounds; ///< ascending finite bounds
  std::vector<uint64_t> Buckets;   ///< UpperBounds.size() + 1 (+Inf last)
  uint64_t Count = 0;
  double Sum = 0;

  /// Prometheus-style quantile estimate (\p Q in [0,1]): find the bucket
  /// holding the Q*Count-th observation and interpolate linearly inside it.
  /// Values in the +Inf bucket clamp to the largest finite bound. Returns 0
  /// when empty.
  double quantile(double Q) const;
  double mean() const { return Count == 0 ? 0 : Sum / double(Count); }
  /// Width of the bucket that answers quantile(\p Q) — the resolution of
  /// that estimate (tests assert |client-measured - quantile| <= width).
  double bucketWidthAt(double Q) const;
};

/// One coherent read of every registered instrument.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> Counters;   ///< name-sorted
  std::vector<GaugeSnapshot> Gauges;       ///< name-sorted
  std::vector<HistogramSnapshot> Histograms; ///< name-sorted

  const CounterSnapshot *counter(std::string_view Name) const;
  const GaugeSnapshot *gauge(std::string_view Name) const;
  const HistogramSnapshot *histogram(std::string_view Name) const;
  uint64_t counterValue(std::string_view Name) const {
    const CounterSnapshot *C = counter(Name);
    return C ? C->Value : 0;
  }

  /// Prometheus text exposition (`# TYPE` lines, `_bucket{le="..."}`
  /// cumulative buckets, `_sum`/`_count`). Labels baked into instrument
  /// names are merged with the `le` label on bucket lines.
  std::string renderText() const;
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// Named instruments with stable addresses. Registration takes a mutex;
/// the returned references are valid for the registry's lifetime and their
/// updates are lock-free. Re-registering a name returns the existing
/// instrument (histogram bounds from the first registration win).
class MetricsRegistry {
public:
  Counter &counter(std::string_view Name) EVA_EXCLUDES(M);
  Gauge &gauge(std::string_view Name) EVA_EXCLUDES(M);
  Histogram &histogram(std::string_view Name,
                       const std::vector<double> &UpperBounds)
      EVA_EXCLUDES(M);
  /// Latency histogram with the default exponential boundaries.
  Histogram &latencyHistogram(std::string_view Name) {
    return histogram(Name, defaultLatencyBounds());
  }

  MetricsSnapshot snapshot() const EVA_EXCLUDES(M);

  /// 100us .. 30s, roughly x2.5 per step: wide enough for both a sub-ms
  /// queue wait and a multi-second deep-network execute.
  static const std::vector<double> &defaultLatencyBounds();

private:
  /// Leaf lock: registration and snapshot only; never held while calling
  /// out of this class (the lock-order table in tools/evalint-cpp treats it
  /// as always-acquired-last).
  mutable Mutex M;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters
      EVA_GUARDED_BY(M);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges
      EVA_GUARDED_BY(M);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms
      EVA_GUARDED_BY(M);
};

/// `base{key="value"}` with value escaping — the convention for per-program
/// and per-cause metric families.
std::string labeledMetric(std::string_view Base, std::string_view Key,
                          std::string_view Value);

//===----------------------------------------------------------------------===//
// Request tracing
//===----------------------------------------------------------------------===//

/// Follows one request through the service: dispatch assigns the id and
/// times decode/encode, the admission gate fills the queue-wait span, the
/// session fills the execute span. Lives on the dispatching thread's stack;
/// the request executes on that same thread.
struct TraceContext {
  uint64_t RequestId = 0;
  uint64_t SessionId = 0;
  std::string Program;
  double DecodeSeconds = 0;  ///< wire decode, deserialization, validation
  double QueueSeconds = 0;   ///< wait for an execution slot
  double ExecuteSeconds = 0; ///< session execute (validate + run)
  double EncodeSeconds = 0;  ///< response serialization
  double TotalSeconds = 0;   ///< dispatch entry to response ready
};

} // namespace eva

#endif // EVA_SUPPORT_TELEMETRY_H
