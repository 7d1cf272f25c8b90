//===- trace.h - In-memory spans for the traced run -------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer's public
/// functions (nothing inside the library is instrumented). A span has a
/// name, start, end, parent and op id; spans stay in memory and are written
/// as JSON when the run ends. A layer's number is its self time: the span's
/// duration minus the durations of its direct children.
///
//===----------------------------------------------------------------------===//

#ifndef EVABENCH_TRACE_H
#define EVABENCH_TRACE_H

#include "eva/support/ThreadAnnotations.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace evabench {

struct SpanRecord {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0: a root span
  uint64_t Op = 0;
  std::string Name;
  double Start = 0, End = 0; ///< seconds since the tracer was created
};

/// Thread-safe span sink. When disabled every call is a no-op, so untraced
/// runs pay one branch per span site.
class Tracer {
public:
  explicit Tracer(bool Enabled)
      : Enabled(Enabled), Epoch(std::chrono::steady_clock::now()) {}

  bool enabled() const { return Enabled; }

  /// Seconds since the tracer was created.
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Epoch)
        .count();
  }

  /// Reserves an id for a span whose children are recorded before it ends.
  uint64_t reserve() EVA_EXCLUDES(M) {
    eva::LockGuard Lock(M);
    return ++LastId;
  }

  /// Records a finished span; \p Id 0 allocates a fresh one. Returns the id.
  uint64_t record(std::string Name, double Start, double End, uint64_t Op,
                  uint64_t Parent = 0, uint64_t Id = 0) EVA_EXCLUDES(M);

  /// Self time per span name over all spans. Root spans are ops; a root's
  /// own self time is the part of the op no layer span covers.
  struct Summary {
    std::map<std::string, double> SelfSeconds;
    std::vector<double> RootDurations;
    double MaxUncoveredFrac = 0; ///< worst op: root self time / duration
  };
  Summary summarize() const EVA_EXCLUDES(M);

  /// Writes every span as a JSON array. False on I/O failure.
  bool write(const std::string &Path) const EVA_EXCLUDES(M);

private:
  const bool Enabled;
  const std::chrono::steady_clock::time_point Epoch;
  mutable eva::Mutex M;
  uint64_t LastId EVA_GUARDED_BY(M) = 0;
  std::vector<SpanRecord> Spans EVA_GUARDED_BY(M);
};

/// Times one call into a layer: records [construction, destruction) under
/// \p Name, as a child of \p Parent.
class Span {
public:
  Span(Tracer &T, const char *Name, uint64_t Op, uint64_t Parent)
      : T(T), Name(Name), Op(Op), Parent(Parent),
        Id(T.enabled() ? T.reserve() : 0), Start(T.enabled() ? T.now() : 0) {}
  ~Span() {
    if (T.enabled())
      T.record(Name, Start, T.now(), Op, Parent, Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  uint64_t id() const { return Id; }

private:
  Tracer &T;
  const char *Name;
  uint64_t Op, Parent, Id;
  double Start;
};

} // namespace evabench

#endif // EVABENCH_TRACE_H
