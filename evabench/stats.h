//===- stats.h - Quantiles over raw samples ---------------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The only statistics the benchmark reports: nearest-rank quantiles over
/// the raw samples (never interpolated, never from a histogram), the median
/// and quartiles, and the tail quantile a sample count can support — the
/// highest percentile with at least ten samples beyond it.
///
//===----------------------------------------------------------------------===//

#ifndef EVABENCH_STATS_H
#define EVABENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace evabench {

/// Nearest-rank percentile \p P (in (0, 100]) of \p Samples: the value at
/// rank ceil(P/100 * n) of the sorted samples. Requires a non-empty input.
inline double percentile(std::vector<double> Samples, double P) {
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(Samples.size()) -
                          1e-9); // 0.99 * 1000 must give 990, not 991
  size_t Index = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Samples[std::min(Index, Samples.size() - 1)];
}

inline double median(const std::vector<double> &Samples) {
  return percentile(Samples, 50);
}

struct Quartiles {
  double Q1 = 0, Median = 0, Q3 = 0;
};

inline Quartiles quartiles(const std::vector<double> &Samples) {
  return {percentile(Samples, 25), percentile(Samples, 50),
          percentile(Samples, 75)};
}

/// The tail a sample count supports: the highest percentile whose
/// nearest-rank value leaves at least ten samples beyond it.
struct Tail {
  double Percentile = 0; ///< e.g. 99 for n = 1000
  double Value = 0;
};

/// Empty when fewer than 11 samples exist (then only the median is
/// reported).
inline std::optional<Tail> tail(const std::vector<double> &Samples) {
  size_t N = Samples.size();
  if (N < 11)
    return std::nullopt;
  std::vector<double> Sorted = Samples;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Rank = N - 10; // ten samples beyond rank N - 10
  return Tail{100.0 * static_cast<double>(Rank) / static_cast<double>(N),
              Sorted[Rank - 1]};
}

} // namespace evabench

#endif // EVABENCH_STATS_H
