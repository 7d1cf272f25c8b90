//===- stats_test.cpp - Tests for the quantile helpers ---------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "stats.h"

#include <cstdio>

using namespace evabench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

std::vector<double> oneTo(size_t N) {
  std::vector<double> V;
  for (size_t I = N; I >= 1; --I) // descending: the helpers must sort
    V.push_back(static_cast<double>(I));
  return V;
}

} // namespace

int main() {
  // n = 1: every quantile is the sample; no tail.
  check(percentile({7.5}, 1) == 7.5, "n=1 p1");
  check(median({7.5}) == 7.5, "n=1 median");
  check(percentile({7.5}, 100) == 7.5, "n=1 p100");
  check(!tail({7.5}), "n=1 has no tail");

  // Ties: nearest rank returns a sample, never a blend.
  std::vector<double> Ties = {3, 1, 3, 3, 2, 3};
  check(median(Ties) == 3, "ties median");
  check(percentile(Ties, 25) == 2, "ties p25");
  check(percentile(Ties, 10) == 1, "ties p10");

  // n < 11: median and quartiles only.
  std::vector<double> Ten = oneTo(10);
  Quartiles Q = quartiles(Ten);
  check(Q.Q1 == 3 && Q.Median == 5 && Q.Q3 == 8, "n=10 quartiles");
  check(!tail(Ten), "n=10 has no tail");
  check(median({4, 1}) == 1, "n=2 median is the lower sample");

  // n = 11: the tail leaves exactly ten samples beyond it.
  std::optional<Tail> T11 = tail(oneTo(11));
  check(T11 && T11->Value == 1, "n=11 tail value");

  // n = 1000: p99 is the 990th value, leaving exactly ten samples beyond.
  std::vector<double> Thousand = oneTo(1000);
  check(percentile(Thousand, 99) == 990, "n=1000 p99");
  check(percentile(Thousand, 50) == 500, "n=1000 median");
  check(percentile(Thousand, 100) == 1000, "n=1000 max");
  std::optional<Tail> T = tail(Thousand);
  check(T && T->Percentile == 99 && T->Value == 990, "n=1000 tail is p99");

  if (Failures == 0)
    std::printf("stats_test: all checks passed\n");
  return Failures == 0 ? 0 : 1;
}
