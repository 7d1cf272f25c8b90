//===- bench_common.h - Shared helpers of the run_benches suites -*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common plumbing of `run_benches`' suites: preparing a network, sampling
/// a timed operation, and the JSON reporter that writes BENCH_*.json. No
/// environment variable changes what a suite runs.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_BENCH_COMMON_H
#define EVA_BENCH_COMMON_H

#include "eva/api/Runner.h"
#include "eva/math/Simd.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/support/Timer.h"
#include "eva/tensor/Network.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace evabench {

/// The host's hardware thread count (at least 1): the thread count of
/// benches that run one executor, and the ceiling of the Fig 7 sweep.
inline size_t execThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// The Fig 7 thread sweep: {1, 2, 4, ...} up to the core count, so no point
/// measures oversubscription.
inline std::vector<size_t> threadSweep() {
  std::vector<size_t> Threads = {1};
  for (size_t T = 2; T <= execThreads(); T *= 2)
    Threads.push_back(T);
  return Threads;
}

/// Encodes an image tensor into the program's slot layout.
inline std::vector<double> imageSlots(const eva::NetworkDefinition &Net,
                                      const eva::Tensor &Image,
                                      size_t VecSize) {
  eva::CipherLayout L = eva::CipherLayout::forImage(
      Net.inputChannels(), Net.inputHeight(), Net.inputWidth());
  std::vector<double> Slots(VecSize, 0.0);
  for (size_t C = 0; C < L.C; ++C)
    for (size_t Y = 0; Y < L.H; ++Y)
      for (size_t X = 0; X < L.W; ++X)
        Slots[L.slotOf(C, Y, X)] = Image.at3(C, Y, X);
  return Slots;
}

/// One compiled network ready to run.
struct PreparedNetwork {
  eva::NetworkDefinition Net;
  std::unique_ptr<eva::Program> Prog;
  eva::CompiledProgram Compiled;
  std::shared_ptr<eva::CkksWorkspace> Workspace;
  double CompileSeconds = 0;
  double ContextSeconds = 0;
};

/// A Runner over a prepared network's shared workspace (benches reuse one
/// expensive key set across executor styles and thread counts). \p PN must
/// outlive the runner.
inline std::unique_ptr<eva::Runner>
makeLocalRunner(const PreparedNetwork &PN, eva::LocalStyle Style,
                size_t Threads) {
  eva::LocalRunnerOptions Opts;
  Opts.Threads = Threads;
  Opts.Style = Style;
  eva::Expected<std::unique_ptr<eva::Runner>> R =
      eva::Runner::local(PN.Compiled, PN.Workspace, Opts);
  if (!R)
    eva::fatalError("bench: " + R.message());
  return std::move(R.value());
}

/// Compiles \p Net with \p Options and builds client keys (seed 1234),
/// timing both. A compile or key error ends the run.
inline PreparedNetwork prepare(eva::NetworkDefinition Net,
                               const eva::CompilerOptions &Options) {
  PreparedNetwork Out;
  Out.Net = std::move(Net);
  Out.Prog = Out.Net.buildProgram(eva::TensorScales());
  eva::Timer CompileT;
  eva::Expected<eva::CompiledProgram> CP = eva::compile(*Out.Prog, Options);
  Out.CompileSeconds = CompileT.seconds();
  if (!CP)
    eva::fatalError("bench: " + Out.Net.name() +
                    ": compile error: " + CP.message());
  Out.Compiled = std::move(CP.value());
  eva::Timer ContextT;
  eva::Expected<std::shared_ptr<eva::CkksWorkspace>> WS =
      eva::CkksWorkspace::createClient(Out.Compiled, 1234);
  Out.ContextSeconds = ContextT.seconds();
  if (!WS)
    eva::fatalError("bench: " + Out.Net.name() +
                    ": context error: " + WS.message());
  Out.Workspace = WS.value();
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON benchmark reporting (the BENCH_*.json perf trajectory)
//===----------------------------------------------------------------------===//

/// One measured operation. Times are wall-clock seconds per iteration.
/// SamplesInMean < Iterations records that the mean excluded outlier
/// iterations (see measure()). A row whose minimum was not measured (a mean
/// read off a histogram) leaves MinSeconds empty, and the JSON omits it.
/// Fields are the row's other named numbers ("speedup_vs_1thread",
/// "requests_per_second", "bytes", "decompositions", "ntts", "mulmods",
/// "arena_heap_bytes", the paper suite's columns), written in the order
/// they were added.
struct BenchResult {
  std::string Op;
  size_t Threads = 1;
  size_t Iterations = 0;
  size_t SamplesInMean = 0;
  double MeanSeconds = 0;
  std::optional<double> MinSeconds;
  std::vector<std::pair<std::string, double>> Fields;

  BenchResult &field(std::string Name, double Value) {
    Fields.emplace_back(std::move(Name), Value);
    return *this;
  }
};

/// Samples \p Fn — a callable reporting its own per-iteration duration in
/// seconds (e.g. a Runner's compute-phase time, excluding encrypt and
/// decrypt) — at least \p MinIters times and until \p MinTotalSeconds of
/// reported time have accumulated, and reports the per-iteration mean and
/// min. With >= 3 iterations the single slowest one is excluded from the
/// mean (not the min): on shared/virtualized hosts a co-tenant burst can
/// inflate one iteration by 50%, which would otherwise dominate a
/// small-sample mean and fake a regression at whichever sweep point it
/// lands on.
template <typename FnT>
inline BenchResult measureSeconds(const std::string &Op, FnT &&Fn,
                                  size_t MinIters = 3,
                                  double MinTotalSeconds = 0.2) {
  BenchResult R;
  R.Op = Op;
  double Total = 0;
  double Min = 0;
  double Max = 0;
  size_t Iters = 0;
  while (Iters < MinIters || Total < MinTotalSeconds) {
    double S = Fn();
    Total += S;
    Min = Iters == 0 ? S : std::min(Min, S);
    Max = Iters == 0 ? S : std::max(Max, S);
    ++Iters;
    if (Iters >= 1000000)
      break;
  }
  R.Iterations = Iters;
  R.SamplesInMean = Iters >= 3 ? Iters - 1 : Iters;
  R.MeanSeconds = Iters >= 3 ? (Total - Max) / static_cast<double>(Iters - 1)
                             : Total / static_cast<double>(Iters);
  R.MinSeconds = Min;
  return R;
}

/// Wall-clock flavour: times each call of \p Fn itself. Same sampling and
/// outlier trimming as measureSeconds.
template <typename FnT>
inline BenchResult measure(const std::string &Op, FnT &&Fn,
                           size_t MinIters = 3, double MinTotalSeconds = 0.2) {
  return measureSeconds(
      Op,
      [&Fn] {
        eva::Timer T;
        Fn();
        return T.seconds();
      },
      MinIters, MinTotalSeconds);
}

/// Accumulates BenchResults and serializes them as a schema-stable JSON
/// document:
///
/// \code
///   {
///     "schema": "eva-bench-v1",
///     "suite": "micro",
///     "git_sha": "abc123",
///     "host_threads": 4,
///     "simd": "avx2",
///     "unit": "seconds",
///     "results": [
///       {"op": "ntt_forward_n8192", "threads": 1, "iterations": 12,
///        "samples_in_mean": 11, "mean_seconds": 1.5e-3,
///        "min_seconds": 1.4e-3}
///     ]
///   }
/// \endcode
///
/// The header names the host: its hardware thread count and the SIMD level
/// the kernels dispatched to. samples_in_mean < iterations means the
/// slowest iteration was excluded from the mean (measure()'s outlier trim);
/// a row's named fields (e.g. thread-sweep rows' "speedup_vs_1thread")
/// follow its times.
///
/// A report also collects its suite's pass/fail checks (check()); the
/// checks are not part of the JSON.
class JsonReport {
public:
  JsonReport(std::string Suite, std::string GitSha)
      : Suite(std::move(Suite)), GitSha(std::move(GitSha)) {}

  /// Prints the row and appends it. Rejects statistically impossible rows
  /// at the source: a minimum taken over the same sample population as the
  /// mean can never exceed it, so a violating row means two different
  /// populations were mixed (the bug that once shipped min > mean rows in
  /// BENCH_service.json).
  void add(BenchResult R) {
    if (R.MinSeconds && *R.MinSeconds > R.MeanSeconds)
      eva::fatalError("bench: impossible result for op '" + R.Op +
                      "': min_seconds " + std::to_string(*R.MinSeconds) +
                      " > mean_seconds " + std::to_string(R.MeanSeconds));
    std::printf("  %-38s threads=%-3zu iters=%-4zu mean=%10.6fs ",
                R.Op.c_str(), R.Threads, R.Iterations, R.MeanSeconds);
    if (R.MinSeconds)
      std::printf("min=%10.6fs", *R.MinSeconds);
    else
      std::printf("min=%11s", "-");
    for (const auto &[Name, Value] : R.Fields)
      std::printf(" %s=%s", Name.c_str(), number(Value).c_str());
    std::printf("\n");
    Results.push_back(std::move(R));
  }

  /// Prints a pass/fail gate. A failed one still lets the suite finish and
  /// its report be written, but makes run_benches exit nonzero.
  void check(bool Ok, const std::string &What) {
    std::printf("  [%s] %s\n", Ok ? "ok" : "FAIL", What.c_str());
    Failures += Ok ? 0 : 1;
  }

  bool empty() const { return Results.empty(); }
  int failures() const { return Failures; }

  std::string str() const {
    std::string Out;
    Out += "{\n";
    Out += "  \"schema\": \"eva-bench-v1\",\n";
    Out += "  \"suite\": \"" + escape(Suite) + "\",\n";
    Out += "  \"git_sha\": \"" + escape(GitSha) + "\",\n";
    Out += "  \"host_threads\": " +
           std::to_string(std::thread::hardware_concurrency()) + ",\n";
    Out += "  \"simd\": \"" +
           std::string(eva::simdLevelName(eva::activeSimdLevel())) + "\",\n";
    Out += "  \"unit\": \"seconds\",\n";
    Out += "  \"results\": [\n";
    for (size_t I = 0; I < Results.size(); ++I) {
      const BenchResult &R = Results[I];
      char Buf[320];
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"op\": \"%s\", \"threads\": %zu, "
                    "\"iterations\": %zu, \"samples_in_mean\": %zu, "
                    "\"mean_seconds\": %.9g",
                    escape(R.Op).c_str(), R.Threads, R.Iterations,
                    R.SamplesInMean, R.MeanSeconds);
      Out += Buf;
      if (R.MinSeconds) {
        std::snprintf(Buf, sizeof(Buf), ", \"min_seconds\": %.9g",
                      *R.MinSeconds);
        Out += Buf;
      }
      for (const auto &[Name, Value] : R.Fields)
        Out += ", \"" + escape(Name) + "\": " + number(Value);
      Out += I + 1 == Results.size() ? "}\n" : "},\n";
    }
    Out += "  ]\n";
    Out += "}\n";
    return Out;
  }

  /// Writes the document to \p Path. Returns false on I/O failure.
  bool write(const std::string &Path) const {
    std::ofstream Out(Path, std::ios::binary);
    if (!Out)
      return false;
    Out << str();
    return static_cast<bool>(Out);
  }

private:
  /// Integer values (counts, bytes, exponents) print exactly; the rest with
  /// four significant digits.
  static std::string number(double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf),
                  V == std::floor(V) && std::abs(V) < 1e15 ? "%.0f" : "%.4g",
                  V);
    return Buf;
  }

  static std::string escape(const std::string &S) {
    std::string E;
    for (char C : S) {
      if (C == '"' || C == '\\')
        E += '\\';
      E += C;
    }
    return E;
  }

  std::string Suite;
  std::string GitSha;
  std::vector<BenchResult> Results;
  int Failures = 0;
};

/// The run_benches suites that live in their own files: rotation_cost.cpp,
/// service_throughput.cpp and paper_tables.cpp.
void rotationSuite(JsonReport &Report);
void serviceSuite(JsonReport &Report);
void paperSuite(JsonReport &Report);

} // namespace evabench

#endif // EVA_BENCH_COMMON_H
