//===- harness.h - Shared plumbing of the evabench workloads ----*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the four workloads share: run options, the metric report, output
/// checks, and the two per-layer probes every traced run takes — a replay
/// of compile()'s pass order through the public pass functions, and the
/// CKKS key-generation and kernel timings at the workload's own parameters.
///
//===----------------------------------------------------------------------===//

#ifndef EVABENCH_HARNESS_H
#define EVABENCH_HARNESS_H

#include "trace.h"

#include "eva/api/Valuation.h"
#include "eva/core/Compiler.h"
#include "eva/runtime/CkksExecutor.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace eva {
class Runner;
}

namespace evabench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".";
  std::string GitSha = "unknown";
  /// Threads and connections the benchmark opens: min(4, nproc).
  size_t Threads = 1;
};

/// One run's metrics. End-to-end metrics come only from untraced runs and
/// per-layer metrics only from traced runs; details (extra quantiles, the
/// sweep's steps) are printed and written but stay out of the final JSON.
class Report {
public:
  Report(std::string Workload, bool Traced)
      : Workload(std::move(Workload)), Traced(Traced) {}

  void endToEnd(const std::string &Name, double Value, const char *Unit);
  void layer(const std::string &Name, double Value, const char *Unit);
  void detail(const std::string &Name, double Value, const char *Unit);

  /// Counts one attempted op; \p Ok false counts it as failed.
  void op(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
  size_t failed() const { return Failed; }

  /// Prints every metric as `workload metric value unit`, the host
  /// fingerprint, writes OUT/<workload>.json, and prints the final JSON
  /// line. Returns false when the result file cannot be written.
  bool finish(const Options &O, double WallSeconds) const;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::string Workload;
  bool Traced;
  std::vector<Metric> Metrics; ///< the final JSON's metrics
  std::vector<Metric> Details;
  size_t Attempted = 0, Failed = 0;
};

/// The value of \p E; fatal with \p What and the diagnostic otherwise.
template <typename T> T take(eva::Expected<T> E, const char *What) {
  if (!E)
    eva::fatalError(std::string("evabench: ") + What + ": " + E.message());
  return std::move(E.value());
}

/// Peak resident set of this process, in MiB.
double peakRssMb();

/// -log2 of an absolute error (the precision_bits metric).
double precisionBits(double AbsError);

/// The end-to-end metrics of a closed-loop workload from its untraced op
/// latencies, plus their count, quartiles and supported tail as details.
void reportClosedLoop(Report &R, double SetupSeconds,
                      const std::vector<double> &OpSeconds,
                      double PrecisionBits);

/// Largest |Got - Want| over every vector output of \p Want.
double maxAbsError(const eva::Valuation &Got, const eva::Valuation &Want);

/// Seconds per build/pass of the workload's programs, keyed by metric name
/// ("frontend.build_program_s", "core.lower_s", ...).
using LayerSeconds = std::map<std::string, double>;

/// compile(), replayed pass by pass through the public functions of
/// core/Passes.h and core/Analysis.h on a clone of \p Input, timing each
/// step into \p Seconds (and recording spans under \p Parent when \p T is
/// enabled). Fatal if any step fails.
eva::CompiledProgram replayCompile(const eva::Program &Input,
                                   const eva::CompilerOptions &Options,
                                   LayerSeconds &Seconds, Tracer &T,
                                   uint64_t Op, uint64_t Parent);

/// What the replay must reproduce of compile(): node count, bit sizes,
/// degree and rotation steps.
struct CompileShape {
  size_t Nodes = 0;
  std::vector<int> BitSizes;
  uint64_t PolyDegree = 0;
  std::set<uint64_t> RotationSteps;
  explicit CompileShape(const eva::CompiledProgram &CP)
      : Nodes(CP.Prog->nodeCount()), BitSizes(CP.BitSizes),
        PolyDegree(CP.PolyDegree), RotationSteps(CP.RotationSteps) {}
  bool operator==(const CompileShape &) const = default;
};

/// Fatal unless \p Replayed has the shape compile() produced.
void checkReplay(const eva::CompiledProgram &Replayed,
                 const CompileShape &Compiled);

/// Exact counts over a workload's compiles: core.nodes_in/nodes_out/
/// rotation_keys/modulus_len summed, core.log2_n the largest.
struct CompileCounts {
  double NodesIn = 0, NodesOut = 0, RotationKeys = 0, ModulusLen = 0,
         Log2N = 0;
  void add(const eva::Program &Input, const eva::CompiledProgram &Out);
  void report(Report &R) const;
};

/// Per-name medians over several measurements, reported as layer metrics.
void reportLayerMedians(Report &R, const std::vector<LayerSeconds> &Samples);

/// Context creation, key generation and kernel timings at \p CP's degree
/// and prime count, each the median of repeated calls on one thread.
void reportCkksLayers(Report &R, const eva::CompiledProgram &CP,
                      uint64_t Seed);

/// runtime.* counts of one op (the sum over its executions).
void reportExecutionStats(Report &R,
                          const std::vector<eva::ExecutionStats> &Runs);

/// ckks.galois_keys and the in-memory bytes of the workload's Galois keys.
void reportGaloisKeys(Report &R,
                      const std::vector<const eva::GaloisKeys *> &Sets);

/// Runner::run on \p In. When tracing, the encrypt/execute/decrypt phases
/// Runner::lastTiming reports become spans under \p Parent, laid back to
/// back from the call's start.
eva::Expected<eva::Valuation> runTraced(eva::Runner &R,
                                        const eva::Valuation &In, Tracer &T,
                                        uint64_t Op, uint64_t Parent);

/// Op-level layer shares (self time over op time) and the trace health
/// metrics trace.op_s / trace.uncovered_frac / trace.overhead_frac.
void reportTraceSummary(Report &R, const Tracer &T,
                        const std::vector<double> &UntracedOpSeconds);

} // namespace evabench

#endif // EVABENCH_HARNESS_H
