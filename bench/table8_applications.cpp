//===- table8_applications.cpp - Table 8: PyEVA-style applications ---------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// Regenerates Table 8: vector size, frontend lines of code, and 1-thread
// execution time for the six applications written against the Expr
// frontend — 3-D path length, linear / polynomial / multivariate
// regression, Sobel filtering, and Harris corner detection. The LoC column
// counts the program-construction statements of the corresponding
// examples/ source (kept in sync by hand, as in the paper's Table 8).
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "eva/support/Random.h"
#include "evabench/apps.h"

using namespace eva;
using namespace evabench;

namespace {

struct App {
  const char *Name;
  int LinesOfCode; // frontend statements in the examples/ implementation
  std::unique_ptr<Program> (*Build)();
};

} // namespace

int main() {
  const App Apps[] = {
      {"3-D Path Length", 45, apps::buildPathLength},
      {"Linear Regression", 12, apps::buildLinearRegression},
      {"Polynomial Regression", 9, apps::buildPolyRegression},
      {"Multivariate Regression", 14, apps::buildMultivariateRegression},
      {"Sobel Filter Detection", 35, apps::buildSobel},
      {"Harris Corner Detection", 40, apps::buildHarris},
  };
  std::printf("Table 8: arithmetic, statistical ML, and image processing "
              "applications (1 thread)\n\n");
  std::printf("%-26s %10s %5s %9s %5s %8s\n", "Application", "VecSize",
              "LoC", "Time (s)", "r", "log2 N");
  for (const App &A : Apps) {
    std::unique_ptr<Program> P = A.Build();
    Expected<CompiledProgram> CP = compile(*P);
    if (!CP) {
      std::printf("%-26s compile error: %s\n", A.Name, CP.message().c_str());
      continue;
    }
    size_t ModulusLength = CP->modulusLength();
    unsigned LogN = 0;
    for (uint64_t N = CP->PolyDegree; N > 1; N >>= 1)
      ++LogN;
    LocalRunnerOptions Opts;
    Opts.Seed = 7;
    Expected<std::unique_ptr<Runner>> R =
        Runner::local(std::move(*CP), Opts);
    if (!R) {
      std::printf("%-26s backend error: %s\n", A.Name, R.message().c_str());
      continue;
    }
    RandomSource Rng(3);
    Valuation Inputs;
    for (const Node *I : P->inputs()) {
      std::vector<double> V(P->vecSize());
      for (double &X : V)
        X = Rng.uniformReal(-0.5, 0.5);
      Inputs.set(I->name(), std::move(V));
    }
    Expected<Valuation> Out = (*R)->run(Inputs);
    if (!Out) {
      std::printf("%-26s run error: %s\n", A.Name, Out.message().c_str());
      continue;
    }
    double Elapsed = (*R)->lastTiming().ComputeSeconds;
    std::printf("%-26s %10llu %5d %9.3f %5zu %8u\n", A.Name,
                static_cast<unsigned long long>(P->vecSize()),
                A.LinesOfCode, Elapsed, ModulusLength, LogN);
  }
  std::printf("\nPaper (1 thread): path 0.394 s, linear 0.027 s, polynomial "
              "0.104 s, multivariate 0.094 s,\nSobel 0.511 s, Harris "
              "1.004 s — all under 50 lines of code.\n");
  return 0;
}
