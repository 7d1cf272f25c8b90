//===- compile_zoo.cpp - Workload: compile the model zoo and apps ----------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// One op is one pass: build and compile the five Table 3 networks in EVA
// and CHET modes plus the six Table 8 apps, closed loop. Only the frontend
// and the compiler work here; ckks, math, runtime and service are bypassed,
// so a kernel change must predict no change on this workload.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "apps.h"
#include "stats.h"

#include "eva/api/Runner.h"
#include "eva/support/Timer.h"
#include "eva/tensor/Network.h"

#include <cmath>
#include <functional>
#include <optional>

using namespace eva;
using namespace evabench;

namespace {

/// One program of the pass and the compiler modes it is compiled in.
struct Job {
  std::function<std::unique_ptr<Program>()> Build;
  std::vector<CompilerOptions> Modes;
  /// Small enough to check the compiled graph's reference semantics (the
  /// reference executor keeps every node's vector alive).
  bool CheckSemantics = false;
};

std::vector<Job> makeJobs(const std::vector<NetworkDefinition> &Zoo) {
  std::vector<Job> Jobs;
  for (size_t I = 0; I < Zoo.size(); ++I)
    Jobs.push_back({[&Net = Zoo[I]] { return Net.buildProgram({}); },
                    {CompilerOptions::eva(), CompilerOptions::chet()},
                    I == 0});
  for (apps::ProgramFn B : apps::all())
    Jobs.push_back({B, {CompilerOptions::eva()}, true});
  return Jobs;
}

/// Largest |compiled - input| relative to max(1, |input|) under the
/// reference semantics, on seeded inputs in [-0.5, 0.5].
double semanticError(const Program &Input, const Program &Compiled,
                     uint64_t Seed) {
  RandomSource Rng(Seed);
  Valuation In;
  for (const Node *N : Input.inputs()) {
    std::vector<double> V(Input.vecSize());
    for (double &X : V)
      X = Rng.uniformReal(-0.5, 0.5);
    In.set(N->name(), std::move(V));
  }
  Expected<Valuation> Want = Runner::reference(Input)->run(In);
  Expected<Valuation> Got = Runner::reference(Compiled)->run(In);
  if (!Want || !Got)
    return INFINITY;
  double Max = 0;
  for (const auto &[Name, Value] : *Want) {
    (void)Value;
    const std::vector<double> &W = Want->vector(Name);
    const std::vector<double> &G = Got->vector(Name);
    for (size_t I = 0; I < W.size(); ++I)
      Max = std::max(Max,
                     std::abs(G[I] - W[I]) / std::max(1.0, std::abs(W[I])));
  }
  return Max;
}

/// What the untimed first pass learns: compile()'s result shapes (every
/// later pass must reproduce them), counts, and the output checks.
struct Baseline {
  std::vector<CompileShape> Shapes;
  CompileCounts Counts;
  double MaxSemanticError = 0;
  bool Ok = true;
  /// LeNet-5-small in EVA mode: its parameters are where the traced run
  /// times the CKKS layer.
  std::optional<CompiledProgram> LeNet;
};

Baseline firstPass(const std::vector<Job> &Jobs, uint64_t Seed) {
  Baseline B;
  for (const Job &J : Jobs) {
    std::unique_ptr<Program> P = J.Build();
    for (const CompilerOptions &Mode : J.Modes) {
      Expected<CompiledProgram> CP = compile(*P, Mode);
      if (!CP) {
        std::fprintf(stderr, "evabench: compile of %s failed: %s\n",
                     P->name().c_str(), CP.message().c_str());
        fatalError("evabench: compile_zoo cannot compile its programs");
      }
      B.Shapes.emplace_back(*CP);
      B.Counts.add(*P, *CP);
      if (J.CheckSemantics) {
        double Err = semanticError(*P, *CP->Prog, Seed);
        B.MaxSemanticError = std::max(B.MaxSemanticError, Err);
        if (!(Err < 1e-9)) {
          std::fprintf(stderr, "evabench: compiled %s changes the program's "
                               "reference semantics\n",
                       P->name().c_str());
          B.Ok = false;
        }
      }
      if (!B.LeNet)
        B.LeNet = std::move(*CP);
    }
  }
  return B;
}

/// One timed pass. Untraced it calls compile(); traced it replays the
/// passes, recording spans under op \p Op and their times into \p Layers.
bool pass(const std::vector<Job> &Jobs, const Baseline &B, Tracer &T,
          uint64_t Op, LayerSeconds *Layers) {
  Span OpSpan(T, "op", Op, 0);
  bool Ok = true;
  size_t K = 0;
  for (const Job &J : Jobs) {
    std::unique_ptr<Program> P;
    {
      Span S(T, "frontend.build_program", Op, OpSpan.id());
      Timer Tm;
      P = J.Build();
      if (Layers)
        (*Layers)["frontend.build_program_s"] += Tm.seconds();
    }
    for (const CompilerOptions &Mode : J.Modes) {
      const CompileShape &Want = B.Shapes[K++];
      if (Layers) {
        checkReplay(replayCompile(*P, Mode, *Layers, T, Op, OpSpan.id()),
                    Want);
        continue;
      }
      Expected<CompiledProgram> CP = compile(*P, Mode);
      Ok &= CP.ok() && CompileShape(*CP) == Want;
    }
  }
  return Ok;
}

} // namespace

void evabench::runCompileZoo(const Options &O, Report &R, Tracer &T) {
  // Set-up: the network definitions (seeded weights, calibrated).
  std::vector<double> SetupSeconds;
  std::vector<NetworkDefinition> Zoo;
  for (int I = 0; I < 51; ++I) {
    Timer Tm;
    Zoo = makeAllNetworks(O.Seed);
    SetupSeconds.push_back(Tm.seconds());
  }
  std::vector<Job> Jobs = makeJobs(Zoo);
  Baseline B = firstPass(Jobs, O.Seed);

  // Traced runs alternate untraced and traced passes; the difference of
  // their medians is the tracing overhead.
  std::vector<double> Untraced;
  std::vector<LayerSeconds> Layers;
  Tracer Off(false);
  Timer Window;
  for (uint64_t Op = 1; Window.seconds() < O.Seconds ||
                        (T.enabled() && Layers.empty());
       ++Op) {
    bool Traced = T.enabled() && Op % 2 == 0;
    LayerSeconds L;
    Timer Tm;
    bool Ok =
        pass(Jobs, B, Traced ? T : Off, Op, Traced ? &L : nullptr) && B.Ok;
    double Seconds = Tm.seconds();
    R.op(Ok);
    if (Traced)
      Layers.push_back(std::move(L));
    else
      Untraced.push_back(Seconds);
  }

  // No ciphertext exists here: precision_bits is how closely the compiled
  // programs reproduce their inputs' reference semantics.
  reportClosedLoop(R, median(SetupSeconds), Untraced,
                   precisionBits(B.MaxSemanticError));
  if (!T.enabled())
    return;
  reportLayerMedians(R, Layers);
  B.Counts.report(R);
  reportCkksLayers(R, *B.LeNet, O.Seed);
  reportTraceSummary(R, T, Untraced);
}
