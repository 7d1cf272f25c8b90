//===- harness.cpp - Shared plumbing of the evabench workloads -------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "stats.h"

#include "eva/api/Runner.h"
#include "eva/ckks/Encoder.h"
#include "eva/ckks/Encryptor.h"
#include "eva/ckks/Evaluator.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/core/Analysis.h"
#include "eva/math/Simd.h"
#include "eva/support/Random.h"
#include "eva/support/Timer.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sys/resource.h>
#include <thread>

#ifndef EVABENCH_BUILD_TYPE
#define EVABENCH_BUILD_TYPE "unknown"
#endif

using namespace eva;
using namespace evabench;

namespace {

/// Spans whose self time is an op-level layer share, by share metric.
const char *const OpLayerSpans[][2] = {
    {"frontend.build_program", "frontend.build_frac"},
    {"api.encrypt", "api.encrypt_frac"},
    {"runtime.execute", "runtime.execute_frac"},
    {"api.decrypt", "api.decrypt_frac"},
    {"gen.lateness", "gen.lateness_frac"},
};

void must(const Status &S, const char *What) {
  if (!S.ok())
    fatalError(std::string("evabench: ") + What + ": " + S.message());
}

std::string jsonMetrics(const std::vector<std::pair<std::string, std::string>>
                            &Entries) {
  std::string Out = "{";
  for (size_t I = 0; I < Entries.size(); ++I)
    Out += (I ? ", " : "") + ("\"" + Entries[I].first + "\": ") +
           Entries[I].second;
  return Out + "}";
}

/// All digits of \p V; null when an op failed so badly it has no value.
std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Median seconds of \p Reps calls of \p Fn.
template <typename FnT> double medianSeconds(size_t Reps, FnT &&Fn) {
  std::vector<double> S;
  for (size_t I = 0; I < Reps; ++I) {
    Timer T;
    Fn();
    S.push_back(T.seconds());
  }
  return median(S);
}

} // namespace

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::endToEnd(const std::string &Name, double Value, const char *Unit) {
  if (!Traced)
    Metrics.push_back({Name, Value, Unit});
}

void Report::layer(const std::string &Name, double Value, const char *Unit) {
  if (Traced)
    Metrics.push_back({Name, Value, Unit});
}

void Report::detail(const std::string &Name, double Value, const char *Unit) {
  Details.push_back({Name, Value, Unit});
}

bool Report::finish(const Options &O, double WallSeconds) const {
  const std::vector<Metric> *Lists[] = {&Metrics, &Details};
  for (const std::vector<Metric> *List : Lists)
    for (const Metric &M : *List)
      std::printf("%s %s %s %s\n", Workload.c_str(), M.Name.c_str(),
                  number(M.Value).c_str(), M.Unit);

  std::string Simd = simdLevelName(activeSimdLevel());
  std::printf("# host nproc=%zu simd=%s build=%s git=%s seed=%llu "
              "workload=%s trace=%d wall_s=%.3f\n",
              static_cast<size_t>(std::thread::hardware_concurrency()),
              Simd.c_str(), EVABENCH_BUILD_TYPE, O.GitSha.c_str(),
              static_cast<unsigned long long>(O.Seed), Workload.c_str(),
              Traced ? 1 : 0, WallSeconds);

  auto Entries = [](const std::vector<Metric> &List) {
    std::vector<std::pair<std::string, std::string>> E;
    for (const Metric &M : List)
      E.emplace_back(M.Name, "{\"value\": " + number(M.Value) +
                                 ", \"unit\": \"" + M.Unit + "\"}");
    return jsonMetrics(E);
  };
  bool Correct = Failed == 0;
  std::string Result = std::string("{\"correct\": ") +
                       (Correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(Attempted) +
                       ", \"failed\": " + std::to_string(Failed) +
                       ", \"metrics\": " + Entries(Metrics) + "}";

  std::string Host = jsonMetrics({
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"simd", "\"" + Simd + "\""},
      {"build_type", std::string("\"") + EVABENCH_BUILD_TYPE + "\""},
      {"git_sha", "\"" + O.GitSha + "\""},
      {"seed", std::to_string(O.Seed)},
      {"wall_s", number(WallSeconds)},
  });
  std::ofstream File(O.OutDir + "/" + Workload + ".json", std::ios::binary);
  File << "{\"workload\": \"" << Workload << "\", \"trace\": "
       << (Traced ? "true" : "false") << ", \"host\": " << Host
       << ", \"result\": " << Result << ", \"details\": " << Entries(Details)
       << "}\n";
  bool Written = static_cast<bool>(File);
  if (!Written)
    std::fprintf(stderr, "evabench: cannot write %s/%s.json\n",
                 O.OutDir.c_str(), Workload.c_str());
  std::printf("%s\n", Result.c_str());
  std::fflush(stdout);
  return Written;
}

//===----------------------------------------------------------------------===//
// Output checks
//===----------------------------------------------------------------------===//

double evabench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double evabench::precisionBits(double AbsError) {
  return -std::log2(std::max(AbsError, 1e-30));
}

void evabench::reportClosedLoop(Report &R, double SetupSeconds,
                                const std::vector<double> &OpSeconds,
                                double PrecisionBits) {
  Quartiles Q = quartiles(OpSeconds);
  R.endToEnd("setup_s", SetupSeconds, "s");
  R.endToEnd("latency_p50_s", Q.Median, "s");
  // One client in a closed loop sustains one op per op latency.
  R.endToEnd("max_rate_per_s", 1 / Q.Median, "1/s");
  R.endToEnd("precision_bits", PrecisionBits, "bits");
  R.endToEnd("peak_rss_mb", peakRssMb(), "MB");
  R.detail("latency_n", static_cast<double>(OpSeconds.size()), "count");
  R.detail("latency_q1_s", Q.Q1, "s");
  R.detail("latency_q3_s", Q.Q3, "s");
  if (std::optional<Tail> T = tail(OpSeconds)) {
    R.detail("latency_tail_pct", T->Percentile, "pct");
    R.detail("latency_tail_s", T->Value, "s");
  }
}

double evabench::maxAbsError(const Valuation &Got, const Valuation &Want) {
  double Max = 0;
  for (const auto &[Name, Value] : Want) {
    const auto *W = std::get_if<std::vector<double>>(&Value);
    if (!W || !Got.isVector(Name))
      return INFINITY;
    const std::vector<double> &G = Got.vector(Name);
    if (G.size() < W->size())
      return INFINITY;
    for (size_t I = 0; I < W->size(); ++I)
      Max = std::max(Max, std::abs(G[I] - (*W)[I]));
  }
  return Max;
}

//===----------------------------------------------------------------------===//
// Compile replay
//===----------------------------------------------------------------------===//

CompiledProgram evabench::replayCompile(const Program &Input,
                                        const CompilerOptions &Options,
                                        LayerSeconds &Seconds, Tracer &T,
                                        uint64_t Op, uint64_t Parent) {
  auto Step = [&](const char *Name, auto &&Fn) {
    Span S(T, Name, Op, Parent);
    Timer Tm;
    Fn();
    Seconds[std::string(Name) + "_s"] += Tm.seconds();
  };

  // compile()'s verification default: the EVA_VERIFY_PASSES build option
  // (on in this benchmark's build) unless the environment overrides it.
  const char *Env = std::getenv("EVA_VERIFY_PASSES");
  const bool Verify = Options.VerifyPasses < 0 ? (!Env || Env[0] != '0')
                                               : Options.VerifyPasses != 0;
  auto VerifyStage = [&](const Program &P, const VerifyOptions &VO) {
    if (Verify)
      Step("core.verify", [&] { must(verifyProgram(P, VO), "verify"); });
  };

  Step("core.verify", [&] {
    for (const Node *N : Input.nodes())
      if (isCompilerInsertedOp(N->op()))
        fatalError("evabench: input contains compiler-inserted ops");
    for (const Node *I : Input.inputs())
      if (I->logScale() <= 0 ||
          (I->isCipher() && I->logScale() > Options.SfBits))
        fatalError("evabench: input scale out of range");
  });
  CompiledProgram Out;
  Out.Options = Options;
  Step("core.clone", [&] { Out.Prog = Input.clone(); });
  Program &P = *Out.Prog;

  VerifyOptions Lowered = VerifyOptions::lowered();
  VerifyOptions Optimized = Lowered;
  Optimized.RequireNormalizedRotations = Options.Optimize;
  VerifyOptions Inserted = VerifyOptions::inserted();
  Inserted.RequireNormalizedRotations = Options.Optimize;
  VerifyOptions Scaled = VerifyOptions::compiled();
  Scaled.RequireNormalizedRotations = Options.Optimize;

  VerifyStage(P, VerifyOptions::input());
  Step("core.lower", [&] { lowerFrontendOps(P); });
  VerifyStage(P, Lowered);
  if (Options.Optimize) {
    Step("core.cse_simplify", [&] { cseAndSimplifyPass(P); });
    VerifyStage(P, Optimized);
  }
  Step("core.galois_budget",
       [&] { galoisBudgetPass(P, Options.GaloisKeyBudget); });
  VerifyStage(P, Optimized);
  Step("core.rescale", [&] {
    switch (Options.Rescale) {
    case RescalePolicy::Waterline:
      waterlineRescalePass(P, Options.SfBits);
      break;
    case RescalePolicy::Always:
      alwaysRescalePass(P, Options.SfBits, Options.MinPrimeBits);
      break;
    case RescalePolicy::ChetPerKernel:
      chetRescalePass(P, Options.SfBits, Options.MinPrimeBits);
      break;
    }
  });
  VerifyStage(P, Inserted);
  Step("core.modswitch", [&] {
    if (Options.ModSwitch == ModSwitchPolicy::Eager)
      eagerModSwitchPass(P);
    else
      lazyModSwitchPass(P);
  });
  VerifyStage(P, Inserted);
  if (Options.Rescale != RescalePolicy::Waterline) {
    Step("core.unify_chains", [&] { unifyRescaleChainsPass(P); });
    VerifyStage(P, Inserted);
  }
  Step("core.match_scale", [&] { matchScalePass(P); });
  VerifyStage(P, Scaled);
  Step("core.relinearize", [&] { relinearizePass(P); });
  VerifyStage(P, Scaled);
  Step("core.verify", [&] {
    must(verifyProgram(P, Verify ? Scaled : VerifyOptions::inserted()),
         "final verify");
  });

  Expected<AnalysisResult> AR = AnalysisResult();
  Step("core.analyze", [&] {
    AnalysisOptions AO;
    AO.SfBits = Options.SfBits;
    AR = analyzeProgram(P, AO);
  });
  if (!AR)
    must(AR.takeStatus(), "analyze");
  Step("core.select_params", [&] {
    Expected<ParameterSelection> Sel = selectParameters(
        P, *AR, Options.SfBits, Options.MinPrimeBits, Options.Security);
    if (!Sel)
      must(Sel.takeStatus(), "select parameters");
    Out.BitSizes = Sel->BitSizes;
    Out.PolyDegree = Sel->PolyDegree;
    Out.TotalModulusBits = Sel->TotalBits;
  });
  Step("core.rotation_steps",
       [&] { Out.RotationSteps = selectRotationSteps(P); });
  Step("core.rotation_plan", [&] { Out.RotPlan = planRotationHoisting(P); });
  if (Verify)
    Step("core.verify", [&] { must(verifyCompiled(Out), "verify compiled"); });
  return Out;
}

void evabench::checkReplay(const CompiledProgram &Replayed,
                           const CompileShape &Compiled) {
  if (!(CompileShape(Replayed) == Compiled))
    fatalError("evabench: the pass replay of '" + Replayed.Prog->name() +
               "' differs from compile(); its per-pass times would not "
               "describe compile()");
}

void CompileCounts::add(const Program &Input, const CompiledProgram &Out) {
  NodesIn += static_cast<double>(Input.nodeCount());
  NodesOut += static_cast<double>(Out.Prog->nodeCount());
  RotationKeys += static_cast<double>(Out.RotationSteps.size());
  ModulusLen += static_cast<double>(Out.modulusLength());
  Log2N = std::max(Log2N, std::log2(static_cast<double>(Out.PolyDegree)));
}

void CompileCounts::report(Report &R) const {
  R.layer("core.nodes_in", NodesIn, "count");
  R.layer("core.nodes_out", NodesOut, "count");
  R.layer("core.rotation_keys", RotationKeys, "count");
  R.layer("core.modulus_len", ModulusLen, "count");
  R.layer("core.log2_n", Log2N, "count");
}

void evabench::reportLayerMedians(Report &R,
                                  const std::vector<LayerSeconds> &Samples) {
  std::map<std::string, std::vector<double>> ByName;
  for (const LayerSeconds &S : Samples)
    for (const auto &[Name, Seconds] : S)
      ByName[Name].push_back(Seconds);
  for (const auto &[Name, Values] : ByName)
    R.layer(Name, median(Values), "s");
}

//===----------------------------------------------------------------------===//
// CKKS layer probes
//===----------------------------------------------------------------------===//

void evabench::reportCkksLayers(Report &R, const CompiledProgram &CP,
                                uint64_t Seed) {
  const size_t Reps = 50, KeyReps = 3;
  std::shared_ptr<CkksContext> Ctx;
  R.layer("ckks.context_s", medianSeconds(KeyReps, [&] {
            Expected<std::shared_ptr<CkksContext>> C =
                CkksContext::createFromBitSizes(CP.PolyDegree,
                                                CP.contextBitSizes(),
                                                CP.Options.Security);
            if (!C)
              must(C.takeStatus(), "context");
            Ctx = *C;
          }),
          "s");
  std::unique_ptr<KeyGenerator> KG;
  R.layer("ckks.keygen_secret_s", medianSeconds(KeyReps, [&] {
            KG = std::make_unique<KeyGenerator>(Ctx, Seed, true);
          }),
          "s");
  RelinKeys Rk;
  R.layer("ckks.keygen_relin_s",
          medianSeconds(KeyReps, [&] { Rk = KG->createRelinKeys(); }), "s");
  const std::vector<uint64_t> Steps = {1, 2, 3, 4, 5, 6, 7, 8};
  GaloisKeys Gk;
  Timer GaloisT;
  Gk = KG->createGaloisKeys({Steps.begin(), Steps.end()});
  R.layer("ckks.keygen_galois_key_s",
          GaloisT.seconds() / static_cast<double>(Steps.size()), "s");

  CkksEncoder Encoder(Ctx);
  RandomSource Rng(Seed ^ 0x6b65726eu);
  std::vector<double> Values(Encoder.slotCount());
  for (double &V : Values)
    V = Rng.uniformReal(-1, 1);
  const size_t Primes = Ctx->dataPrimeCount();
  const double Scale = std::exp2(30);
  Plaintext Pt;
  R.layer("ckks.encode_s", medianSeconds(Reps, [&] {
            Encoder.encode(Values, Scale, Primes, Pt);
          }),
          "s");
  Encryptor Enc(Ctx, Seed + 1, true);
  uint64_t C1Seed = 0;
  Ciphertext Ct = Enc.encryptSymmetric(Pt, KG->secretKey(), C1Seed);

  Evaluator Eval(Ctx);
  Ciphertext Sink;
  R.layer("ckks.rotate_s",
          medianSeconds(Reps, [&] { Sink = Eval.rotateLeft(Ct, 1, Gk); }),
          "s");
  std::vector<Ciphertext> Rotated;
  R.layer("ckks.rotate_hoisted8_s", medianSeconds(Reps, [&] {
            Rotated = Eval.rotateHoisted(Ct, Steps, Gk);
          }),
          "s");
  R.layer("ckks.mul_relin_s", medianSeconds(Reps, [&] {
            Sink = Eval.relinearize(Eval.multiply(Ct, Ct), Rk);
          }),
          "s");
  R.layer("ckks.mul_plain_s",
          medianSeconds(Reps, [&] { Sink = Eval.multiplyPlain(Ct, Pt); }),
          "s");
  R.layer("ckks.rescale_s",
          medianSeconds(Reps, [&] { Sink = Eval.rescale(Ct); }), "s");
  std::vector<uint64_t> Limb = Ct.Polys[0].Comps[0];
  R.layer("math.ntt_forward_s",
          medianSeconds(Reps, [&] { Ctx->ntt(0).forward(Limb); }), "s");
}

void evabench::reportExecutionStats(Report &R,
                                    const std::vector<ExecutionStats> &Runs) {
  double Decomps = 0, Rotations = 0, Hoisted = 0, Multiplies = 0,
         PlainMultiplies = 0, Rescales = 0, Relins = 0, PeakLive = 0;
  for (const ExecutionStats &S : Runs) {
    Decomps += static_cast<double>(S.KeySwitchDecompositions);
    Rotations += static_cast<double>(S.Rotations);
    Hoisted += static_cast<double>(S.HoistedRotations);
    Multiplies += static_cast<double>(S.Multiplies);
    PlainMultiplies += static_cast<double>(S.PlainMultiplies);
    // Level drops, as the service's eva_exec_rescales_total counts them.
    Rescales += static_cast<double>(S.Rescales + S.ModSwitches);
    Relins += static_cast<double>(S.Relinearizations);
    PeakLive = std::max(PeakLive, static_cast<double>(S.PeakLiveBytes));
  }
  R.layer("runtime.keyswitch_decomps", Decomps, "count");
  R.layer("runtime.rotations", Rotations, "count");
  R.layer("runtime.hoisted_rotations", Hoisted, "count");
  R.layer("runtime.multiplies", Multiplies, "count");
  R.layer("runtime.plain_multiplies", PlainMultiplies, "count");
  R.layer("runtime.rescales", Rescales, "count");
  R.layer("runtime.relins", Relins, "count");
  R.layer("runtime.peak_live_bytes", PeakLive, "bytes");
}

void evabench::reportGaloisKeys(Report &R,
                                const std::vector<const GaloisKeys *> &Sets) {
  double Keys = 0, Bytes = 0;
  for (const GaloisKeys *Gk : Sets) {
    Keys += static_cast<double>(Gk->Keys.size());
    for (const auto &[Elt, Key] : Gk->Keys)
      for (const std::array<RnsPoly, 2> &Pair : Key.Keys)
        for (const RnsPoly &Poly : Pair)
          Bytes += static_cast<double>(Poly.primeCount() * Poly.Degree *
                                       sizeof(uint64_t));
  }
  R.layer("ckks.galois_keys", Keys, "count");
  R.layer("ckks.galois_key_bytes", Bytes, "bytes");
}

Expected<Valuation> evabench::runTraced(Runner &R, const Valuation &In,
                                        Tracer &T, uint64_t Op,
                                        uint64_t Parent) {
  double Start = T.now();
  Expected<Valuation> Out = R.run(In);
  if (T.enabled() && Out) {
    Runner::Timing Tm = R.lastTiming();
    double At = Start;
    for (auto [Name, Seconds] :
         {std::pair<const char *, double>{"api.encrypt", Tm.EncryptSeconds},
          {"runtime.execute", Tm.ComputeSeconds},
          {"api.decrypt", Tm.DecryptSeconds}}) {
      T.record(Name, At, At + Seconds, Op, Parent);
      At += Seconds;
    }
  }
  return Out;
}

void evabench::reportTraceSummary(Report &R, const Tracer &T,
                                  const std::vector<double> &UntracedOps) {
  Tracer::Summary S = T.summarize();
  double OpSeconds = 0;
  for (double D : S.RootDurations)
    OpSeconds += D;
  if (S.RootDurations.empty() || OpSeconds <= 0)
    fatalError("evabench: the traced run recorded no ops");

  double Core = 0;
  for (const auto &[Name, Self] : S.SelfSeconds)
    if (Name.rfind("core.", 0) == 0)
      Core += Self;
  if (Core > 0)
    R.layer("core.compile_frac", Core / OpSeconds, "frac");
  for (const auto &[Span, Metric] : OpLayerSpans)
    if (auto It = S.SelfSeconds.find(Span); It != S.SelfSeconds.end())
      R.layer(Metric, It->second / OpSeconds, "frac");

  double Traced = median(S.RootDurations);
  R.layer("trace.op_s", Traced, "s");
  R.layer("trace.uncovered_frac", S.MaxUncoveredFrac, "frac");
  R.layer("trace.overhead_frac",
          UntracedOps.empty() ? 0.0 : Traced / median(UntracedOps) - 1.0,
          "frac");
}
