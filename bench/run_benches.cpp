//===- run_benches.cpp - JSON perf-baseline driver ------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// The one program that writes the BENCH_*.json perf trajectory. Each suite
// writes one file into the output directory:
//
//   micro     BENCH_micro.json     per-op timings of the CKKS substrate
//   scaling   BENCH_scaling.json   Figure 7: CHET vs EVA latency vs threads
//   rotation  BENCH_rotation.json  rotation-cost subsystem (rotation_cost.cpp)
//   service   BENCH_service.json   service throughput (service_throughput.cpp)
//   paper     BENCH_paper.json     Tables 3, 4, 6, 7, 8 and the Section 5.3
//                                  ablation (paper_tables.cpp)
//
// Usage: run_benches [OUTDIR] [micro|scaling|rotation|service|paper ...]
//
// OUTDIR (created if missing) defaults to the current directory; no suite
// names means all five.
// Some suites also run pass/fail checks (the rotation gates, the
// telemetry-overhead bound, the 2-thread scaling bound, the paper suite's
// accuracy bound and policy orderings); a failed check still writes its
// suite's file, and the run exits nonzero at the end.
//
// Each document carries the git sha the binary was configured from, so every
// point in the perf trajectory is attributable to a commit. CI uploads the
// files as artifacts; intentional perf-relevant changes re-run this program
// and commit the refreshed baselines.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "eva/ckks/Decryptor.h"
#include "eva/ckks/Encoder.h"
#include "eva/ckks/Encryptor.h"
#include "eva/ckks/Evaluator.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/math/NTT.h"
#include "eva/math/Primes.h"
#include "eva/support/CostLedger.h"
#include "eva/support/Random.h"

#include <cstring>
#include <filesystem>
#include <functional>
#include <malloc.h>

#ifndef EVA_GIT_SHA
#define EVA_GIT_SHA "unknown"
#endif

using namespace eva;
using namespace evabench;

namespace {

/// Charges ONE extra invocation of \p Fn to a fresh cost ledger and attaches
/// its nonzero NTT/mulmod/arena-byte counts to \p R alongside the timing.
template <typename FnT> void annotateLedger(BenchResult &R, FnT &&Fn) {
  ExecutionStats Ledger;
  {
    LedgerScope Scope(&Ledger);
    Fn();
  }
  const std::pair<const char *, uint64_t> Counts[] = {
      {"ntts", Ledger.Ntts},
      {"mulmods", Ledger.MulMods},
      {"arena_heap_bytes", Ledger.ArenaHeapBytes}};
  for (const auto &[Name, Count] : Counts)
    if (Count > 0)
      R.field(Name, static_cast<double>(Count));
}

/// Per-op microbenchmarks at N = 8192 (the paper's most common degree): the
/// raw NTT over one 50-bit prime, then every CKKS primitive an EVA
/// instruction maps to, at {60,40,40,40,60}.
void microSuite(JsonReport &Report) {
  constexpr uint64_t N = 8192;

  uint64_t Prime = generateNttPrimes(N, 50, 1).value()[0];
  Modulus Q(Prime);
  NttTables T(N, Q);
  RandomSource NttRng(1);
  std::vector<uint64_t> X(N);
  for (uint64_t &V : X)
    V = NttRng.uniformBelow(Prime);

  std::shared_ptr<CkksContext> Ctx =
      CkksContext::createFromBitSizes(N, {60, 40, 40, 40, 60},
                                      SecurityLevel::None)
          .value();
  CkksEncoder Enc(Ctx);
  KeyGenerator Gen(Ctx, 42);
  Encryptor Encryptor_(Ctx, 43);
  Decryptor Dec(Ctx, Gen.secretKey());
  Evaluator Eval(Ctx);
  RelinKeys Rk = Gen.createRelinKeys();
  GaloisKeys Gk = Gen.createGaloisKeys({1});

  RandomSource Rng(7);
  std::vector<double> V(Ctx->slotCount());
  for (double &D : V)
    D = Rng.uniformReal(-1, 1);
  const double Scale = std::ldexp(1.0, 40);
  Plaintext P, Tmp;
  Enc.encode(V, Scale, 4, P);
  uint64_t C1Seed = 0;
  auto Encrypt = [&] {
    return Encryptor_.encryptSymmetric(P, Gen.secretKey(), C1Seed);
  };
  Ciphertext A = Encrypt();
  Ciphertext B = Encrypt();
  Ciphertext Product = Eval.multiplyPlain(A, P);
  // A hoist batch's shared half, decomposed and extended once; the member
  // row times the per-rotation half against it.
  const Evaluator::KeySwitchDigits Digits = Eval.decomposeForRotation(A);

  const std::pair<const char *, std::function<void()>> Ops[] = {
      {"ntt_forward_n8192", [&] { T.forward(X); }},
      {"encode_n8192", [&] { Enc.encode(V, Scale, 4, Tmp); }},
      {"decode_n8192", [&] { (void)Enc.decode(P); }},
      {"encrypt_n8192", [&] { (void)Encrypt(); }},
      {"decrypt_n8192", [&] { (void)Dec.decrypt(A); }},
      {"add_n8192", [&] { (void)Eval.add(A, B); }},
      {"multiply_plain_n8192", [&] { (void)Eval.multiplyPlain(A, P); }},
      {"multiply_n8192", [&] { (void)Eval.multiply(A, B); }},
      {"multiply_relinearize_n8192",
       [&] { (void)Eval.relinearize(Eval.multiply(A, B), Rk); }},
      {"rescale_n8192", [&] { (void)Eval.rescale(Product); }},
      {"mod_switch_n8192", [&] { (void)Eval.modSwitch(A); }},
      {"rotate_n8192", [&] { (void)Eval.rotateLeft(A, 1, Gk); }},
      {"rotate_hoisted_member_n8192",
       [&] { (void)Eval.rotateDecomposed(A, Digits, 1, Gk); }},
  };
  for (const auto &[Name, Body] : Ops) {
    BenchResult R = measure(Name, Body);
    annotateLedger(R, Body);
    Report.add(std::move(R));
  }
}

/// Figure 7's strong scaling: compute latency of one LeNet-5-small
/// inference at {1, 2, 4, ...} threads up to the core count, for EVA (EVA
/// compile, the DAG schedule over the whole program) and the CHET baseline
/// (CHET compile, the kernel schedule, parallel only within each tensor
/// kernel). The top thread count is also Table 5's setting. Each point
/// records its speedup over the 1-thread mean.
void scalingSuite(JsonReport &Report) {
  struct System {
    const char *Name;
    CompilerOptions Options;
    LocalStyle Style;
  };
  const System Systems[] = {
      {"eva", CompilerOptions::eva(), LocalStyle::ParallelDag},
      {"chet", CompilerOptions::chet(), LocalStyle::KernelBulk}};
  const std::vector<size_t> Threads = threadSweep();

  for (const System &Sys : Systems) {
    // One workspace per configuration, shared across the thread sweep
    // (keygen dominates otherwise) but freed before the next one runs, so
    // one configuration's Galois keys never pressure another's points.
    const std::string Op = std::string("lenet5_small_") + Sys.Name;
    PreparedNetwork PN = prepare(makeLeNet5Small(2024), Sys.Options);
    RandomSource Rng(99);
    Tensor Image = Tensor::random(
        {PN.Net.inputChannels(), PN.Net.inputHeight(), PN.Net.inputWidth()},
        Rng);
    Valuation Inputs = Valuation().set(
        "image", imageSlots(PN.Net, Image, PN.Prog->vecSize()));

    // One untimed warmup run: the first inference pays first-touch faults
    // on the shared keys and evaluator tables, which would otherwise be
    // billed entirely to the 1-thread point and skew every speedup. It
    // runs at the top thread count, which is cheaper (CHET: about 25 s
    // down to 7 s on 4 cores) and leaves the 1-thread means within the
    // run-to-run spread they show after a 1-thread warmup.
    if (Expected<Valuation> Out =
            makeLocalRunner(PN, Sys.Style, Threads.back())->run(Inputs);
        !Out)
      fatalError("bench: " + Out.message());

    std::vector<double> Means;
    for (size_t T : Threads) {
      std::unique_ptr<Runner> Exec = makeLocalRunner(PN, Sys.Style, T);
      // Bills only the compute phase, not per-iteration encrypt/decrypt.
      BenchResult R = measureSeconds(
          Op,
          [&] {
            if (Expected<Valuation> Out = Exec->run(Inputs); !Out)
              fatalError("bench: " + Out.message());
            return Exec->lastTiming().ComputeSeconds;
          },
          /*MinIters=*/3, /*MinTotalSeconds=*/0.0);
      R.Threads = T;
      Means.push_back(R.MeanSeconds);
      R.field("speedup_vs_1thread", Means[0] / R.MeanSeconds);
      Report.add(std::move(R));
    }
    // The inverse-scaling guard. 5% tolerance so jitter on a 3-iteration
    // mean does not fail unrelated changes; the regression it guards
    // against was 2 threads ~6% SLOWER, which still trips it.
    if (Means.size() < 2)
      std::printf("  (one core: no 2-thread point to check)\n");
    else
      Report.check(Means[1] <= 1.05 * Means[0],
                   Op + ": 2 threads no more than 5% slower than 1 (" +
                       std::to_string(Means[1]) + " s vs " +
                       std::to_string(Means[0]) + " s)");
  }
}

/// A suite named N writes BENCH_N.json, whose "suite" field is N.
struct Suite {
  const char *Name;
  void (*Run)(JsonReport &);
};

const Suite Suites[] = {{"micro", microSuite},
                        {"scaling", scalingSuite},
                        {"rotation", rotationSuite},
                        {"service", serviceSuite},
                        {"paper", paperSuite}};

int usage() {
  std::fprintf(stderr, "usage: run_benches [OUTDIR] "
                       "[micro|scaling|rotation|service|paper ...]\n");
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  // The first argument is the output directory unless it names a suite.
  std::string OutDir = ".";
  std::vector<const Suite *> Selected;
  for (int I = 1; I < Argc; ++I) {
    const Suite *Found = nullptr;
    for (const Suite &S : Suites)
      if (std::strcmp(Argv[I], S.Name) == 0)
        Found = &S;
    if (Found)
      Selected.push_back(Found);
    else if (I == 1 && Argv[I][0] != '-')
      OutDir = Argv[I];
    else
      return usage();
  }
  if (Selected.empty())
    for (const Suite &S : Suites)
      Selected.push_back(&S);
  std::error_code Ignored; // an unusable OUTDIR fails at the first write
  std::filesystem::create_directories(OutDir, Ignored);

  int Failures = 0;
  for (const Suite *S : Selected) {
    std::printf("%s (host_threads=%u, simd=%s):\n", S->Name,
                std::thread::hardware_concurrency(),
                simdLevelName(activeSimdLevel()));
    JsonReport Report(S->Name, EVA_GIT_SHA);
    S->Run(Report);
    // An empty suite means a failure upstream: fail loudly rather than
    // committing a hollow baseline.
    std::string Path = OutDir + "/BENCH_" + S->Name + ".json";
    if (Report.empty() || !Report.write(Path)) {
      std::fprintf(stderr, "run_benches: %s produced no results or cannot "
                           "write %s\n",
                   S->Name, Path.c_str());
      return 1;
    }
    std::printf("wrote %s\n\n", Path.c_str());
    Failures += Report.failures();
    // Hand the suite's freed heap back to the OS, so that the run's peak is
    // its heaviest suite's (about 4.7 GB: CHET LeNet-5-small keys in
    // scaling and paper). Without this the allocator's arenas keep what
    // scaling freed, and paper's peak comes on top of it.
    malloc_trim(0);
  }
  if (Failures > 0) {
    std::printf("%d check(s) FAILED\n", Failures);
    return 1;
  }
  return 0;
}
