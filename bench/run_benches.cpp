//===- run_benches.cpp - JSON perf-baseline driver ------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// Times the core primitives (NTT / encode / multiply / relinearize / rotate)
// and the Figure 7 thread-scaling point (the parallel-DAG Runner at 1 and 2
// threads on LeNet-5-small) and writes machine-readable baselines:
//
//   BENCH_micro.json     per-op wall-clock timings of the CKKS substrate
//   BENCH_scaling.json   fig7 latency vs thread count
//
// Usage: run_benches [output-dir]        (default: current directory)
//
// Each document carries the git sha the binary was configured from, so every
// point in the perf trajectory is attributable to a commit. CI uploads the
// two files as artifacts; intentional perf-relevant changes re-run this
// driver and commit the refreshed baselines.
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
#include "eva/math/Simd.h"
#include "eva/support/CostLedger.h"
#include "eva/support/Random.h"

#ifndef EVA_GIT_SHA
#define EVA_GIT_SHA "unknown"
#endif

using namespace eva;
using namespace evabench;

namespace {

/// Charges ONE extra invocation of \p Fn to a fresh cost ledger and attaches
/// its NTT/mulmod/arena-byte counts to \p R alongside the timing.
template <typename FnT> void annotateLedger(BenchResult &R, FnT &&Fn) {
  ExecutionStats Ledger;
  {
    LedgerScope Scope(&Ledger);
    Fn();
  }
  R.Ntts = static_cast<double>(Ledger.Ntts);
  R.MulMods = static_cast<double>(Ledger.MulMods);
  R.ArenaHeapBytes = static_cast<double>(Ledger.ArenaHeapBytes);
}

void report(const BenchResult &R) {
  std::printf("  %-28s threads=%zu iters=%-4zu mean=%10.6fs min=%10.6fs",
              R.Op.c_str(), R.Threads, R.Iterations, R.MeanSeconds,
              R.MinSeconds);
  if (R.SpeedupVs1 > 0)
    std::printf(" speedup=%5.2fx", R.SpeedupVs1);
  std::printf("\n");
}

/// Per-op microbenchmarks at N = 8192 (the paper's most common degree).
JsonReport microBaseline() {
  JsonReport Report("micro", EVA_GIT_SHA);
  constexpr uint64_t N = 8192;

  // Raw NTT over one 50-bit prime.
  {
    uint64_t Prime = generateNttPrimes(N, 50, 1).value()[0];
    Modulus Q(Prime);
    NttTables T(N, Q);
    RandomSource Rng(1);
    std::vector<uint64_t> X(N);
    for (uint64_t &V : X)
      V = Rng.uniformBelow(Prime);
    auto Body = [&] { T.forward(X); };
    BenchResult R = measure("ntt_forward_n8192", Body);
    annotateLedger(R, Body);
    report(R);
    Report.add(std::move(R));
  }

  // The CKKS substrate at {60,40,40,40,60}.
  std::shared_ptr<CkksContext> Ctx =
      CkksContext::createFromBitSizes(N, {60, 40, 40, 40, 60},
                                      SecurityLevel::None)
          .value();
  CkksEncoder Enc(Ctx);
  KeyGenerator Gen(Ctx, 42);
  Encryptor Encryptor_(Ctx, Gen.createPublicKey(), 43);
  Evaluator Eval(Ctx);
  RelinKeys Rk = Gen.createRelinKeys();
  GaloisKeys Gk = Gen.createGaloisKeys({1});

  RandomSource Rng(7);
  std::vector<double> V(Ctx->slotCount());
  for (double &X : V)
    X = Rng.uniformReal(-1, 1);
  Plaintext P;
  Enc.encode(V, std::ldexp(1.0, 40), 4, P);
  Ciphertext A = Encryptor_.encrypt(P);
  Ciphertext B = Encryptor_.encrypt(P);

  {
    Plaintext Tmp;
    auto Body = [&] { Enc.encode(V, std::ldexp(1.0, 40), 4, Tmp); };
    BenchResult R = measure("encode_n8192", Body);
    annotateLedger(R, Body);
    report(R);
    Report.add(std::move(R));
  }
  {
    auto Body = [&] {
      Ciphertext C = Encryptor_.encrypt(P);
      (void)C;
    };
    BenchResult R = measure("encrypt_n8192", Body);
    annotateLedger(R, Body);
    report(R);
    Report.add(std::move(R));
  }
  {
    auto Body = [&] {
      Ciphertext C = Eval.multiply(A, B);
      (void)C;
    };
    BenchResult R = measure("multiply_n8192", Body);
    annotateLedger(R, Body);
    report(R);
    Report.add(std::move(R));
  }
  {
    auto Body = [&] {
      Ciphertext C = Eval.relinearize(Eval.multiply(A, B), Rk);
      (void)C;
    };
    BenchResult R = measure("multiply_relinearize_n8192", Body);
    annotateLedger(R, Body);
    report(R);
    Report.add(std::move(R));
  }
  {
    auto Body = [&] {
      Ciphertext C = Eval.rotateLeft(A, 1, Gk);
      (void)C;
    };
    BenchResult R = measure("rotate_n8192", Body);
    annotateLedger(R, Body);
    report(R);
    Report.add(std::move(R));
  }
  return Report;
}

/// The fig7 scaling sweep: parallel-DAG Runner latency on LeNet-5-small at
/// {1, 2, 4, 8} threads (EVA_BENCH_THREADS changes the sweep ceiling like
/// the full fig7_scaling bench). Each point records its speedup over the
/// 1-thread mean, which is what CI's scaling sanity gate checks.
JsonReport scalingBaseline() {
  JsonReport Report("fig7_scaling", EVA_GIT_SHA);
  std::vector<size_t> Threads = threadSweep();

  PreparedNetwork PN;
  if (!prepare(makeLeNet5Small(2024), CompilerOptions::eva(), PN)) {
    std::fprintf(stderr, "run_benches: failed to prepare LeNet-5-small\n");
    return Report;
  }
  RandomSource Rng(99);
  Tensor Image = Tensor::random(
      {PN.Net.inputChannels(), PN.Net.inputHeight(), PN.Net.inputWidth()},
      Rng);
  std::vector<double> Slots = imageSlots(PN.Net, Image, PN.Prog->vecSize());

  // One untimed warmup run: the first inference pays first-touch faults on
  // the shared keys and evaluator tables, which would otherwise be billed
  // entirely to the 1-thread point and skew every speedup in the sweep.
  Valuation Inputs = Valuation().set("image", Slots);
  {
    std::unique_ptr<Runner> Warm =
        makeLocalRunner(PN, LocalStyle::ParallelDag, 1);
    if (Expected<Valuation> Out = Warm->run(Inputs); !Out)
      fatalError("bench: " + Out.message());
  }

  double OneThreadMean = 0;
  for (size_t T : Threads) {
    std::unique_ptr<Runner> Exec =
        makeLocalRunner(PN, LocalStyle::ParallelDag, T);
    // measureSeconds bills only the compute phase (the Sealed-inputs reuse
    // of the executor era), not per-iteration encrypt/decrypt.
    BenchResult R = measureSeconds(
        "lenet5_small_eva",
        [&] {
          if (Expected<Valuation> Out = Exec->run(Inputs); !Out)
            fatalError("bench: " + Out.message());
          return Exec->lastTiming().ComputeSeconds;
        },
        /*MinIters=*/3,
        /*MinTotalSeconds=*/0.0);
    R.Threads = T;
    if (T == 1)
      OneThreadMean = R.MeanSeconds;
    if (OneThreadMean > 0 && R.MeanSeconds > 0)
      R.SpeedupVs1 = OneThreadMean / R.MeanSeconds;
    report(R);
    Report.add(std::move(R));
  }
  return Report;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutDir = Argc > 1 ? Argv[1] : ".";

  std::printf("micro baseline (N=8192, simd=%s):\n",
              simdLevelName(activeSimdLevel()));
  JsonReport Micro = microBaseline();
  std::printf("\nfig7 scaling baseline (LeNet-5-small, EVA executor):\n");
  JsonReport Scaling = scalingBaseline();

  // An empty suite means a prepare/keygen failure upstream: fail loudly
  // rather than committing a hollow baseline.
  if (Micro.empty() || Scaling.empty()) {
    std::fprintf(stderr, "run_benches: a suite produced no results\n");
    return 1;
  }
  std::string MicroPath = OutDir + "/BENCH_micro.json";
  std::string ScalingPath = OutDir + "/BENCH_scaling.json";
  if (!Micro.write(MicroPath) || !Scaling.write(ScalingPath)) {
    std::fprintf(stderr, "run_benches: cannot write %s or %s\n",
                 MicroPath.c_str(), ScalingPath.c_str());
    return 1;
  }
  std::printf("\nwrote %s\nwrote %s\n", MicroPath.c_str(),
              ScalingPath.c_str());
  return 0;
}
