//===- rotation_cost.cpp - Rotation-cost subsystem bench -----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// Measures the three legs of the rotation-cost subsystem and writes
// BENCH_rotation.json:
//
//   1. Hoisted vs serial key switching: a fan of rotations of one ciphertext
//      run with the RotationPlan consumed vs ignored — per-rotation time and
//      the key-switch decomposition counts (ExecutionStats), plus a
//      bit-identity check between the two paths.
//   2. BSGS vs naive matvec: the baby-step–giant-step diagonal kernel
//      against the per-output mask-and-reduce kernel on the same matrix;
//      the decomposition count must drop >= 30%.
//   3. Galois-key budgeting: serialized Galois-key bytes (exactly the
//      ServiceClient session-open upload payload) for the unbudgeted step
//      set vs the power-of-two basis, with a reference-closeness check on
//      the rewritten program.
//
// The binary exits nonzero if any correctness gate (bit identity,
// reference closeness, the >= 30% decomposition drop, budget shrinking the
// upload) fails, so CI can run it as both a bench and a check.
//
// Usage: rotation_cost [output-dir]        (default: current directory)
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "eva/runtime/ReferenceExecutor.h"
#include "eva/serialize/CkksIO.h"
#include "eva/support/Random.h"
#include "eva/tensor/Kernels.h"

#ifndef EVA_GIT_SHA
#define EVA_GIT_SHA "unknown"
#endif

using namespace eva;
using namespace evabench;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  if (Ok) {
    std::printf("  [ok]   %s\n", What.c_str());
  } else {
    std::printf("  [FAIL] %s\n", What.c_str());
    ++Failures;
  }
}

void report(const BenchResult &R) {
  std::printf("  %-34s iters=%-3zu mean=%10.6fs", R.Op.c_str(), R.Iterations,
              R.MeanSeconds);
  if (R.Decompositions > 0)
    std::printf(" decomp=%.0f", R.Decompositions);
  if (R.Bytes > 0)
    std::printf(" bytes=%.0f", R.Bytes);
  std::printf("\n");
}

std::map<std::string, std::vector<double>> randomInputs(const Program &P,
                                                        uint64_t Seed) {
  RandomSource Rng(Seed);
  std::map<std::string, std::vector<double>> In;
  for (const Node *I : P.inputs()) {
    std::vector<double> V(P.vecSize());
    for (double &X : V)
      X = Rng.uniformReal(-1, 1);
    In.emplace(I->name(), std::move(V));
  }
  return In;
}

/// out = sum_k (x << Steps[k]) * c_k — every rotation shares the source, so
/// the whole fan is one hoist batch.
std::unique_ptr<Program> buildRotationFan(uint64_t M,
                                          const std::vector<int32_t> &Steps) {
  ProgramBuilder B("rotation_fan", M);
  Expr X = B.inputCipher("x", 30);
  Expr Acc;
  for (size_t K = 0; K < Steps.size(); ++K) {
    Expr T = (X << Steps[K]) * B.constant(0.5 + 0.01 * (double)K, 20);
    Acc = Acc.valid() ? Acc + T : T;
  }
  B.output("out", Acc, 30);
  return B.take();
}

Tensor randomMatrix(size_t Rows, size_t Cols, uint64_t Seed) {
  RandomSource Rng(Seed);
  Tensor W({Rows, Cols});
  for (size_t R = 0; R < Rows; ++R)
    for (size_t C = 0; C < Cols; ++C)
      W.at2(R, C) = Rng.uniformReal(-1, 1) / static_cast<double>(Cols);
  return W;
}

/// The pre-BSGS dense kernel, kept inline here as the A/B baseline: one
/// masked rotation tree per output row, no shared decompositions.
std::unique_ptr<Program> buildNaiveMatvec(uint64_t M, const Tensor &W) {
  ProgramBuilder B("naive_matvec", M);
  TensorScales Scales;
  Expr X = B.inputCipher("x", Scales.Cipher);
  Expr Acc;
  for (size_t O = 0; O < W.dims()[0]; ++O) {
    std::vector<double> Row(M, 0.0);
    for (size_t C = 0; C < W.dims()[1]; ++C)
      Row[C] = W.at2(O, C);
    Expr T = rotationTreeSum(
        B, X * B.constantVector(Row, Scales.Vector), M);
    std::vector<double> Sel(M, 0.0);
    Sel[O] = 1.0;
    Expr Term = T * B.constantVector(Sel, Scales.Vector);
    Acc = Acc.valid() ? Acc + Term : Term;
  }
  B.output("y", Acc, Scales.Output);
  return B.take();
}

std::unique_ptr<Program> buildBsgsMatvec(uint64_t M, const Tensor &W) {
  ProgramBuilder B("bsgs_matvec", M);
  TensorScales Scales;
  CipherLayout L;
  L.C = M;
  L.H = L.W = 1;
  L.GridH = L.GridW = 1;
  CipherTensor In{B.inputCipher("x", Scales.Cipher), L};
  CipherTensor Y = matVecBsgs(B, In, W, Tensor(), Scales);
  B.output("y", Y.Value, Scales.Output);
  return B.take();
}

struct RunOutcome {
  std::map<std::string, std::vector<double>> Outputs;
  ExecutionStats Stats;
  double Seconds = 0;
};

/// Runs \p CP once over a shared workspace with hoisting on or off, against
/// pre-sealed inputs so A/B runs see identical ciphertext bits.
RunOutcome runOnce(const CompiledProgram &CP,
                   std::shared_ptr<CkksWorkspace> WS,
                   const SealedInputs &Sealed, bool Hoisting) {
  CkksExecutor Exec(CP, std::move(WS), {.Hoisting = Hoisting});
  Timer T;
  std::map<std::string, Ciphertext> Enc = Exec.run(Sealed);
  RunOutcome Out;
  Out.Seconds = T.seconds();
  Out.Stats = Exec.stats();
  for (const auto &[Name, Ct] : Enc)
    Out.Outputs.emplace(Name, Exec.decryptOutput(Ct));
  return Out;
}

bool bitIdentical(const std::map<std::string, std::vector<double>> &A,
                  const std::map<std::string, std::vector<double>> &B) {
  if (A.size() != B.size())
    return false;
  for (const auto &[Name, VA] : A) {
    auto It = B.find(Name);
    if (It == B.end() || It->second.size() != VA.size())
      return false;
    for (size_t I = 0; I < VA.size(); ++I)
      if (VA[I] != It->second[I])
        return false;
  }
  return true;
}

double maxAbsError(const std::map<std::string, std::vector<double>> &Got,
                   const std::map<std::string, std::vector<double>> &Want,
                   size_t Slots) {
  double E = 0;
  for (const auto &[Name, W] : Want) {
    const std::vector<double> &G = Got.at(Name);
    for (size_t I = 0; I < Slots && I < W.size(); ++I)
      E = std::max(E, std::abs(G[I] - W[I]));
  }
  return E;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutDir = argc > 1 ? argv[1] : ".";
  JsonReport Report("rotation", EVA_GIT_SHA);
  constexpr uint64_t M = 64;

  //===--------------------------------------------------------------------===
  // 1. Hoisted vs serial key switching on a 16-rotation fan.
  //===--------------------------------------------------------------------===
  std::printf("rotation fan (hoisted vs serial)\n");
  {
    std::vector<int32_t> Steps;
    for (int32_t S = 1; S < 32; S += 2)
      Steps.push_back(S); // 16 distinct odd steps: no power-of-two sharing
    std::unique_ptr<Program> P = buildRotationFan(M, Steps);
    CompiledProgram CP = std::move(compile(*P).value());
    std::shared_ptr<CkksWorkspace> WS = CkksWorkspace::create(CP, 1234).value();
    CkksExecutor Sealer(CP, WS);
    SealedInputs Sealed = Sealer.encryptInputs(randomInputs(*P, 7));

    RunOutcome Serial = runOnce(CP, WS, Sealed, /*Hoisting=*/false);
    RunOutcome Hoisted = runOnce(CP, WS, Sealed, /*Hoisting=*/true);
    check(bitIdentical(Serial.Outputs, Hoisted.Outputs),
          "hoisted outputs bit-identical to the serial path");
    check(Serial.Stats.KeySwitchDecompositions == Steps.size(),
          "serial path decomposes once per rotation");
    check(Hoisted.Stats.KeySwitchDecompositions == 1 &&
              Hoisted.Stats.HoistBatches == 1 &&
              Hoisted.Stats.HoistedRotations == Steps.size(),
          "hoisted path shares one decomposition across the fan");

    double N = static_cast<double>(Steps.size());
    for (bool Hoist : {false, true}) {
      BenchResult R = measure(
          Hoist ? "rotation_fan16_hoisted" : "rotation_fan16_serial",
          [&] { runOnce(CP, WS, Sealed, Hoist); });
      R.Decompositions = static_cast<double>(
          (Hoist ? Hoisted : Serial).Stats.KeySwitchDecompositions);
      report(R);
      BenchResult Per = R;
      Per.Op += "_per_rotation";
      Per.MeanSeconds /= N;
      Per.MinSeconds /= N;
      Per.Decompositions = 0;
      Report.add(Per);
      Report.add(std::move(R));
    }
  }

  //===--------------------------------------------------------------------===
  // 2. BSGS vs naive matvec (the kernel rewrite's decomposition budget).
  //===--------------------------------------------------------------------===
  std::printf("matvec %zux%zu (bsgs vs naive)\n", (size_t)M, (size_t)M);
  {
    Tensor W = randomMatrix(M, M, 21);
    std::unique_ptr<Program> Naive = buildNaiveMatvec(M, W);
    std::unique_ptr<Program> Bsgs = buildBsgsMatvec(M, W);
    std::map<std::string, std::vector<double>> Inputs = randomInputs(*Naive, 9);
    std::map<std::string, std::vector<double>> Want =
        *ReferenceExecutor(*Naive).run(Inputs);

    RunOutcome Runs[2];
    const char *Names[2] = {"naive_matvec64", "bsgs_matvec64"};
    Program *Progs[2] = {Naive.get(), Bsgs.get()};
    for (int K = 0; K < 2; ++K) {
      CompiledProgram CP = std::move(compile(*Progs[K]).value());
      std::shared_ptr<CkksWorkspace> WS =
          CkksWorkspace::create(CP, 1234).value();
      CkksExecutor Sealer(CP, WS);
      SealedInputs Sealed = Sealer.encryptInputs(Inputs);
      Runs[K] = runOnce(CP, WS, Sealed, /*Hoisting=*/true);
      if (K == 1) {
        RunOutcome NoHoist = runOnce(CP, WS, Sealed, /*Hoisting=*/false);
        check(bitIdentical(Runs[1].Outputs, NoHoist.Outputs),
              "bsgs hoisted outputs bit-identical to the non-hoisted path");
      }
      double Err = maxAbsError(Runs[K].Outputs, Want, M);
      check(Err < 5e-3, std::string(Names[K]) + " reference-close (err " +
                            std::to_string(Err) + ")");
      BenchResult R = measure(Names[K], [&] { runOnce(CP, WS, Sealed, true); });
      R.Decompositions =
          static_cast<double>(Runs[K].Stats.KeySwitchDecompositions);
      report(R);
      Report.add(std::move(R));
    }
    double NaiveD = static_cast<double>(Runs[0].Stats.KeySwitchDecompositions);
    double BsgsD = static_cast<double>(Runs[1].Stats.KeySwitchDecompositions);
    std::printf("  decompositions: naive=%.0f bsgs=%.0f (%.0f%% drop)\n",
                NaiveD, BsgsD, 100.0 * (1.0 - BsgsD / NaiveD));
    check(BsgsD <= 0.7 * NaiveD,
          "bsgs drops key-switch decompositions by >= 30%");
  }

  //===--------------------------------------------------------------------===
  // 3. Galois-key budget vs serialized key-upload bytes.
  //===--------------------------------------------------------------------===
  std::printf("galois-key budget (upload bytes)\n");
  {
    std::vector<int32_t> Steps;
    for (int32_t S = 1; S < 32; S += 2)
      Steps.push_back(S);
    std::unique_ptr<Program> P = buildRotationFan(M, Steps);
    std::map<std::string, std::vector<double>> Inputs = randomInputs(*P, 11);
    std::map<std::string, std::vector<double>> Want =
        *ReferenceExecutor(*P).run(Inputs);

    size_t Budgets[2] = {0, 5}; // unlimited vs the power-of-two basis
    double UploadBytes[2] = {0, 0};
    size_t StepCounts[2] = {0, 0};
    for (size_t K = 0; K < 2; ++K) {
      CompilerOptions O;
      O.GaloisKeyBudget = Budgets[K];
      CompiledProgram CP = std::move(compile(*P, O).value());
      std::shared_ptr<CkksWorkspace> WS;
      BenchResult R = measure(
          K == 0 ? "galois_keys_full" : "galois_keys_budget5",
          [&] { WS = CkksWorkspace::create(CP, 1234).value(); }, 1, 0.0);
      // serializeGaloisKeys(Gk) is byte-for-byte the GaloisKeyBytes payload
      // ServiceClient uploads at session open.
      R.Bytes = static_cast<double>(serializeGaloisKeys(WS->Gk).size());
      UploadBytes[K] = R.Bytes;
      StepCounts[K] = CP.RotationSteps.size();
      report(R);
      Report.add(std::move(R));

      CkksExecutor Exec(CP, WS);
      double Err = maxAbsError(Exec.runPlain(Inputs), Want, M);
      check(Err < 5e-3, std::string("budget=") + std::to_string(Budgets[K]) +
                            " outputs reference-close (err " +
                            std::to_string(Err) + ")");
    }
    std::printf("  keys: %zu -> %zu steps, upload %.0f -> %.0f bytes\n",
                StepCounts[0], StepCounts[1], UploadBytes[0], UploadBytes[1]);
    check(StepCounts[1] <= Budgets[1] && StepCounts[1] < StepCounts[0],
          "budget shrinks the rotation-step set to the basis");
    check(UploadBytes[1] < 0.5 * UploadBytes[0],
          "budget at least halves the serialized galois-key upload");
  }

  std::string Path = OutDir + "/BENCH_rotation.json";
  if (!Report.write(Path)) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", Path.c_str());
  if (Failures > 0) {
    std::printf("%d rotation-cost check(s) FAILED\n", Failures);
    return 1;
  }
  return 0;
}
