//===- rotation_cost.cpp - Rotation-cost subsystem bench -----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// The `rotation` suite of run_benches: measures the three legs of the
// rotation-cost subsystem into BENCH_rotation.json:
//
//   1. Hoisted vs serial key switching: a fan of rotations of one ciphertext
//      run with the RotationPlan consumed vs ignored — per-rotation time and
//      the key-switch decomposition counts (ExecutionStats), plus a
//      bit-identity check between the two paths.
//   2. BSGS vs naive matvec: the baby-step–giant-step diagonal kernel
//      against the per-output mask-and-reduce kernel on the same matrix;
//      the decomposition count must drop >= 30%. The same A/B on a dense
//      layer over a strided layout (a stride-2 convolution's output, 10
//      outputs): the hybrid diagonal kernel fullyConnected emits against
//      the per-output tree it replaced; decompositions must drop >= 80%.
//   3. Galois-key budgeting: serialized Galois-key bytes (exactly the
//      ServiceClient session-open upload payload) for the unbudgeted step
//      set vs the power-of-two basis, with a reference-closeness check on
//      the rewritten program.
//
// Every correctness gate (bit identity, reference closeness, the >= 30% and
// >= 80% decomposition drops, budget shrinking the upload) is a check, so
// `run_benches OUTDIR rotation` is both a bench and a test; ctest runs it as
// RunBenchesRotation.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "eva/runtime/ReferenceExecutor.h"
#include "eva/serialize/CkksIO.h"
#include "eva/support/Random.h"
#include "eva/tensor/Kernels.h"

using namespace eva;
using namespace evabench;

namespace {

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

/// The pre-hybrid strided dense layer, kept inline as the A/B baseline: per
/// output, a weight mask over the layout's slots, a rotate-and-add tree over
/// the whole vector and a selection mask.
std::unique_ptr<Program> buildTreeFc(uint64_t M, const CipherLayout &L,
                                     const Tensor &W) {
  ProgramBuilder B("tree_fc", M);
  TensorScales Scales;
  Expr X = B.inputCipher("x", Scales.Cipher);
  Expr Acc;
  for (size_t O = 0; O < W.dims()[0]; ++O) {
    std::vector<double> Mask(M, 0.0);
    size_t J = 0;
    for (size_t C = 0; C < L.C; ++C)
      for (size_t Py = 0; Py < L.H; ++Py)
        for (size_t Px = 0; Px < L.W; ++Px)
          Mask[L.slotOf(C, Py, Px)] = W.at2(O, J++);
    Expr T = rotationTreeSum(
        B, X * B.constantVector(Mask, Scales.Vector), M);
    std::vector<double> Sel(M, 0.0);
    Sel[O] = 1.0;
    Expr Term = T * B.constantVector(Sel, Scales.Vector);
    Acc = Acc.valid() ? Acc + Term : Term;
  }
  B.output("y", Acc, Scales.Output);
  return B.take();
}

std::unique_ptr<Program> buildHybridFc(uint64_t M, const CipherLayout &L,
                                       const Tensor &W) {
  ProgramBuilder B("hybrid_fc", M);
  TensorScales Scales;
  CipherTensor In{B.inputCipher("x", Scales.Cipher), L};
  CipherTensor Y = fullyConnected(B, In, W, Tensor(), Scales);
  B.output("y", Y.Value, Scales.Output);
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

/// Encrypts \p Inputs once under \p WS's keys (sealInputs), so A/B runs
/// see identical ciphertext bits.
SealedInputs seal(const CompiledProgram &CP, const CkksWorkspace &WS,
                  const std::map<std::string, std::vector<double>> &Inputs) {
  return sealInputs(WS, ProgramSignature::of(CP), Valuation::fromMap(Inputs))
      .value()
      .Inputs;
}

/// Runs \p CP once over a shared workspace with hoisting on or off, against
/// pre-sealed inputs so A/B runs see identical ciphertext bits.
RunOutcome runOnce(const CompiledProgram &CP,
                   const std::shared_ptr<CkksWorkspace> &WS,
                   const SealedInputs &Sealed, bool Hoisting) {
  CkksExecutor Exec(CP, WS, {.Hoisting = Hoisting});
  Timer T;
  std::map<std::string, Ciphertext> Enc = Exec.run(Sealed);
  RunOutcome Out;
  Out.Seconds = T.seconds();
  Out.Stats = Exec.stats();
  Out.Outputs = decryptOutputs(*WS, ProgramSignature::of(CP), Enc);
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

/// An A/B of two kernels for one product: compiles and runs both programs
/// on the same inputs, checks each within 5e-4 of \p Want on the first
/// \p Slots slots and the second's hoisted run bit-identical to its serial
/// one, adds a timed row per program with its decompositions, and returns
/// the two decomposition counts.
std::pair<double, double>
kernelAB(JsonReport &Report, const std::string (&Names)[2],
         const Program *const (&Progs)[2],
         const std::map<std::string, std::vector<double>> &Inputs,
         const std::map<std::string, std::vector<double>> &Want,
         size_t Slots) {
  double Decompositions[2] = {0, 0};
  for (int K = 0; K < 2; ++K) {
    CompiledProgram CP = std::move(compile(*Progs[K]).value());
    std::shared_ptr<CkksWorkspace> WS =
        CkksWorkspace::createClient(CP, 1234).value();
    SealedInputs Sealed = seal(CP, *WS, Inputs);
    RunOutcome Run = runOnce(CP, WS, Sealed, /*Hoisting=*/true);
    if (K == 1) {
      RunOutcome NoHoist = runOnce(CP, WS, Sealed, /*Hoisting=*/false);
      Report.check(bitIdentical(Run.Outputs, NoHoist.Outputs),
                   Names[K] + " hoisted outputs bit-identical to the "
                              "non-hoisted path");
    }
    double Err = maxAbsError(Run.Outputs, Want, Slots);
    Report.check(Err < 5e-4, Names[K] + " reference-close (err " +
                                 std::to_string(Err) + ")");
    Decompositions[K] =
        static_cast<double>(Run.Stats.KeySwitchDecompositions);
    BenchResult R = measure(Names[K], [&] { runOnce(CP, WS, Sealed, true); });
    R.field("decompositions", Decompositions[K]);
    Report.add(std::move(R));
  }
  std::printf("  decompositions: %s=%.0f %s=%.0f (%.0f%% drop)\n",
              Names[0].c_str(), Decompositions[0], Names[1].c_str(),
              Decompositions[1],
              100.0 * (1.0 - Decompositions[1] / Decompositions[0]));
  return {Decompositions[0], Decompositions[1]};
}

} // namespace

void evabench::rotationSuite(JsonReport &Report) {
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
    std::shared_ptr<CkksWorkspace> WS =
        CkksWorkspace::createClient(CP, 1234).value();
    SealedInputs Sealed = seal(CP, *WS, randomInputs(*P, 7));

    RunOutcome Serial = runOnce(CP, WS, Sealed, /*Hoisting=*/false);
    RunOutcome Hoisted = runOnce(CP, WS, Sealed, /*Hoisting=*/true);
    Report.check(bitIdentical(Serial.Outputs, Hoisted.Outputs),
                 "hoisted outputs bit-identical to the serial path");
    Report.check(Serial.Stats.KeySwitchDecompositions == Steps.size(),
                 "serial path decomposes once per rotation");
    Report.check(Hoisted.Stats.KeySwitchDecompositions == 1 &&
                     Hoisted.Stats.HoistBatches == 1 &&
                     Hoisted.Stats.HoistedRotations == Steps.size(),
                 "hoisted path shares one decomposition across the fan");

    double N = static_cast<double>(Steps.size());
    for (bool Hoist : {false, true}) {
      BenchResult R = measure(
          Hoist ? "rotation_fan16_hoisted" : "rotation_fan16_serial",
          [&] { runOnce(CP, WS, Sealed, Hoist); });
      BenchResult Per = R;
      Per.Op += "_per_rotation";
      Per.MeanSeconds /= N;
      *Per.MinSeconds /= N;
      Report.add(Per);
      R.field("decompositions",
              static_cast<double>(
                  (Hoist ? Hoisted : Serial).Stats.KeySwitchDecompositions));
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
    auto [NaiveD, BsgsD] =
        kernelAB(Report, {"naive_matvec64", "bsgs_matvec64"},
                 {Naive.get(), Bsgs.get()}, Inputs, Want, M);
    Report.check(BsgsD <= 0.7 * NaiveD,
                 "bsgs drops key-switch decompositions by >= 30%");
  }

  // A stride-2 convolution's output layout (4 channels of 4x4 on an 8x8
  // grid) into 10 outputs: the per-output tree pays one decomposition per
  // rotation, 10 * log2(vec_size); the hybrid pays one for its baby batch,
  // one per giant step and one per class-tree step.
  constexpr uint64_t FcM = 256;
  std::printf("strided dense layer 10x64 (hybrid vs per-output tree)\n");
  {
    CipherLayout L;
    L.C = 4;
    L.H = L.W = 4;
    L.GridH = L.GridW = 8;
    L.StrideY = L.StrideX = 2;
    Tensor W = randomMatrix(10, L.logicalSize(), 23);
    std::unique_ptr<Program> Tree = buildTreeFc(FcM, L, W);
    std::unique_ptr<Program> Hybrid = buildHybridFc(FcM, L, W);
    std::map<std::string, std::vector<double>> Inputs = randomInputs(*Tree, 13);
    std::map<std::string, std::vector<double>> Want =
        *ReferenceExecutor(*Tree).run(Inputs);
    auto [TreeD, HybridD] =
        kernelAB(Report, {"strided_fc10_tree", "strided_fc10_hybrid"},
                 {Tree.get(), Hybrid.get()}, Inputs, Want, 10);
    Report.check(HybridD <= 0.2 * TreeD,
                 "hybrid drops key-switch decompositions by >= 80%");
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
          [&] { WS = CkksWorkspace::createClient(CP, 1234).value(); }, 1,
          0.0);
      // serializeGaloisKeys(Gk) is byte-for-byte the GaloisKeyBytes payload
      // ServiceClient uploads at session open.
      UploadBytes[K] = static_cast<double>(serializeGaloisKeys(WS->Gk).size());
      StepCounts[K] = CP.RotationSteps.size();
      Report.add(R.field("bytes", UploadBytes[K]));

      std::unique_ptr<Runner> Run = std::move(Runner::local(CP, WS).value());
      double Err = maxAbsError(
          Run->run(Valuation::fromMap(Inputs)).value().toMap(), Want, M);
      Report.check(Err < 5e-4, std::string("budget=") +
                                   std::to_string(Budgets[K]) +
                                   " outputs reference-close (err " +
                                   std::to_string(Err) + ")");
    }
    std::printf("  keys: %zu -> %zu steps, upload %.0f -> %.0f bytes\n",
                StepCounts[0], StepCounts[1], UploadBytes[0], UploadBytes[1]);
    Report.check(StepCounts[1] <= Budgets[1] && StepCounts[1] < StepCounts[0],
                 "budget shrinks the rotation-step set to the basis");
    Report.check(UploadBytes[1] < 0.5 * UploadBytes[0],
                 "budget at least halves the serialized galois-key upload");
  }
}
