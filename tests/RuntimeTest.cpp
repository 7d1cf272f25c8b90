//===- RuntimeTest.cpp - End-to-end compile-and-execute tests ----------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests across compiler + CKKS backend + executor: every
/// compiled program must produce (approximately) the same outputs as the
/// reference id-scheme executor, under both schedules and both compiler
/// modes — the paper's correctness guarantee.
///
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"
#include "eva/frontend/Expr.h"
#include "eva/ir/Printer.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

std::map<std::string, std::vector<double>>
randomInputs(const Program &P, uint64_t Seed, double Lo = -1.0,
             double Hi = 1.0) {
  RandomSource Rng(Seed);
  std::map<std::string, std::vector<double>> Inputs;
  for (const Node *I : P.inputs()) {
    std::vector<double> V(P.vecSize());
    for (double &X : V)
      X = Rng.uniformReal(Lo, Hi);
    Inputs.emplace(I->name(), std::move(V));
  }
  return Inputs;
}

double maxOutputError(const std::map<std::string, std::vector<double>> &A,
                      const std::map<std::string, std::vector<double>> &B) {
  EXPECT_EQ(A.size(), B.size());
  double Err = 0;
  for (const auto &[Name, VA] : A) {
    auto It = B.find(Name);
    EXPECT_NE(It, B.end()) << "missing output " << Name;
    if (It == B.end())
      continue;
    EXPECT_EQ(VA.size(), It->second.size());
    for (size_t I = 0; I < VA.size(); ++I)
      Err = std::max(Err, std::abs(VA[I] - It->second[I]));
  }
  return Err;
}

/// Encrypts \p Inputs, runs \p CP and decrypts through a local Runner over
/// \p WS with \p Opts; empty on a run error.
std::map<std::string, std::vector<double>>
runLocal(const CompiledProgram &CP, std::shared_ptr<CkksWorkspace> WS,
         const std::map<std::string, std::vector<double>> &Inputs,
         const LocalRunnerOptions &Opts = {}) {
  Expected<std::unique_ptr<Runner>> R = Runner::local(CP, std::move(WS), Opts);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.message());
  if (!R.ok())
    return {};
  Expected<Valuation> Out = (*R)->run(Valuation::fromMap(Inputs));
  EXPECT_TRUE(Out.ok()) << (Out.ok() ? "" : Out.message());
  return Out.ok() ? Out->toMap() : std::map<std::string, std::vector<double>>();
}

/// Compiles and runs under both the reference and the CKKS executor;
/// returns the max elementwise deviation.
double compileAndCompare(const Program &P, const CompilerOptions &Options,
                         uint64_t Seed, double InputLo = -1.0,
                         double InputHi = 1.0) {
  Expected<CompiledProgram> CP = compile(P, Options);
  EXPECT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  if (!CP.ok())
    return 1e9;
  std::map<std::string, std::vector<double>> Inputs =
      randomInputs(P, Seed, InputLo, InputHi);
  ReferenceExecutor Ref(P);
  std::map<std::string, std::vector<double>> Want = *Ref.run(Inputs);

  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(*CP, Seed + 7);
  EXPECT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());
  if (!WS.ok())
    return 1e9;
  return maxOutputError(Want, runLocal(*CP, WS.value(), Inputs));
}

TEST(EndToEnd, PolynomialEvaluation) {
  // 1 + 2x + 3x^2 - x^3 over encrypted x.
  ProgramBuilder B("poly", 512);
  Expr X = B.inputCipher("x", 30);
  Expr X2 = X * X;
  Expr X3 = X2 * X;
  Expr R = X * B.constant(2.0, 30) + X2 * B.constant(3.0, 30) -
           X3 + B.constant(1.0, 30);
  B.output("out", R, 30);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::eva(), 17), 1e-3);
}

TEST(EndToEnd, RotationsAndSums) {
  ProgramBuilder B("rots", 256);
  Expr X = B.inputCipher("x", 30);
  Expr R = (X << 5) + (X >> 3) + B.sumSlots(X * X);
  B.output("out", R, 30);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::eva(), 23),
            1e-2);
}

TEST(EndToEnd, DeepMultiplyChain) {
  // Depth-4 chain exercises rescale + modswitch + relinearize together.
  ProgramBuilder B("deep", 128);
  Expr X = B.inputCipher("x", 40);
  Expr V = X.pow(16);
  B.output("out", V, 30);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::eva(), 31, 0.5,
                              1.1),
            1e-2);
}

TEST(EndToEnd, MixedScalesTriggerMatchScale) {
  ProgramBuilder B("mixed", 64);
  Expr X = B.inputCipher("x", 30);
  Expr Y = B.inputCipher("y", 25);
  Expr R = X * X + Y + B.constant(0.25, 10);
  B.output("out", R, 25);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::eva(), 37),
            1e-2);
}

TEST(EndToEnd, ChetModeIsAlsoCorrect) {
  ProgramBuilder B("chetok", 64);
  Expr X = B.inputCipher("x", 25);
  Expr C = B.constant(0.5, 15);
  Expr V = X;
  for (int I = 0; I < 2; ++I)
    V = (V * C) * V;
  B.output("out", V, 25);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::chet(), 41),
            2e-2);
}

TEST(EndToEnd, MultipleOutputsAtDifferentDepths) {
  ProgramBuilder B("multi", 64);
  Expr X = B.inputCipher("x", 30);
  B.output("shallow", X + X, 30);
  B.output("mid", X * X, 30);
  B.output("deep", X.pow(4), 30);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::eva(), 43),
            1e-2);
}

struct ExecutorKind {
  const char *Name;
  LocalStyle Style;
  size_t Threads;
};

class AllExecutors : public ::testing::TestWithParam<ExecutorKind> {};

TEST_P(AllExecutors, AgreeOnSobelLikeProgram) {
  const ExecutorKind &K = GetParam();
  // A miniature Sobel-style stencil: rotations, plaintext multiplies,
  // squares, and a polynomial.
  ProgramBuilder B("stencil", 64);
  Expr Img = B.inputCipher("img", 30);
  Expr Ix, Iy;
  const double F[3] = {-1, 0, 1};
  for (int I = 0; I < 3; ++I) {
    Expr Rot = Img << (I * 8);
    Expr H = Rot * B.constant(F[I], 20);
    Expr V = Rot * B.constant(F[2 - I], 20);
    Ix = I == 0 ? H : Ix + H;
    Iy = I == 0 ? V : Iy + V;
  }
  Expr G = Ix * Ix + Iy * Iy;
  B.output("out", G, 30);
  Program &P = B.program();

  Expected<CompiledProgram> CP = compile(P);
  ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  std::map<std::string, std::vector<double>> Inputs = randomInputs(P, 71);
  ReferenceExecutor Ref(P);
  std::map<std::string, std::vector<double>> Want = *Ref.run(Inputs);

  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(*CP, 1000);
  ASSERT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());
  LocalRunnerOptions Opts;
  Opts.Threads = K.Threads;
  Opts.Style = K.Style;
  EXPECT_LT(maxOutputError(Want, runLocal(*CP, WS.value(), Inputs, Opts)),
            1e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllExecutors,
    ::testing::Values(ExecutorKind{"serial", LocalStyle::Serial, 1},
                      ExecutorKind{"parallel2", LocalStyle::ParallelDag, 2},
                      ExecutorKind{"parallel4", LocalStyle::ParallelDag, 4},
                      ExecutorKind{"bulk1", LocalStyle::KernelBulk, 1},
                      ExecutorKind{"bulk2", LocalStyle::KernelBulk, 2}),
    [](const ::testing::TestParamInfo<ExecutorKind> &I) {
      return std::string(I.param.Name);
    });

TEST(EndToEnd, AllExecutorsProduceIdenticalOutputsOnMultiKernelProgram) {
  // A program with several frontend-tagged kernels (the kernel schedule's
  // chunk boundaries), run from the SAME encrypted inputs under the DAG
  // schedule on one thread and on four, and the kernel schedule on four.
  // Every CKKS op is exact modular integer arithmetic, so the decrypted
  // outputs must agree bit-for-bit — any divergence means a scheduling race
  // (lost limb, stale operand, retire before last use).
  ProgramBuilder B("kernels", 64);
  Expr X = B.inputCipher("x", 30);
  Expr Y = B.inputCipher("y", 30);
  Expr Conv = B.inKernel([&] {
    Expr Acc = X * B.constant(0.5, 20);
    for (int I = 1; I < 4; ++I)
      Acc = Acc + (X << I) * B.constant(0.25 * I, 20);
    return Acc;
  });
  Expr Square = B.inKernel([&] { return Conv * Conv + Y; });
  Expr Pool = B.inKernel([&] { return Square + (Square << 2); });
  B.output("conv", Conv, 30);
  B.output("pooled", Pool, 30);

  Expected<CompiledProgram> CP = compile(B.program(), CompilerOptions::eva());
  ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(*CP, 4242);
  ASSERT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());

  std::map<std::string, std::vector<double>> Inputs =
      randomInputs(B.program(), 97);
  CkksExecutor Serial(*CP, WS.value());
  CkksExecutor Parallel(*CP, WS.value(), {.Threads = 4});
  CkksExecutor Bulk(*CP, WS.value(),
                    {.Threads = 4, .Style = LocalStyle::KernelBulk});

  // Encrypt once; every schedule consumes the identical ciphertexts.
  ProgramSignature Sig = ProgramSignature::of(*CP);
  Expected<SealedRequest> Sealed =
      sealInputs(*WS.value(), Sig, Valuation::fromMap(Inputs));
  ASSERT_TRUE(Sealed.ok()) << Sealed.message();
  std::map<std::string, std::vector<double>> SerialOut =
      decryptOutputs(*WS.value(), Sig, Serial.run(Sealed->Inputs));
  std::map<std::string, std::vector<double>> ParallelOut =
      decryptOutputs(*WS.value(), Sig, Parallel.run(Sealed->Inputs));
  std::map<std::string, std::vector<double>> BulkOut =
      decryptOutputs(*WS.value(), Sig, Bulk.run(Sealed->Inputs));

  ASSERT_EQ(SerialOut.size(), 2u);
  ASSERT_EQ(ParallelOut.size(), 2u);
  ASSERT_EQ(BulkOut.size(), 2u);
  for (const auto &[Name, Want] : SerialOut) {
    ASSERT_TRUE(ParallelOut.count(Name)) << Name;
    ASSERT_TRUE(BulkOut.count(Name)) << Name;
    EXPECT_EQ(Want, ParallelOut.at(Name))
        << "parallel DAG schedule diverged on " << Name;
    EXPECT_EQ(Want, BulkOut.at(Name))
        << "kernel schedule diverged on " << Name;
  }

  // Stats parity: every schedule tallies live memory through the same
  // per-node step.
  EXPECT_GT(Serial.stats().PeakLiveNodes, 0u);
  for (const CkksExecutor *E : {&Parallel, &Bulk}) {
    EXPECT_GT(E->stats().PeakLiveNodes, 0u);
    EXPECT_LE(E->stats().PeakLiveNodes, E->stats().TotalNodeCount);
    EXPECT_GT(E->stats().PeakLiveBytes, 0u);
  }
}

TEST(EndToEnd, MemoryReuseBoundsLiveCiphertexts) {
  // A long chain should retire intermediates under either schedule: peak
  // live nodes must stay far below the node count (Section 6.1's retire
  // rule).
  ProgramBuilder B("chain", 64);
  Expr X = B.inputCipher("x", 40);
  Expr V = X;
  for (int I = 0; I < 6; ++I)
    V = V * V;
  B.output("out", V, 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(*CP, 5);
  ASSERT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());
  std::map<std::string, std::vector<double>> Inputs = randomInputs(
      B.program(), 3, 0.9, 1.1);
  for (LocalStyle Style : {LocalStyle::ParallelDag, LocalStyle::KernelBulk}) {
    LocalRunnerOptions Opts;
    Opts.Threads = 2;
    Opts.Style = Style;
    Expected<std::unique_ptr<Runner>> R = Runner::local(*CP, WS.value(), Opts);
    ASSERT_TRUE(R.ok()) << R.message();
    ASSERT_TRUE((*R)->run(Valuation::fromMap(Inputs)).ok());
    const ExecutionStats &Stats = *(*R)->executionStats();
    EXPECT_GT(Stats.TotalNodeCount, 10u);
    EXPECT_LE(Stats.PeakLiveNodes, 4u)
        << (Style == LocalStyle::ParallelDag ? "DAG" : "kernel")
        << " schedule";
  }
}

TEST(Reference, MatchesHandComputedValues) {
  ProgramBuilder B("ref", 4);
  Expr X = B.inputCipher("x", 30);
  Expr Y = (X << 1) * X + B.constant(1.0, 30);
  B.output("out", Y, 30);
  ReferenceExecutor Ref(B.program());
  std::map<std::string, std::vector<double>> Out =
      *Ref.run({{"x", {1, 2, 3, 4}}});
  // (rot left by 1 of [1,2,3,4]) * [1,2,3,4] + 1 = [2*1+1, 3*2+1, 4*3+1,
  // 1*4+1].
  std::vector<double> Want = {3, 7, 13, 5};
  EXPECT_EQ(Out["out"], Want);
}

TEST(Reference, TransformationPreservesSemantics) {
  // Pid(inputs) == P'id(inputs): compiled graphs are value-equivalent under
  // the id scheme (the MATCH-SCALE constant multiplies by 1.0, RESCALE and
  // MODSWITCH are identities).
  for (uint64_t Seed : {1u, 2u, 3u}) {
    ProgramBuilder B("sem", 128);
    Expr X = B.inputCipher("x", 30);
    Expr Y = B.inputCipher("y", 20);
    Expr V = (X * X + Y) * (X << 7) + B.sumSlots(Y) - X.pow(3);
    B.output("out", V, 30);
    Program &P = B.program();
    for (const CompilerOptions &O :
         {CompilerOptions::eva(), CompilerOptions::chet()}) {
      Expected<CompiledProgram> CP = compile(P, O);
      ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
      std::map<std::string, std::vector<double>> Inputs =
          randomInputs(P, Seed);
      ReferenceExecutor Ref(P), RefCompiled(*CP->Prog);
      double Err =
          maxOutputError(*Ref.run(Inputs), *RefCompiled.run(Inputs));
      EXPECT_LT(Err, 1e-9);
    }
  }
}

} // namespace
