//===- NoiseTest.cpp - Static noise estimation vs. observed error ------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"
#include "eva/core/Compiler.h"
#include "eva/frontend/Expr.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/support/Random.h"
#include "eva/tensor/Network.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

NoiseEstimate estimateFor(const CompiledProgram &CP) {
  return estimateNoise(*CP.Prog, CP.PolyDegree);
}

TEST(NoiseEstimate, DeeperProgramsAreNoisier) {
  auto PrecisionOfPow = [](unsigned K) {
    ProgramBuilder B("pow", 64);
    Expr X = B.inputCipher("x", 40);
    B.output("out", X.pow(K), 30);
    Expected<CompiledProgram> CP = compile(B.program());
    EXPECT_TRUE(CP.ok());
    NoiseEstimate E = estimateNoise(*CP->Prog, CP->PolyDegree);
    return E.OutputPrecisionBits[0];
  };
  double P2 = PrecisionOfPow(2);
  double P8 = PrecisionOfPow(8);
  double P32 = PrecisionOfPow(32);
  EXPECT_GT(P2, P8);
  EXPECT_GT(P8, P32);
  EXPECT_GT(P32, 0) << "x^32 at scale 2^40 should still decode";
}

TEST(NoiseEstimate, HigherScalesBuyPrecision) {
  auto PrecisionAt = [](double Scale) {
    ProgramBuilder B("s", 64);
    Expr X = B.inputCipher("x", Scale);
    B.output("out", (X * X) * (X << 3), 30);
    Expected<CompiledProgram> CP = compile(B.program());
    EXPECT_TRUE(CP.ok());
    return estimateNoise(*CP->Prog, CP->PolyDegree).OutputPrecisionBits[0];
  };
  EXPECT_GT(PrecisionAt(40), PrecisionAt(30));
  EXPECT_GT(PrecisionAt(50), PrecisionAt(40));
}

TEST(NoiseEstimate, RotationsCostKeySwitchNoise) {
  auto Precision = [](bool WithRotations) {
    ProgramBuilder B("r", 1024);
    Expr X = B.inputCipher("x", 35);
    Expr V = X * X;
    if (WithRotations)
      for (int I = 0; I < 5; ++I)
        V = V + (V << (1 << I));
    B.output("out", V, 30);
    Expected<CompiledProgram> CP = compile(B.program());
    EXPECT_TRUE(CP.ok());
    return estimateNoise(*CP->Prog, CP->PolyDegree).OutputPrecisionBits[0];
  };
  EXPECT_GT(Precision(false), Precision(true));
}

TEST(NoiseEstimate, BoundsObservedErrorOnRealExecution) {
  // The estimate bounds the error a client observes: run on the client
  // path (createClient's keys, secret-key encryption, decryptOutputs), the
  // error must not exceed 2^-(precision - 2).
  // A deep program with a rotation and a plain constant.
  ProgramBuilder Deep("obs", 256);
  Expr X = Deep.inputCipher("x", 40);
  Deep.output("out", (X.pow(4) + (X << 9)) * Deep.constant(0.5, 20), 25);
  // Rotations that normalize to the identity, at scale 2^30 and N = 8192.
  ProgramBuilder Rot("rotvs", 16);
  Expr Y = Rot.inputCipher("x", 30);
  Rot.output("out", ((Y << 16) + (Y >> 32)) * Y, 30);

  for (const Program *P : {&Deep.program(), &Rot.program()}) {
    Expected<CompiledProgram> CP = compile(*P);
    ASSERT_TRUE(CP.ok()) << P->name() << ": " << CP.message();
    NoiseEstimate E = estimateNoise(*CP->Prog, CP->PolyDegree);
    double Precision = E.OutputPrecisionBits[0];
    ASSERT_GT(Precision, 4) << P->name();

    Expected<std::shared_ptr<CkksWorkspace>> WS =
        CkksWorkspace::createClient(*CP, 3);
    ASSERT_TRUE(WS.ok()) << WS.message();
    Expected<std::unique_ptr<Runner>> R = Runner::local(*CP, WS.value());
    ASSERT_TRUE(R.ok()) << R.message();
    RandomSource Rng(5);
    std::vector<double> In(P->vecSize());
    for (double &V : In)
      V = Rng.uniformReal(-1, 1);
    Expected<Valuation> Got = (*R)->run(Valuation().set("x", In));
    ASSERT_TRUE(Got.ok()) << Got.message();
    std::map<std::string, std::vector<double>> Want =
        *ReferenceExecutor(*P).run({{"x", In}});
    double MaxErr = 0;
    for (size_t I = 0; I < In.size(); ++I)
      MaxErr = std::max(MaxErr,
                        std::abs(Got->vector("out")[I] - Want.at("out")[I]));
    // 2 bits of slack on the model.
    EXPECT_LT(MaxErr, std::exp2(-(Precision - 2)))
        << P->name() << ": predicted " << Precision << " bits";
  }
}

TEST(NoiseEstimate, ChetModeIsNoisierThanEva) {
  // Table 4's fidelity gap, predicted statically: the CHET discipline's
  // boost multiplies and low working scale lose precision.
  NetworkDefinition N = makeLeNet5Small(7);
  TensorScales S;
  std::unique_ptr<Program> P = N.buildProgram(S);
  Expected<CompiledProgram> Eva = compile(*P, CompilerOptions::eva());
  Expected<CompiledProgram> Chet = compile(*P, CompilerOptions::chet());
  ASSERT_TRUE(Eva.ok() && Chet.ok());
  double PE = estimateFor(*Eva).OutputPrecisionBits[0];
  double PC = estimateFor(*Chet).OutputPrecisionBits[0];
  EXPECT_GT(PE, PC);
}

} // namespace
