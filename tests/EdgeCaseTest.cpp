//===- EdgeCaseTest.cpp - Boundary and odd-shape cases ------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"
#include "eva/ckks/Decryptor.h"
#include "eva/ckks/Encoder.h"
#include "eva/ckks/Encryptor.h"
#include "eva/ckks/Evaluator.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/frontend/Expr.h"
#include "eva/ir/Printer.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

struct Raw {
  Raw() {
    Ctx = CkksContext::createFromBitSizes(2048, {50, 40, 50},
                                          SecurityLevel::None)
              .value();
    Enc = std::make_unique<CkksEncoder>(Ctx);
    Gen = std::make_unique<KeyGenerator>(Ctx, 11);
    Encryptor_ = std::make_unique<Encryptor>(Ctx, 12);
    Dec = std::make_unique<Decryptor>(Ctx, Gen->secretKey());
    Eval = std::make_unique<Evaluator>(Ctx);
  }
  Ciphertext enc(const std::vector<double> &V) {
    Plaintext Pt;
    Enc->encode(V, std::ldexp(1.0, 40), 2, Pt);
    uint64_t Seed = 0;
    return Encryptor_->encryptSymmetric(Pt, Gen->secretKey(), Seed);
  }
  std::vector<double> dec(const Ciphertext &C) {
    return Enc->decode(Dec->decrypt(C));
  }
  std::shared_ptr<CkksContext> Ctx;
  std::unique_ptr<CkksEncoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  std::unique_ptr<Encryptor> Encryptor_;
  std::unique_ptr<Decryptor> Dec;
  std::unique_ptr<Evaluator> Eval;
};

TEST(CkksEdge, AddAndSubWithThreePolynomialOperands) {
  Raw R;
  RandomSource Rng(1);
  std::vector<double> A(1024), B(1024), C(1024);
  for (size_t I = 0; I < 1024; ++I) {
    A[I] = Rng.uniformReal(-1, 1);
    B[I] = Rng.uniformReal(-1, 1);
    C[I] = Rng.uniformReal(-1, 1);
  }
  Ciphertext CA = R.enc(A), CB = R.enc(B), CC = R.enc(C);
  Ciphertext Prod = R.Eval->multiply(CA, CB); // 3 polynomials
  // Bring C to the product's scale via the MATCH-SCALE constant trick.
  Plaintext One;
  R.Enc->encodeScalar(1.0, Prod.Scale / CC.Scale, 2, One);
  Ciphertext CCm = R.Eval->multiplyPlain(CC, One);
  // 2-poly + 3-poly in both orders, and 2-poly - 3-poly.
  std::vector<double> S1 = R.dec(R.Eval->add(Prod, CCm));
  std::vector<double> S2 = R.dec(R.Eval->add(CCm, Prod));
  std::vector<double> D1 = R.dec(R.Eval->sub(CCm, Prod));
  for (size_t I = 0; I < 1024; ++I) {
    EXPECT_NEAR(S1[I], A[I] * B[I] + C[I], 1e-4);
    EXPECT_NEAR(S2[I], A[I] * B[I] + C[I], 1e-4);
    EXPECT_NEAR(D1[I], C[I] - A[I] * B[I], 1e-4);
  }
}

TEST(CkksEdge, RotateByAlmostFullSlotCount) {
  Raw R;
  uint64_t Slots = R.Ctx->slotCount();
  GaloisKeys Gk = R.Gen->createGaloisKeys({Slots - 1});
  std::vector<double> A(Slots);
  for (size_t I = 0; I < Slots; ++I)
    A[I] = static_cast<double>(I % 17) / 17.0;
  Ciphertext CA = R.enc(A);
  std::vector<double> Out = R.dec(R.Eval->rotateLeft(CA, Slots - 1, Gk));
  for (size_t I = 0; I < Slots; ++I)
    EXPECT_NEAR(Out[I], A[(I + Slots - 1) % Slots], 1e-5);
}

TEST(CkksEdge, NegateOfThreePolynomialCiphertext) {
  Raw R;
  std::vector<double> A(1024, 0.5), B(1024, 0.25);
  Ciphertext Prod = R.Eval->multiply(R.enc(A), R.enc(B));
  std::vector<double> Out = R.dec(R.Eval->negate(Prod));
  for (size_t I = 0; I < 1024; ++I)
    EXPECT_NEAR(Out[I], -0.125, 1e-4);
}

TEST(CkksEdge, RescaleAfterRelinearizeMatchesRelinearizeAfterRescale) {
  Raw R;
  RandomSource Rng(3);
  std::vector<double> A(1024), B(1024);
  for (size_t I = 0; I < 1024; ++I) {
    A[I] = Rng.uniformReal(-1, 1);
    B[I] = Rng.uniformReal(-1, 1);
  }
  RelinKeys Rk = R.Gen->createRelinKeys();
  Ciphertext Prod = R.Eval->multiply(R.enc(A), R.enc(B));
  std::vector<double> RelinFirst =
      R.dec(R.Eval->rescale(R.Eval->relinearize(Prod, Rk)));
  std::vector<double> RescaleFirst =
      R.dec(R.Eval->relinearize(R.Eval->rescale(Prod), Rk));
  for (size_t I = 0; I < 1024; ++I) {
    EXPECT_NEAR(RelinFirst[I], A[I] * B[I], 1e-4);
    EXPECT_NEAR(RescaleFirst[I], A[I] * B[I], 1e-4);
  }
}

TEST(CkksEdge, GaloisKeyEdgeSteps) {
  Raw R; // degree 2048 -> 1024 slots
  uint64_t Slots = R.Ctx->slotCount();

  // Empty step set, step 0, and any multiple of the slot count (identity
  // rotations) produce no keys — and must not crash or assert.
  EXPECT_TRUE(R.Gen->createGaloisKeys({}).Keys.empty());
  EXPECT_TRUE(R.Gen->createGaloisKeys({0}).Keys.empty());
  EXPECT_TRUE(R.Gen->createGaloisKeys({Slots}).Keys.empty());
  EXPECT_TRUE(R.Gen->createGaloisKeys({0, Slots, 2 * Slots}).Keys.empty());

  // Steps congruent modulo the slot count share one key.
  GaloisKeys Gk = R.Gen->createGaloisKeys({16, Slots + 16, 0});
  EXPECT_EQ(Gk.Keys.size(), 1u);

  // A step equal to a program's vec_size (16 < slot count) is a real slot
  // rotation at the scheme level and the generated key works.
  std::vector<double> In(Slots);
  for (size_t I = 0; I < Slots; ++I)
    In[I] = 0.001 * static_cast<double>(I % 97) - 0.05;
  std::vector<double> Out = R.dec(R.Eval->rotateLeft(R.enc(In), 16, Gk));
  for (size_t I = 0; I < Slots; ++I)
    EXPECT_NEAR(Out[I], In[(I + 16) % Slots], 1e-4) << "slot " << I;
}

TEST(CompilerEdge, RotationByVecSizeIsIdentityAndNeedsNoKey) {
  // vec_size-step (and multiple-of-vec_size) rotations normalize to the
  // identity: no Galois key is requested and execution works without any.
  ProgramBuilder B("rotvs", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", ((X << 16) + (X >> 32)) * X, 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << CP.message();
  EXPECT_TRUE(CP->RotationSteps.empty());

  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(*CP, 3);
  ASSERT_TRUE(WS.ok()) << WS.message();
  EXPECT_TRUE(WS.value()->Gk.Keys.empty());
  Expected<std::unique_ptr<Runner>> R = Runner::local(*CP, WS.value());
  ASSERT_TRUE(R.ok()) << R.message();
  const std::vector<double> X2 = {0.1, -0.2, 0.3, 0.4,  -0.5, 0.6, 0.7,  -0.8,
                                  0.9, 0.1,  0.2, -0.3, 0.4,  0.5, -0.6, 0.7};
  Expected<Valuation> Got = (*R)->run(Valuation().set("x", X2));
  ASSERT_TRUE(Got.ok()) << Got.message();
  for (size_t I = 0; I < 16; ++I)
    EXPECT_NEAR(Got->vector("out")[I], 2 * X2[I] * X2[I], 1e-4)
        << "slot " << I;
}

TEST(CompilerEdge, VectorSizeOne) {
  ProgramBuilder B("one", 1);
  Expr X = B.inputCipher("x", 30);
  B.output("out", X * X + X, 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << CP.message();
  EXPECT_TRUE(CP->RotationSteps.empty());
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(*CP, 1);
  ASSERT_TRUE(WS.ok());
  Expected<std::unique_ptr<Runner>> R = Runner::local(*CP, WS.value());
  ASSERT_TRUE(R.ok()) << R.message();
  Expected<Valuation> Out = (*R)->run(Valuation().set("x", {0.5}));
  ASSERT_TRUE(Out.ok()) << Out.message();
  EXPECT_NEAR(Out->vector("out")[0], 0.75, 1e-4);
}

TEST(CompilerEdge, InputScaleAtTheSfBoundary) {
  ProgramBuilder B("sf", 8);
  Expr X = B.inputCipher("x", 60); // exactly s_f: legal
  B.output("out", X * X, 30);
  EXPECT_TRUE(compile(B.program()).ok());
  ProgramBuilder B2("sf2", 8);
  Expr Y = B2.inputCipher("y", 61); // above s_f: rejected
  B2.output("out", Y * Y, 30);
  Expected<CompiledProgram> Bad = compile(B2.program());
  EXPECT_FALSE(Bad.ok());
  EXPECT_NE(Bad.message().find("out-of-range scale"), std::string::npos);
}

TEST(CompilerEdge, SharedSubgraphAcrossOutputsKeepsChainsConforming) {
  ProgramBuilder B("shared", 32);
  Expr X = B.inputCipher("x", 40);
  Expr Common = X.pow(4);
  B.output("deep", Common * Common, 30);
  B.output("shallow", Common + X.pow(4), 30); // reuses Common via CSE
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << CP.message();
  Expected<RescaleChainInfo> Chains = validateRescaleChains(*CP->Prog, 60);
  ASSERT_TRUE(Chains.ok());
  // Reference semantics still hold.
  ReferenceExecutor Ref(B.program()), RefC(*CP->Prog);
  std::map<std::string, std::vector<double>> In = {
      {"x", std::vector<double>(32, 0.9)}};
  auto A = *Ref.run(In);
  auto C = *RefC.run(In);
  EXPECT_NEAR(A.at("deep")[0], C.at("deep")[0], 1e-9);
  EXPECT_NEAR(A.at("shallow")[0], C.at("shallow")[0], 1e-9);
}

TEST(CompilerEdge, PlainVectorInputFlowsThroughEverything) {
  ProgramBuilder B("plainin", 16);
  Expr X = B.inputCipher("x", 30);
  Expr W = B.inputPlain("w", 20);
  B.output("out", (X + W) * W, 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << CP.message();
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(*CP, 2);
  ASSERT_TRUE(WS.ok());
  Expected<std::unique_ptr<Runner>> R = Runner::local(*CP, WS.value());
  ASSERT_TRUE(R.ok()) << R.message();
  Expected<Valuation> Out =
      (*R)->run(Valuation::fromMap({{"x", std::vector<double>(16, 0.5)},
                                    {"w", std::vector<double>(16, 0.3)}}));
  ASSERT_TRUE(Out.ok()) << Out.message();
  EXPECT_NEAR(Out->vector("out")[0], (0.5 + 0.3) * 0.3, 1e-4);
}

TEST(CompilerEdge, RotationOfAPlainValueIsRefusedAsSuch) {
  // Nothing rotates plain data at run time, and no relinearization is
  // involved: the diagnostic must say so and name the rotation.
  ProgramBuilder B("plainrot", 16);
  Expr X = B.inputCipher("x", 30);
  Expr W = B.inputPlain("w", 20);
  B.output("out", X * (W << 3), 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_FALSE(CP.ok());
  EXPECT_NE(CP.message().find("rotates the plain value"), std::string::npos)
      << CP.message();
  EXPECT_NE(CP.message().find("(rotate_left)"), std::string::npos)
      << CP.message();
  EXPECT_EQ(CP.message().find("relinearized"), std::string::npos)
      << CP.message();
}

TEST(CompilerEdge, DeepRotationOnlyProgramNeedsNoRescale) {
  ProgramBuilder B("rotonly", 64);
  Expr X = B.inputCipher("x", 30);
  Expr V = X;
  for (int I = 0; I < 10; ++I)
    V = (V << 3) + V;
  B.output("out", V, 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok());
  EXPECT_EQ(countOps(*CP->Prog, OpCode::Rescale), 0u);
  EXPECT_EQ(countOps(*CP->Prog, OpCode::ModSwitch), 0u);
  EXPECT_EQ(CP->modulusLength(), 2u); // special + one headroom prime
}

TEST(ReferenceEdge, SumOfReplicatedShortInput) {
  ProgramBuilder B("sumrep", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", B.sumSlots(X), 30);
  ReferenceExecutor Ref(B.program());
  // A 4-element input replicates 4x; the slot sum covers all 16 slots.
  auto Out = *Ref.run({{"x", {1, 2, 3, 4}}});
  EXPECT_DOUBLE_EQ(Out.at("out")[0], 4 * (1 + 2 + 3 + 4));
}

} // namespace
