//===- DeathTest.cpp - Failure-injection tests for runtime guards -------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's claim is that compiled programs never trip the FHE library's
/// runtime checks. These tests verify the complementary half: the runtime
/// checks exist and fire loudly on the raw-API misuse patterns the compiler
/// exists to prevent (mismatched levels, mismatched scales, missing keys,
/// exhausted modulus chains).
///
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"
#include "eva/ckks/Decryptor.h"
#include "eva/ckks/Encoder.h"
#include "eva/ckks/Encryptor.h"
#include "eva/ckks/Evaluator.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/frontend/Expr.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/tensor/Kernels.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

struct RawApi {
  RawApi() {
    Ctx = CkksContext::createFromBitSizes(1024, {40, 30, 40},
                                          SecurityLevel::None)
              .value();
    Enc = std::make_unique<CkksEncoder>(Ctx);
    Gen = std::make_unique<KeyGenerator>(Ctx, 7);
    Encryptor_ = std::make_unique<Encryptor>(Ctx, 8);
    Eval = std::make_unique<Evaluator>(Ctx);
  }

  Ciphertext enc(double Value, double LogScale, size_t Primes) {
    Plaintext Pt;
    Enc->encodeScalar(Value, std::ldexp(1.0, LogScale), Primes, Pt);
    uint64_t Seed = 0;
    return Encryptor_->encryptSymmetric(Pt, Gen->secretKey(), Seed);
  }

  std::shared_ptr<CkksContext> Ctx;
  std::unique_ptr<CkksEncoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  std::unique_ptr<Encryptor> Encryptor_;
  std::unique_ptr<Evaluator> Eval;
};

struct DeathStyleSetter {
  DeathStyleSetter() {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
} static SetDeathStyle;

TEST(RuntimeGuardDeathTest, AddAtDifferentLevelsAborts) {
  RawApi Api;
  Ciphertext A = Api.enc(1.0, 30, 2);
  Ciphertext B = Api.Eval->modSwitch(A);
  EXPECT_DEATH(Api.Eval->add(A, B), "different levels");
}

TEST(RuntimeGuardDeathTest, AddAtDifferentScalesAborts) {
  RawApi Api;
  Ciphertext A = Api.enc(1.0, 30, 2);
  Ciphertext B = Api.enc(1.0, 31, 2);
  EXPECT_DEATH(Api.Eval->add(A, B), "mismatched scales");
}

TEST(RuntimeGuardDeathTest, RotationWithoutKeyAborts) {
  RawApi Api;
  Ciphertext A = Api.enc(1.0, 30, 2);
  GaloisKeys Gk = Api.Gen->createGaloisKeys({2});
  EXPECT_DEATH(Api.Eval->rotateLeft(A, 3, Gk), "missing Galois key");
}

TEST(RuntimeGuardDeathTest, RotationAboveItsKeysLevelAborts) {
  // A Galois key with one digit serves 1-prime ciphertexts only; reading it
  // at 2 primes would run past its digits, in every build mode.
  RawApi Api;
  Ciphertext A = Api.enc(1.0, 30, 2);
  GaloisKeys Gk = Api.Gen->createGaloisKeysAtLevels({{1, 1}});
  EXPECT_DEATH(Api.Eval->rotateLeft(A, 1, Gk), "key of 1 digits");
  EXPECT_DEATH(Api.Eval->rotateHoisted(A, {1}, Gk), "key of 1 digits");
}

TEST(RuntimeGuardDeathTest, RotationOfUnrelinearizedCiphertextAborts) {
  // Rotation key-switches c1 only, so a 3-polynomial input would come back
  // as a 2-polynomial ciphertext that decrypts to garbage.
  RawApi Api;
  Ciphertext A = Api.enc(1.0, 20, 2);
  Ciphertext Product = Api.Eval->multiply(A, A);
  ASSERT_EQ(Product.size(), 3u);
  GaloisKeys Gk = Api.Gen->createGaloisKeys({1});
  EXPECT_DEATH(Api.Eval->rotateLeft(Product, 1, Gk), "relinearized");
  EXPECT_DEATH(Api.Eval->rotateHoisted(Product, {1}, Gk), "relinearized");
}

TEST(RuntimeGuardDeathTest, RescaleOnExhaustedChainAborts) {
  RawApi Api;
  Ciphertext A = Api.enc(1.0, 30, 1); // single prime left
  EXPECT_DEATH(Api.Eval->rescale(A), "exhausted");
}

// The raw API hands caller vectors straight to the encoder, whose length
// checks hold in every build mode.
TEST(RuntimeGuardDeathTest, EncryptingMalformedInputLengthsAborts) {
  RawApi Api;
  const double Scale = std::ldexp(1.0, 30);
  Plaintext Pt;
  EXPECT_DEATH(Api.Enc->encode(std::vector<double>{}, Scale, 2, Pt),
               "empty input");
  EXPECT_DEATH(
      Api.Enc->encode(std::vector<double>{1.0, 2.0, 3.0}, Scale, 2, Pt),
      "3 values: the length must be a power of two");
}

// An evaluation-only workspace holds no secret key, so decrypting with one
// is a caller bug, diagnosed in every build mode.
TEST(RuntimeGuardDeathTest, DecryptingOnAnEvaluationOnlyWorkspaceAborts) {
  ProgramBuilder B("evalonly", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", X + X, 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << CP.message();
  Expected<std::shared_ptr<CkksContext>> Ctx = CkksContext::createFromBitSizes(
      CP->PolyDegree, CP->contextBitSizes(), CP->Options.Security);
  ASSERT_TRUE(Ctx.ok()) << Ctx.message();
  Expected<std::shared_ptr<CkksWorkspace>> Server =
      CkksWorkspace::createServer(*CP, Ctx.value(), {}, {});
  ASSERT_TRUE(Server.ok()) << Server.message();
  EXPECT_DEATH(decryptOutputs(*Server.value(), ProgramSignature::of(*CP), {}),
               "evaluation-only workspace cannot decrypt");
}

// Frontend misuse is diagnosed with a precise message in every build mode
// (a compiled-out assert would null-deref in Release instead).
TEST(FrontendMisuseDeathTest, ArithmeticOnInvalidExprIsDiagnosed) {
  ProgramBuilder B("misuse", 16);
  Expr X = B.inputCipher("x", 30);
  Expr Invalid; // default-constructed
  EXPECT_DEATH(Invalid + X, "invalid");
  EXPECT_DEATH(X * Invalid, "invalid");
  EXPECT_DEATH(-Invalid, "invalid");
  EXPECT_DEATH(Invalid << 3, "invalid");
  EXPECT_DEATH(Invalid * 2.0, "invalid");
  EXPECT_DEATH(B.output("out", Invalid, 30), "invalid");
}

TEST(FrontendMisuseDeathTest, PowZeroIsDiagnosed) {
  ProgramBuilder B("powzero", 16);
  Expr X = B.inputCipher("x", 30);
  EXPECT_DEATH(X.pow(0), "pow\\(0\\)");
}

TEST(FrontendMisuseDeathTest, DuplicateIoNamesAreDiagnosed) {
  ProgramBuilder B("dups", 16);
  Expr X = B.inputCipher("x", 30);
  EXPECT_DEATH(B.inputCipher("x", 30), "duplicate input name");
  EXPECT_DEATH(B.inputPlain("x", 20), "duplicate input name");
  B.output("out", X * X, 30);
  EXPECT_DEATH(B.output("out", X, 30), "duplicate output name");
}

TEST(FrontendMisuseDeathTest, MixingBuildersIsDiagnosed) {
  ProgramBuilder B1("one", 16), B2("two", 16);
  Expr X = B1.inputCipher("x", 30);
  Expr Y = B2.inputCipher("y", 30);
  EXPECT_DEATH(X + Y, "different ProgramBuilders");
}

TEST(FrontendMisuseDeathTest, KernelShapeMismatchesAreDiagnosed) {
  // Tensor kernels check their shapes in every build mode: a Release build
  // would otherwise write masks past vec_size or read past the weights.
  ProgramBuilder B("kernels", 64);
  TensorScales S;
  CipherTensor Img{B.inputCipher("image", S.Cipher),
                   CipherLayout::forImage(2, 4, 4)}; // 32 slots, dense
  CipherTensor Strided = Img;
  Strided.Layout.H = Strided.Layout.W = 2;
  Strided.Layout.StrideY = Strided.Layout.StrideX = 2; // 8 inputs
  EXPECT_DEATH(conv2d(B, Img, Tensor({1, 3, 3, 3}), Tensor(), 1, true, S),
               "conv2d: input has 2 channels but the weights expect 3");
  EXPECT_DEATH(conv2d(B, Img, Tensor({5, 2, 3, 3}), Tensor(), 1, true, S),
               "conv2d: output spans 80 slots, past vec_size 64");
  EXPECT_DEATH(fullyConnected(B, Strided, Tensor({3, 9}), Tensor(), S),
               "fullyConnected: weights expect 9 inputs but the input "
               "tensor has 8");
  EXPECT_DEATH(fullyConnected(B, Strided, Tensor({65, 8}), Tensor(), S),
               "fullyConnected: 65 outputs exceed vec_size 64");
  EXPECT_DEATH(fullyConnected(B, Img, Tensor({3, 31}), Tensor(), S),
               "matVecBsgs: weights expect 31 inputs");
  EXPECT_DEATH(matVecBsgs(B, Strided, Tensor({3, 8}), Tensor(), S),
               "matVecBsgs: needs a dense input layout");
  EXPECT_DEATH(concatChannels(B, Img, Strided, S),
               "concatChannels: layouts differ beyond channels");
  // The shapes around those: weight rank, bias length, a valid kernel
  // larger than its input, an input past vec_size, all-zero weights.
  EXPECT_DEATH(conv2d(B, Img, Tensor({2, 2, 3}), Tensor(), 1, true, S),
               "conv2d: weights have 3 dims");
  EXPECT_DEATH(fullyConnected(B, Strided, Tensor({8}), Tensor(), S),
               "fullyConnected: weights have 1 dims");
  EXPECT_DEATH(conv2d(B, Img, Tensor({1, 2, 3, 3}), Tensor({2}), 1, true, S),
               "conv2d: bias has 2 entries for 1 channels");
  EXPECT_DEATH(fullyConnected(B, Strided, Tensor({3, 8}), Tensor({4}), S),
               "fullyConnected: bias has 4 entries for 3 outputs");
  EXPECT_DEATH(conv2d(B, Img, Tensor({1, 2, 5, 5}), Tensor(), 1, false, S),
               "conv2d: a 5x5 valid convolution over a 2x4x4");
  CipherTensor Wide = Img;
  Wide.Layout.C = 5; // 80 slots
  EXPECT_DEATH(conv2d(B, Wide, Tensor({1, 5, 1, 1}), Tensor(), 1, true, S),
               "conv2d: input layout spans 80 slots, past vec_size 64");
  EXPECT_DEATH(fullyConnected(B, Strided, Tensor({3, 8}), Tensor(), S),
               "fullyConnected: all weights are zero");
}

TEST(RuntimeGuardDeathTest, CompiledProgramsNeverTripTheGuards) {
  // The positive control: a program exercising all the hazards above
  // (mixed scales, rotations, deep multiplies) compiles and runs without
  // touching any guard.
  ProgramBuilder B("safe", 64);
  Expr X = B.inputCipher("x", 30);
  Expr Y = B.inputCipher("y", 25);
  B.output("out", (X * X + Y) * (X << 7) + B.constant(1.0, 10), 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << CP.message();
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(*CP, 9);
  ASSERT_TRUE(WS.ok()) << WS.message();
  Expected<std::unique_ptr<Runner>> R = Runner::local(*CP, WS.value());
  ASSERT_TRUE(R.ok()) << R.message();
  Expected<Valuation> Out =
      (*R)->run(Valuation::fromMap({{"x", std::vector<double>(64, 0.5)},
                                    {"y", std::vector<double>(64, 0.25)}}));
  ASSERT_TRUE(Out.ok()) << Out.message();
  // The scale-2^10 scalar constant quantizes at ~1e-3 (Table 4's Scalar
  // scale); everything else contributes noise well below that.
  EXPECT_NEAR(Out->vector("out")[0], (0.5 * 0.5 + 0.25) * 0.5 + 1.0, 2e-3);
}

} // namespace
