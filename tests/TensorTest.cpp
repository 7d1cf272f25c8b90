//===- TensorTest.cpp - Homomorphic tensor kernels vs. plain reference -------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/runtime/CkksExecutor.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/tensor/Network.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

/// Runs a one-kernel program under the id scheme and gathers the logical
/// output tensor from the layout.
Tensor runKernelPlain(ProgramBuilder &B, const CipherTensor &Out,
                      const Tensor &Image, const CipherLayout &InLayout) {
  B.output("out", Out.Value, 30);
  ReferenceExecutor Ref(B.program());
  std::vector<double> Slots(B.vecSize(), 0.0);
  for (size_t C = 0; C < InLayout.C; ++C)
    for (size_t Y = 0; Y < InLayout.H; ++Y)
      for (size_t X = 0; X < InLayout.W; ++X)
        Slots[InLayout.slotOf(C, Y, X)] = Image.at3(C, Y, X);
  std::map<std::string, std::vector<double>> R =
      *Ref.run({{"image", Slots}});
  const std::vector<double> &V = R.at("out");
  const CipherLayout &L = Out.Layout;
  Tensor T({L.C, L.H, L.W});
  for (size_t C = 0; C < L.C; ++C)
    for (size_t Y = 0; Y < L.H; ++Y)
      for (size_t X = 0; X < L.W; ++X)
        T.at3(C, Y, X) = V[L.slotOf(C, Y, X)];
  return T;
}

double maxAbs(const Tensor &A, const Tensor &B) {
  EXPECT_EQ(A.dims(), B.dims());
  double M = 0;
  for (size_t I = 0; I < A.size(); ++I)
    M = std::max(M, std::abs(A.at(I) - B.at(I)));
  return M;
}

struct ConvCase {
  size_t Ci, H, W, Co, K, Stride;
  bool SamePad;
};

class ConvKernel : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvKernel, MatchesPlainReference) {
  const ConvCase &C = GetParam();
  RandomSource Rng(C.Ci * 100 + C.Co * 10 + C.K);
  Tensor Image = Tensor::random({C.Ci, C.H, C.W}, Rng);
  Tensor W = Tensor::random({C.Co, C.Ci, C.K, C.K}, Rng, 0.5);
  Tensor Bias = Tensor::random({C.Co}, Rng, 0.1);

  size_t Grid = C.H * C.W;
  size_t M = 1;
  while (M < std::max(C.Ci, C.Co) * Grid)
    M <<= 1;
  ProgramBuilder B("conv", M);
  TensorScales S;
  CipherTensor In;
  In.Value = B.inputCipher("image", S.Cipher);
  In.Layout = CipherLayout::forImage(C.Ci, C.H, C.W);
  CipherTensor Out = conv2d(B, In, W, Bias, C.Stride, C.SamePad, S);

  Tensor Got = runKernelPlain(B, Out, Image, In.Layout);
  Tensor Want = plain::conv2d(Image, W, Bias, C.Stride, C.SamePad);
  EXPECT_LT(maxAbs(Got, Want), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvKernel,
    ::testing::Values(ConvCase{1, 8, 8, 2, 3, 1, true},
                      ConvCase{1, 8, 8, 2, 3, 2, true},
                      ConvCase{2, 8, 8, 4, 3, 1, true},
                      ConvCase{2, 8, 8, 3, 5, 2, true},
                      ConvCase{3, 6, 6, 2, 3, 1, false},
                      ConvCase{2, 7, 7, 2, 3, 2, false},
                      ConvCase{4, 4, 4, 4, 1, 1, true}));

TEST(AvgPoolKernel, MatchesPlainReference) {
  RandomSource Rng(9);
  Tensor Image = Tensor::random({3, 8, 8}, Rng);
  ProgramBuilder B("pool", 256);
  TensorScales S;
  CipherTensor In;
  In.Value = B.inputCipher("image", S.Cipher);
  In.Layout = CipherLayout::forImage(3, 8, 8);
  CipherTensor Out = avgPool2d(B, In, 2, 2, S);
  Tensor Got = runKernelPlain(B, Out, Image, In.Layout);
  Tensor Want = plain::avgPool2d(Image, 2, 2);
  EXPECT_LT(maxAbs(Got, Want), 1e-9);
}

TEST(FcKernel, MatchesPlainReference) {
  RandomSource Rng(11);
  Tensor Image = Tensor::random({2, 4, 4}, Rng);
  Tensor W = Tensor::random({5, 32}, Rng, 0.5);
  Tensor Bias = Tensor::random({5}, Rng, 0.1);
  ProgramBuilder B("fc", 64);
  TensorScales S;
  CipherTensor In;
  In.Value = B.inputCipher("image", S.Cipher);
  In.Layout = CipherLayout::forImage(2, 4, 4);
  CipherTensor Out = fullyConnected(B, In, W, Bias, S);

  B.output("out", Out.Value, 30);
  ReferenceExecutor Ref(B.program());
  std::vector<double> Slots(64, 0.0);
  std::copy(Image.data().begin(), Image.data().end(), Slots.begin());
  std::map<std::string, std::vector<double>> R =
      *Ref.run({{"image", Slots}});
  Tensor Flat({32});
  Flat.data() = Image.data();
  Tensor Want = plain::fullyConnected(Flat, W, Bias);
  for (size_t O = 0; O < 5; ++O)
    EXPECT_NEAR(R.at("out")[O], Want.at(O), 1e-9) << "output " << O;
}

TEST(FcKernel, HandlesStridedInputLayout) {
  // FC consuming a stride-2 conv output must gather from the dilated grid.
  RandomSource Rng(13);
  Tensor Image = Tensor::random({1, 8, 8}, Rng);
  Tensor CW = Tensor::random({2, 1, 3, 3}, Rng, 0.5);
  Tensor FW = Tensor::random({3, 2 * 4 * 4}, Rng, 0.5);
  ProgramBuilder B("convfc", 256);
  TensorScales S;
  CipherTensor In;
  In.Value = B.inputCipher("image", S.Cipher);
  In.Layout = CipherLayout::forImage(1, 8, 8);
  CipherTensor Mid = conv2d(B, In, CW, Tensor(), 2, true, S);
  CipherTensor Out = fullyConnected(B, Mid, FW, Tensor(), S);

  Tensor Got = runKernelPlain(B, Out, Image, In.Layout);
  Tensor Conv = plain::conv2d(Image, CW, Tensor(), 2, true);
  Tensor Flat({Conv.size()});
  Flat.data() = Conv.data();
  Tensor Want3 = plain::fullyConnected(Flat, FW, Tensor());
  for (size_t O = 0; O < 3; ++O)
    EXPECT_NEAR(Got.at3(O, 0, 0), Want3.at(O), 1e-9);
}

TEST(ConcatKernel, PlacesChannelsDisjointly) {
  RandomSource Rng(15);
  Tensor Image = Tensor::random({2, 4, 4}, Rng);
  Tensor W1 = Tensor::random({2, 2, 1, 1}, Rng, 0.5);
  Tensor W3 = Tensor::random({3, 2, 3, 3}, Rng, 0.5);
  ProgramBuilder B("cat", 128);
  TensorScales S;
  CipherTensor In;
  In.Value = B.inputCipher("image", S.Cipher);
  In.Layout = CipherLayout::forImage(2, 4, 4);
  CipherTensor A = conv2d(B, In, W1, Tensor(), 1, true, S);
  CipherTensor C = conv2d(B, In, W3, Tensor(), 1, true, S);
  CipherTensor Out = concatChannels(B, A, C, S);
  EXPECT_EQ(Out.Layout.C, 5u);

  Tensor Got = runKernelPlain(B, Out, Image, In.Layout);
  Tensor EA = plain::conv2d(Image, W1, Tensor(), 1, true);
  Tensor EC = plain::conv2d(Image, W3, Tensor(), 1, true);
  for (size_t Ch = 0; Ch < 5; ++Ch)
    for (size_t Y = 0; Y < 4; ++Y)
      for (size_t X = 0; X < 4; ++X) {
        double Want = Ch < 2 ? EA.at3(Ch, Y, X) : EC.at3(Ch - 2, Y, X);
        EXPECT_NEAR(Got.at3(Ch, Y, X), Want, 1e-9);
      }
}

TEST(Networks, ZooShapesMatchTable3) {
  std::vector<NetworkDefinition> Zoo = makeAllNetworks(1);
  ASSERT_EQ(Zoo.size(), 5u);
  // Table 3's layer structure: LeNets have 2 conv + 2 FC, Industrial 5 conv
  // + 2 FC, SqueezeNet-CIFAR 10 conv + 0 FC-classifier structure (ours uses
  // a dense classifier head in place of the final conv + global pool).
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_EQ(Zoo[I].convLayerCount(), 2u) << Zoo[I].name();
    EXPECT_EQ(Zoo[I].fcLayerCount(), 2u) << Zoo[I].name();
  }
  EXPECT_EQ(Zoo[3].convLayerCount(), 5u);
  EXPECT_EQ(Zoo[3].fcLayerCount(), 2u);
  EXPECT_EQ(Zoo[4].convLayerCount(), 10u);
  // FP-operation ordering matches Table 3: small < medium < large.
  EXPECT_LT(Zoo[0].fpOperationCount(), Zoo[1].fpOperationCount());
  EXPECT_LT(Zoo[1].fpOperationCount(), Zoo[2].fpOperationCount());
  EXPECT_EQ(Zoo[0].numClasses(), 10u);
  EXPECT_EQ(Zoo[3].numClasses(), 2u);
}

TEST(Networks, ProgramsMatchPlainInference) {
  // Every network's EVA program reproduces its plain reference forward pass
  // under the id scheme.
  std::vector<NetworkDefinition> Nets;
  Nets.push_back(makeLeNet5Small(3));
  Nets.push_back(makeIndustrial(3));
  Nets.push_back(makeSqueezeNetCifar(3));
  for (const NetworkDefinition &N : Nets) {
    RandomSource Rng(7);
    Tensor Image = Tensor::random(
        {N.inputChannels(), N.inputHeight(), N.inputWidth()}, Rng);
    TensorScales S;
    std::unique_ptr<Program> P = N.buildProgram(S);
    ReferenceExecutor Ref(*P);
    std::vector<double> Slots(P->vecSize(), 0.0);
    CipherLayout L = CipherLayout::forImage(
        N.inputChannels(), N.inputHeight(), N.inputWidth());
    for (size_t C = 0; C < L.C; ++C)
      for (size_t Y = 0; Y < L.H; ++Y)
        for (size_t X = 0; X < L.W; ++X)
          Slots[L.slotOf(C, Y, X)] = Image.at3(C, Y, X);
    std::map<std::string, std::vector<double>> R =
        *Ref.run({{"image", Slots}});
    Tensor Want = N.runPlain(Image);
    for (size_t O = 0; O < N.numClasses(); ++O)
      EXPECT_NEAR(R.at("scores")[O], Want.at(O), 1e-7)
          << N.name() << " class " << O;
  }
}

TEST(Networks, CompileBothModesAndCompare) {
  // Table 6's shape on the real model zoo: EVA's chain is never longer than
  // CHET's, and is strictly shorter on the deeper networks.
  NetworkDefinition N = makeLeNet5Small(1);
  TensorScales S;
  std::unique_ptr<Program> P = N.buildProgram(S);
  Expected<CompiledProgram> Eva = compile(*P, CompilerOptions::eva());
  Expected<CompiledProgram> Chet = compile(*P, CompilerOptions::chet());
  ASSERT_TRUE(Eva.ok()) << (Eva.ok() ? "" : Eva.message());
  ASSERT_TRUE(Chet.ok()) << (Chet.ok() ? "" : Chet.message());
  EXPECT_LT(Eva->modulusLength(), Chet->modulusLength());
  EXPECT_LE(Eva->PolyDegree, Chet->PolyDegree);
}

TEST(Networks, EncryptedInferenceMatchesPlain) {
  // A reduced LeNet-style network, fully encrypted end to end.
  RandomSource Rng(21);
  NetworkDefinition N("tiny", 1, 8, 8);
  N.addConv(Tensor::random({2, 1, 3, 3}, Rng, 0.3), Tensor(), 2, true);
  N.addSquare();
  N.addFc(Tensor::random({4, 2 * 4 * 4}, Rng, 0.3), Tensor());
  TensorScales S;
  std::unique_ptr<Program> P = N.buildProgram(S);
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  Expected<std::shared_ptr<CkksWorkspace>> WS = CkksWorkspace::create(*CP, 3);
  ASSERT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());
  CkksExecutor Exec(*CP, WS.value(), {.Threads = 2});

  Tensor Image = Tensor::random({1, 8, 8}, Rng);
  std::vector<double> Slots(P->vecSize(), 0.0);
  CipherLayout L = CipherLayout::forImage(1, 8, 8);
  for (size_t Y = 0; Y < 8; ++Y)
    for (size_t X = 0; X < 8; ++X)
      Slots[L.slotOf(0, Y, X)] = Image.at3(0, Y, X);
  std::map<std::string, std::vector<double>> Out =
      Exec.runPlain({{"image", Slots}});
  Tensor Want = N.runPlain(Image);
  for (size_t O = 0; O < 4; ++O)
    EXPECT_NEAR(Out.at("scores")[O], Want.at(O), 1e-2) << "class " << O;
}

} // namespace
