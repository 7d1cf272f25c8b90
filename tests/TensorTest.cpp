//===- TensorTest.cpp - Homomorphic tensor kernels vs. plain reference -------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"
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

/// A dense layer over a hand-built strided layout: the hybrid diagonal
/// kernel's edge cases.
struct HybridFcCase {
  const char *Name;
  CipherLayout Layout;
  size_t NOut, M;
  bool Bias;
  /// Input column whose weights are all zero, or -1.
  int ZeroColumn;
};

CipherLayout stridedLayout(size_t C, size_t H, size_t W, size_t GridH,
                           size_t GridW, size_t Stride) {
  CipherLayout L;
  L.C = C;
  L.H = H;
  L.W = W;
  L.GridH = GridH;
  L.GridW = GridW;
  L.StrideY = L.StrideX = Stride;
  return L;
}

class HybridFcKernel : public ::testing::TestWithParam<HybridFcCase> {};

TEST_P(HybridFcKernel, MatchesPlainReference) {
  const HybridFcCase &C = GetParam();
  const CipherLayout &L = C.Layout;
  ASSERT_FALSE(L.dense());
  ASSERT_LE(L.slotExtent(), C.M);
  size_t NIn = L.logicalSize();
  RandomSource Rng(C.NOut * 1000 + NIn);
  Tensor Image = Tensor::random({L.C, L.H, L.W}, Rng);
  Tensor W = Tensor::random({C.NOut, NIn}, Rng, 0.5);
  if (C.ZeroColumn >= 0)
    for (size_t O = 0; O < C.NOut; ++O)
      W.at2(O, static_cast<size_t>(C.ZeroColumn)) = 0.0;
  Tensor Bias = C.Bias ? Tensor::random({C.NOut}, Rng, 0.1) : Tensor();

  ProgramBuilder B("hybrid_fc", C.M);
  TensorScales S;
  CipherTensor In{B.inputCipher("image", S.Cipher), L};
  CipherTensor Out = fullyConnected(B, In, W, Bias, S);
  EXPECT_TRUE(Out.Layout.dense());
  EXPECT_EQ(Out.Layout.C, C.NOut);

  // The kernel's shape: BS - 1 baby steps, NP / BS - 1 giant steps and a
  // class tree of log2(M / NP) steps; a skipped diagonal saves its
  // multiply.
  size_t NP = 1, BS = 1;
  while (NP < C.NOut)
    NP <<= 1;
  while (BS * BS < NP)
    BS <<= 1;
  size_t Rotations = 0, Multiplies = 0;
  for (const Node *N : B.program().forwardOrder()) {
    Rotations += N->op() == OpCode::RotateLeft;
    Multiplies += N->op() == OpCode::Multiply;
  }
  size_t TreeSteps = 0;
  for (size_t Step = NP; Step < C.M; Step <<= 1)
    ++TreeSteps;
  if (C.ZeroColumn >= 0) {
    EXPECT_LT(Multiplies, NP);
  } else {
    EXPECT_EQ(Multiplies, NP);
    EXPECT_EQ(Rotations, (BS - 1) + (NP / BS - 1) + TreeSteps);
  }

  // Slots outside the layout hold junk: the kernel must read only the
  // layout's slots.
  std::vector<double> Slots(C.M);
  for (double &V : Slots)
    V = Rng.uniformReal(-4, 4);
  for (size_t Ch = 0; Ch < L.C; ++Ch)
    for (size_t Y = 0; Y < L.H; ++Y)
      for (size_t X = 0; X < L.W; ++X)
        Slots[L.slotOf(Ch, Y, X)] = Image.at3(Ch, Y, X);
  B.output("out", Out.Value, 30);
  std::map<std::string, std::vector<double>> R =
      *ReferenceExecutor(B.program()).run({{"image", Slots}});
  Tensor FlatIn({NIn});
  FlatIn.data() = Image.data();
  Tensor Want = plain::fullyConnected(FlatIn, W, Bias);
  for (size_t O = 0; O < C.NOut; ++O)
    EXPECT_NEAR(R.at("out")[O], Want.at(O), 1e-9) << "output " << O;
}

std::string hybridFcName(const ::testing::TestParamInfo<HybridFcCase> &I) {
  return I.param.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HybridFcKernel,
    ::testing::Values(
        // NP = 1: one diagonal, the tree sums the whole vector.
        HybridFcCase{"OneOutput", stridedLayout(2, 3, 3, 6, 6, 2), 1, 128,
                     false, -1},
        // NOut not a power of two, NOut > BS, with a bias.
        HybridFcCase{"FiveOutputsBias", stridedLayout(2, 3, 3, 6, 6, 2), 5,
                     128, true, -1},
        HybridFcCase{"TenOutputs", stridedLayout(3, 3, 3, 6, 6, 2), 10, 128,
                     false, -1},
        // Channel-strided (padded grid, unit strides): the layout reaches
        // slot M - 6 of M, and s_j - d wraps below slot 0.
        HybridFcCase{"ChannelStridedWraps", stridedLayout(4, 3, 3, 4, 4, 1),
                     10, 64, true, -1},
        // Inputs at slots 0 and 5, NOut = 3 (NP = 4): diagonal 1 reads only
        // column 1, which is all zero, so it is skipped.
        HybridFcCase{"ZeroColumnSkipsADiagonal",
                     stridedLayout(2, 1, 1, 1, 5, 1), 3, 16, true, 1},
        // NP = M: the class tree has no steps.
        HybridFcCase{"OutputsFillTheVector", stridedLayout(1, 2, 2, 4, 4, 2),
                     12, 16, true, -1}),
    hybridFcName);

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
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(*CP, 3);
  ASSERT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());
  LocalRunnerOptions Opts;
  Opts.Threads = 2;
  Expected<std::unique_ptr<Runner>> R = Runner::local(*CP, WS.value(), Opts);
  ASSERT_TRUE(R.ok()) << R.message();

  Tensor Image = Tensor::random({1, 8, 8}, Rng);
  std::vector<double> Slots(P->vecSize(), 0.0);
  CipherLayout L = CipherLayout::forImage(1, 8, 8);
  for (size_t Y = 0; Y < 8; ++Y)
    for (size_t X = 0; X < 8; ++X)
      Slots[L.slotOf(0, Y, X)] = Image.at3(0, Y, X);
  Expected<Valuation> Out = (*R)->run(Valuation().set("image", Slots));
  ASSERT_TRUE(Out.ok()) << Out.message();
  Tensor Want = N.runPlain(Image);
  for (size_t O = 0; O < 4; ++O)
    EXPECT_NEAR(Out->vector("scores")[O], Want.at(O), 1e-2) << "class " << O;
}

} // namespace
